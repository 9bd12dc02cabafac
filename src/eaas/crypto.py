"""Hybrid-envelope primitives: RSA-3072 signatures and key wrapping,
AES-KW session-key wrapping, AES-128-GCM payload encryption.

Signatures are RSA-PSS over SHA-256 and always cover a domain-separation
tag so a signature made for one protocol role can never verify in another.
Key wrapping is RSA-OAEP over SHA-256; a 3072-bit key can carry at most
OAEP_CAPACITY (318) plaintext bytes, which is why payloads travel under a
fixed-length symmetric session key instead. A response's session key is
fresh, and travels AES-KW-wrapped (RFC 3394) under its binding's key,
which is OAEP-wrapped to the client once per binding; so the client makes
one RSA private op per binding, not per response.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, keywrap, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import InvalidKey, OpenFailure, RngFailure, UnwrapFailure
from .wire import NONCE_LEN, SealedEnvelope

RSA_BITS = 3072
RSA_BYTES = RSA_BITS // 8                      # 384
SESSION_KEY_LEN = 16                           # AES-128
KW_LEN = SESSION_KEY_LEN + 8                   # an AES-KW-wrapped session key
OAEP_CAPACITY = RSA_BYTES - 2 * 32 - 2         # 318 bytes for SHA-256 OAEP

REQUEST_TAG = b"EAAS-REQ-V1"
RESPONSE_TAG = b"EAAS-RESP-V1"
QUOTE_TAG = b"EAAS-QUOTE-V1"

Rng = Callable[[int], bytes]

_PSS = padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=32)
_OAEP = padding.OAEP(mgf=padding.MGF1(hashes.SHA256()),
                     algorithm=hashes.SHA256(), label=None)


@dataclass(frozen=True)
class KeyPair:
    """An RSA-3072 private key together with its public half."""

    secret: rsa.RSAPrivateKey
    public: rsa.RSAPublicKey

    @property
    def public_der(self) -> bytes:
        return public_key_der(self.public)


class BindingKey(NamedTuple):
    """A binding's response key K_b and its wrap_key to the client, W."""

    key: bytes
    wrapped: bytes


def generate_keypair() -> KeyPair:
    """Generate a fresh RSA-3072 pair.

    Key generation randomness comes from the backend CSPRNG (OpenSSL,
    itself fed by the OS); it is the one primitive whose randomness this
    package cannot inject.
    """
    try:
        secret = rsa.generate_private_key(public_exponent=65537,
                                          key_size=RSA_BITS)
    except Exception as exc:           # pragma: no cover - backend failure
        raise RngFailure(f"key generation failed: {exc}") from exc
    return KeyPair(secret=secret, public=secret.public_key())


def public_key_der(pub: rsa.RSAPublicKey) -> bytes:
    return pub.public_bytes(serialization.Encoding.DER,
                            serialization.PublicFormat.SubjectPublicKeyInfo)


def private_key_der(keypair: KeyPair) -> bytes:
    return keypair.secret.private_bytes(
        serialization.Encoding.DER,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption())


def write_private_key(path: Path, keypair: KeyPair) -> None:
    """Write the private key as DER to a new file, mode 0600; O_EXCL
    raises FileExistsError rather than overwrite an existing file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(fd, "wb") as f:
        f.write(private_key_der(keypair))


def _load_rsa_key(data: bytes, loaders, key_type, what: str):
    """Try each loader (DER, then PEM) and accept only an RSA-3072 key."""
    for loader in loaders:
        try:
            key = loader(data)
            break
        except Exception:
            continue
    else:
        raise InvalidKey(f"{what} does not parse as DER or PEM")
    if not isinstance(key, key_type):
        raise InvalidKey(f"{what} is not RSA")
    if key.key_size != RSA_BITS:
        raise InvalidKey(f"expected {RSA_BITS}-bit key, got {key.key_size}")
    return key


def load_public_key(data: bytes) -> rsa.RSAPublicKey:
    """Load a public key from DER (or PEM text armor)."""
    return _load_rsa_key(data, (serialization.load_der_public_key,
                                serialization.load_pem_public_key),
                         rsa.RSAPublicKey, "public key")


def load_private_key(data: bytes) -> KeyPair:
    """Load a private key from DER (or PEM text armor)."""
    key = _load_rsa_key(
        data, (lambda d: serialization.load_der_private_key(d, None),
               lambda d: serialization.load_pem_private_key(d, None)),
        rsa.RSAPrivateKey, "private key")
    return KeyPair(secret=key, public=key.public_key())


# --- signing ---------------------------------------------------------------

def sign(secret: rsa.RSAPrivateKey, domain_tag: bytes, msg: bytes) -> bytes:
    """RSA-PSS-SHA-256 signature over domain_tag || msg; 384 bytes."""
    return secret.sign(domain_tag + msg, _PSS, hashes.SHA256())


def verify(public: rsa.RSAPublicKey, domain_tag: bytes, msg: bytes,
           sig: bytes) -> bool:
    """True iff sig is a valid signature of domain_tag || msg under public.

    Rejection is a value, not a fault.
    """
    try:
        public.verify(sig, domain_tag + msg, _PSS, hashes.SHA256())
        return True
    except InvalidSignature:
        return False


def request_signing_bytes(pub_key_der: bytes, delta_s: int) -> bytes:
    """The sigma1 binding: public key and requested quantity."""
    return pub_key_der + delta_s.to_bytes(4, "big")


def envelope_signing_bytes(wrapped_key: bytes, nonce: bytes,
                           ciphertext: bytes) -> bytes:
    """The sigma2 binding: wrapped key, nonce, and ciphertext."""
    return wrapped_key + nonce + ciphertext


def quote_signing_bytes(nonce: bytes, sm_measurement: bytes,
                        ta_measurement: bytes, quote_time: int) -> bytes:
    return (nonce + sm_measurement + ta_measurement
            + quote_time.to_bytes(8, "big"))


# --- key wrapping ----------------------------------------------------------

def wrap_key(recipient: rsa.RSAPublicKey, key: bytes) -> bytes:
    """RSA-OAEP-SHA-256 encryption of a 16-byte key; 384 bytes."""
    if len(key) != SESSION_KEY_LEN:
        raise ValueError(f"key must be {SESSION_KEY_LEN} bytes")
    return recipient.encrypt(key, _OAEP)


def unwrap_key(secret: rsa.RSAPrivateKey, wrapped: bytes) -> bytes:
    """Inverse of wrap_key. Wrong key and corruption are indistinguishable."""
    if len(wrapped) != RSA_BYTES:
        raise UnwrapFailure(f"wrapped key must be {RSA_BYTES} bytes")
    try:
        key = secret.decrypt(wrapped, _OAEP)
    except Exception as exc:
        raise UnwrapFailure("key unwrap failed") from exc
    if len(key) != SESSION_KEY_LEN:
        raise UnwrapFailure("unwrapped key has wrong length")
    return key


# --- payload encryption ----------------------------------------------------

def seal_payload(session_key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """AES-128-GCM; output is |plaintext| + 16 bytes (tag appended)."""
    if len(session_key) != SESSION_KEY_LEN:
        raise ValueError(f"session key must be {SESSION_KEY_LEN} bytes")
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    return AESGCM(session_key).encrypt(nonce, plaintext, None)


def open_payload(session_key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    if len(session_key) != SESSION_KEY_LEN:
        raise ValueError(f"session key must be {SESSION_KEY_LEN} bytes")
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    try:
        return AESGCM(session_key).decrypt(nonce, ciphertext, None)
    except InvalidTag as exc:
        raise OpenFailure("payload authentication failed") from exc


# --- hybrid composition ----------------------------------------------------

def seal_message(binding: BindingKey, plaintext: bytes,
                 rng: Rng = os.urandom, *, signer: rsa.RSAPrivateKey,
                 session_key: bytes) -> SealedEnvelope:
    """Seal plaintext under session_key, with the next rng draw as
    nonce, and sign it. The envelope's wrapped_key is binding.wrapped,
    and its ciphertext is session_key AES-KW-wrapped under binding.key
    (KW_LEN bytes) followed by the sealed payload; sigma2 covers
    wrapped_key || nonce || ciphertext under RESPONSE_TAG. The TA passes
    a session key extracted from its entropy pool for each response.
    """
    nonce = rng(NONCE_LEN)
    ciphertext = (keywrap.aes_key_wrap(binding.key, session_key)
                  + seal_payload(session_key, nonce, plaintext))
    sigma2 = sign(signer, RESPONSE_TAG,
                  envelope_signing_bytes(binding.wrapped, nonce, ciphertext))
    return SealedEnvelope(wrapped_key=binding.wrapped, nonce=nonce,
                          ciphertext=ciphertext, sigma2=sigma2)


@functools.lru_cache(maxsize=32)
def _binding_key(secret: rsa.RSAPrivateKey, wrapped: bytes) -> bytes:
    """K_b, unwrapped from W once per (secret key object, W). Private
    key objects hash by identity, so an entry serves only the key object
    that made it, and a failed unwrap raises and keeps nothing. It is
    module state because open_message(secret, env) is the whole
    interface the SDK uses; a client holds about one W per (server,
    delta_s), so a few entries serve it. unwrap_key is looked up at each
    call, so a wrapper set in its place sees every unwrap."""
    return unwrap_key(secret, wrapped)


def open_message(secret: rsa.RSAPrivateKey, env: SealedEnvelope) -> bytes:
    """Unwrap the binding key, unwrap the session key under it and open
    the payload. No signature check: verify_response checks sigma2
    first, so on its path only a W the server signed is unwrapped.
    """
    try:
        session_key = keywrap.aes_key_unwrap(
            _binding_key(secret, env.wrapped_key), env.ciphertext[:KW_LEN])
    except keywrap.InvalidUnwrap as exc:
        raise OpenFailure("session key unwrap failed") from exc
    return open_payload(session_key, env.nonce, env.ciphertext[KW_LEN:])
