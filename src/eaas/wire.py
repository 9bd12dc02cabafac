"""Binary wire format for every message crossing the network or TA boundary.

All integers are big-endian. Every network message starts with the same
two-byte prologue (magic + version) followed by a message-type byte.

Entropy request (msg_type 0x01, sent in the clear after the hint)::

    "EAAS" | version u8 | 0x01 | pk_len u16 | pk_DER | delta_s u32
           | sig_len u16 | sigma1

Sealed envelope (msg_type 0x02, the response; the client refuses one
with sig_flag 0)::

    "EAAS" | version u8 | 0x02 | wrapped_key (384) | nonce (12)
           | ct_len u32 | ciphertext | sig_flag u8 | [sigma2 (384)]

Attestation quote (msg_type 0x03)::

    "EAAS" | version u8 | 0x03 | nonce (32) | sm_measurement (32)
           | ta_measurement (32) | quote_time u64 | signature (384)

Response payload (plaintext sealed inside a response envelope; carries no
magic because it never appears on the wire unencrypted)::

    payload_version u8 | t2 u64 | entropy

Decoding is total: any byte string either yields a message or raises
MalformedMessage / FieldOutOfRange. Trailing bytes are rejected, so
encoding is canonical (injective over valid messages).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .errors import FieldOutOfRange, MalformedMessage

MAGIC = b"EAAS"
VERSION = 1

MSG_REQUEST = 1
MSG_ENVELOPE = 2
MSG_QUOTE = 3

PAYLOAD_VERSION = 1

SIGNATURE_LEN = 384        # RSA-3072 modulus in bytes
WRAPPED_KEY_LEN = 384
NONCE_LEN = 12
GCM_TAG_LEN = 16
FINGERPRINT_LEN = 32
MEASUREMENT_LEN = 32
QUOTE_NONCE_LEN = 32

DEFAULT_MAX_DELTA_S = 4096

_PROLOGUE = struct.Struct(">4sBB")

# Longest HTTP POST body the format can hold: the hint, then a request
# with a u16-maximal public key.
MAX_BODY_LEN = (FINGERPRINT_LEN + _PROLOGUE.size + 2 + 0xFFFF + 4 + 2
                + SIGNATURE_LEN)
# Longest HTTP reply body the formats can hold: a signed response
# envelope with a u32-maximal ciphertext. A quote, a DER key or an error
# token is shorter.
MAX_REPLY_LEN = (_PROLOGUE.size + WRAPPED_KEY_LEN + NONCE_LEN + 4
                 + 0xFFFFFFFF + 1 + SIGNATURE_LEN)


@dataclass(frozen=True)
class EntropyRequest:
    """Client's self-signed ask: public key, byte count, signature."""

    client_pub_key: bytes   # DER-encoded RSA-3072 public key
    delta_s: int            # bytes of entropy requested
    sigma1: bytes           # 384-byte signature over the request binding


@dataclass(frozen=True)
class SealedEnvelope:
    """Hybrid ciphertext: W, the wrapped session key, the sealed payload."""

    wrapped_key: bytes      # 384 bytes, W: binding key under recipient pk
    nonce: bytes            # 12 bytes
    ciphertext: bytes       # AES-KW of the session key, then AES-GCM output
    sigma2: bytes | None = None   # present on server-to-client messages


@dataclass(frozen=True)
class EntropyResponse:
    """Decrypted response payload: generation timestamp and entropy."""

    t2: int                 # unsigned ms since Unix epoch, UTC
    entropy: bytes


@dataclass(frozen=True)
class AttestationQuote:
    """Signed (nonce, measurements, timestamp) attestation record."""

    nonce: bytes
    sm_measurement: bytes
    ta_measurement: bytes
    quote_time: int
    signature: bytes


def fingerprint(pub_key_der: bytes) -> bytes:
    """32-byte SHA-256 digest of a DER public key; the throttle identity."""
    return hashlib.sha256(pub_key_der).digest()


def _prologue(msg_type: int) -> bytes:
    return _PROLOGUE.pack(MAGIC, VERSION, msg_type)


def _check_prologue(buf: bytes, expected_type: int) -> None:
    if len(buf) < _PROLOGUE.size:
        raise MalformedMessage("message shorter than prologue")
    magic, version, msg_type = _PROLOGUE.unpack_from(buf)
    if magic != MAGIC:
        raise MalformedMessage("bad magic")
    if version != VERSION:
        raise MalformedMessage(f"unsupported version {version}")
    if msg_type != expected_type:
        raise MalformedMessage(f"unexpected message type {msg_type}")


class _Cursor:
    """Bounds-checked reader over an immutable buffer."""

    def __init__(self, buf: bytes, offset: int = 0):
        self._buf = buf
        self._pos = offset

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._buf):
            raise MalformedMessage("truncated message")
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def finish(self) -> None:
        if self._pos != len(self._buf):
            raise MalformedMessage("trailing bytes after message")


def _check_delta_s(delta_s: int, max_delta_s: int) -> None:
    if not 1 <= delta_s <= max_delta_s:
        raise FieldOutOfRange(
            f"delta_s {delta_s} outside [1, {max_delta_s}]")


def encode_request(req: EntropyRequest,
                   max_delta_s: int = DEFAULT_MAX_DELTA_S) -> bytes:
    _check_delta_s(req.delta_s, max_delta_s)
    if len(req.sigma1) != SIGNATURE_LEN:
        raise MalformedMessage(
            f"sigma1 must be {SIGNATURE_LEN} bytes, got {len(req.sigma1)}")
    if not 0 < len(req.client_pub_key) <= 0xFFFF:
        raise MalformedMessage("public key length does not fit u16")
    return b"".join([
        _prologue(MSG_REQUEST),
        struct.pack(">H", len(req.client_pub_key)),
        req.client_pub_key,
        struct.pack(">I", req.delta_s),
        struct.pack(">H", len(req.sigma1)),
        req.sigma1,
    ])


def decode_request(buf: bytes,
                   max_delta_s: int = DEFAULT_MAX_DELTA_S) -> EntropyRequest:
    _check_prologue(buf, MSG_REQUEST)
    cur = _Cursor(buf, _PROLOGUE.size)
    pk_len = cur.u16()
    if pk_len == 0:
        raise MalformedMessage("empty public key")
    pk = cur.take(pk_len)
    delta_s = cur.u32()
    sig_len = cur.u16()
    if sig_len != SIGNATURE_LEN:
        raise MalformedMessage(f"sigma1 length {sig_len} != {SIGNATURE_LEN}")
    sigma1 = cur.take(sig_len)
    cur.finish()
    _check_delta_s(delta_s, max_delta_s)
    return EntropyRequest(client_pub_key=pk, delta_s=delta_s, sigma1=sigma1)


def encode_envelope(env: SealedEnvelope) -> bytes:
    if len(env.wrapped_key) != WRAPPED_KEY_LEN:
        raise MalformedMessage(
            f"wrapped_key must be {WRAPPED_KEY_LEN} bytes")
    if len(env.nonce) != NONCE_LEN:
        raise MalformedMessage(f"nonce must be {NONCE_LEN} bytes")
    if len(env.ciphertext) < GCM_TAG_LEN:
        raise MalformedMessage("ciphertext shorter than authentication tag")
    if env.sigma2 is not None and len(env.sigma2) != SIGNATURE_LEN:
        raise MalformedMessage(f"sigma2 must be {SIGNATURE_LEN} bytes")
    parts = [
        _prologue(MSG_ENVELOPE),
        env.wrapped_key,
        env.nonce,
        struct.pack(">I", len(env.ciphertext)),
        env.ciphertext,
        b"\x01" if env.sigma2 is not None else b"\x00",
    ]
    if env.sigma2 is not None:
        parts.append(env.sigma2)
    return b"".join(parts)


def decode_envelope(buf: bytes) -> SealedEnvelope:
    _check_prologue(buf, MSG_ENVELOPE)
    cur = _Cursor(buf, _PROLOGUE.size)
    wrapped = cur.take(WRAPPED_KEY_LEN)
    nonce = cur.take(NONCE_LEN)
    ct_len = cur.u32()
    if ct_len < GCM_TAG_LEN:
        raise MalformedMessage("ciphertext shorter than authentication tag")
    ciphertext = cur.take(ct_len)
    sig_flag = cur.u8()
    if sig_flag not in (0, 1):
        raise MalformedMessage(f"signature flag {sig_flag} not in {{0, 1}}")
    sigma2 = cur.take(SIGNATURE_LEN) if sig_flag == 1 else None
    cur.finish()
    return SealedEnvelope(wrapped_key=wrapped, nonce=nonce,
                          ciphertext=ciphertext, sigma2=sigma2)


def encode_response_payload(resp: EntropyResponse) -> bytes:
    if not 0 <= resp.t2 <= 0xFFFFFFFFFFFFFFFF:
        raise FieldOutOfRange("t2 must fit u64")
    return struct.pack(">BQ", PAYLOAD_VERSION, resp.t2) + resp.entropy


def decode_response_payload(buf: bytes) -> EntropyResponse:
    if len(buf) < 9:
        raise MalformedMessage("response payload shorter than header")
    version, t2 = struct.unpack_from(">BQ", buf)
    if version != PAYLOAD_VERSION:
        raise MalformedMessage(f"unsupported payload version {version}")
    return EntropyResponse(t2=t2, entropy=buf[9:])


def encode_quote(quote: AttestationQuote) -> bytes:
    if len(quote.nonce) != QUOTE_NONCE_LEN:
        raise MalformedMessage(f"nonce must be {QUOTE_NONCE_LEN} bytes")
    if len(quote.sm_measurement) != MEASUREMENT_LEN:
        raise MalformedMessage("sm_measurement must be 32 bytes")
    if len(quote.ta_measurement) != MEASUREMENT_LEN:
        raise MalformedMessage("ta_measurement must be 32 bytes")
    if len(quote.signature) != SIGNATURE_LEN:
        raise MalformedMessage(f"signature must be {SIGNATURE_LEN} bytes")
    if not 0 <= quote.quote_time <= 0xFFFFFFFFFFFFFFFF:
        raise FieldOutOfRange("quote_time must fit u64")
    return b"".join([
        _prologue(MSG_QUOTE),
        quote.nonce,
        quote.sm_measurement,
        quote.ta_measurement,
        struct.pack(">Q", quote.quote_time),
        quote.signature,
    ])


def decode_quote(buf: bytes) -> AttestationQuote:
    _check_prologue(buf, MSG_QUOTE)
    cur = _Cursor(buf, _PROLOGUE.size)
    nonce = cur.take(QUOTE_NONCE_LEN)
    sm = cur.take(MEASUREMENT_LEN)
    ta = cur.take(MEASUREMENT_LEN)
    quote_time = cur.u64()
    signature = cur.take(SIGNATURE_LEN)
    cur.finish()
    return AttestationQuote(nonce=nonce, sm_measurement=sm,
                            ta_measurement=ta, quote_time=quote_time,
                            signature=signature)
