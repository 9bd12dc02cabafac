"""Simulated Trusted Application: the minimal-TCB side of the server.

All secret-touching work (key custody, request signature verification,
entropy extraction, response sealing, quote signing) lives behind a
single message-shaped entrypoint, ``ta_invoke``:

    command  = command_id u8 || payload
    response = status u8 || body

Commands and payload schemas:

    GET_PUBKEY (0x01)      payload empty          -> DER public key
    HANDLE_REQUEST (0x02)  hint(32) || request    -> response envelope
    ATTEST (0x03)          nonce(32)              -> encoded quote

The byte-string seam means a real enclave boundary could replace this
class without changing callers. The caller never receives key material,
pool state, or client-bound plaintext entropy.

Each response is sealed under a fresh session key from the pool, which
travels AES-KW-wrapped under its binding's key. The binding key comes
from the pool with the binding's first response and is OAEP-wrapped to
the client once, so a steady response costs one RSA private op, the
sigma2 sign, and the device none.
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path

from . import crypto, wire
from .errors import (
    BadSignature,
    EntropyDepleted,
    FieldOutOfRange,
    HintMismatch,
    InsufficientCredit,
    InvalidKey,
    MalformedMessage,
    NoSources,
)
from .pool import Clock, EntropyPool, system_clock_ceil_ms


class TaCommand(enum.IntEnum):
    GET_PUBKEY = 1
    HANDLE_REQUEST = 2
    ATTEST = 3


class TaStatus(enum.IntEnum):
    OK = 0
    UNKNOWN_COMMAND = 1
    MALFORMED = 2
    BAD_SIGNATURE = 4
    FIELD_OUT_OF_RANGE = 5
    HINT_MISMATCH = 6
    ENTROPY_DEPLETED = 7
    NO_SOURCES = 8


# Most requests the TA keeps as checked, by the SHA-256 of their
# payload (hint and request). An entry holds delta_s and the binding key
# with its wrap; the client key is dropped once it has made the wrap.
# Filling a new TA's memo (one client key, delta_s 1 to 1,024) grew RSS
# by 1.7 MiB on CPython 3.11, against 4.1 MiB when entries kept the key.
_REQUEST_KEYS_MAX = 1024


def encode_command(command: TaCommand, payload: bytes = b"") -> bytes:
    return bytes([command]) + payload


def module_measurement() -> bytes:
    """SHA-256 of this module's source: the stand-in TA measurement."""
    return hashlib.sha256(Path(__file__).read_bytes()).digest()


class TrustedApplication:
    """The TA. Its only public operation is ta_invoke."""

    def __init__(self, identity: crypto.KeyPair, pool: EntropyPool, *,
                 sm_measurement: bytes,
                 clock: Clock = system_clock_ceil_ms,
                 rng: crypto.Rng = os.urandom,
                 max_delta_s: int = wire.DEFAULT_MAX_DELTA_S,
                 harvest_deadline_ms: int = 2000):
        if len(sm_measurement) != wire.MEASUREMENT_LEN:
            raise ValueError("sm_measurement must be 32 bytes")
        self._identity = identity
        self._pool = pool
        self._sm_measurement = sm_measurement
        self._ta_measurement = module_measurement()
        self._clock = clock
        self._rng = rng
        self._max_delta_s = max_delta_s
        self._harvest_deadline_ms = harvest_deadline_ms
        self._lock = threading.Lock()
        # SHA-256 of a payload whose first response was drawn ->
        # (delta_s, binding key), least recently served first; see
        # _handle_request.
        self._requests: OrderedDict[
            bytes, tuple[int, crypto.BindingKey]] = OrderedDict()

    def ta_invoke(self, command: bytes) -> bytes:
        """Dispatch one serialized command; at most one runs at a time."""
        with self._lock:
            if not command:
                return bytes([TaStatus.MALFORMED])
            try:
                cmd = TaCommand(command[0])
            except ValueError:
                return bytes([TaStatus.UNKNOWN_COMMAND])
            payload = command[1:]
            try:
                if cmd is TaCommand.GET_PUBKEY:
                    body = self._get_pubkey(payload)
                elif cmd is TaCommand.HANDLE_REQUEST:
                    body = self._handle_request(payload)
                else:
                    body = self._attest(payload)
            except (MalformedMessage, InvalidKey):
                return bytes([TaStatus.MALFORMED])
            except BadSignature:
                return bytes([TaStatus.BAD_SIGNATURE])
            except FieldOutOfRange:
                return bytes([TaStatus.FIELD_OUT_OF_RANGE])
            except HintMismatch:
                return bytes([TaStatus.HINT_MISMATCH])
            except (EntropyDepleted, InsufficientCredit):
                return bytes([TaStatus.ENTROPY_DEPLETED])
            except NoSources:
                return bytes([TaStatus.NO_SOURCES])
            return bytes([TaStatus.OK]) + body

    # -- handlers (TA-internal) ----------------------------------------------

    def _get_pubkey(self, payload: bytes) -> bytes:
        if payload:
            raise MalformedMessage("GET_PUBKEY takes no payload")
        return self._identity.public_der

    def _handle_request(self, payload: bytes) -> bytes:
        # The request (pk, delta_s, sigma1) is a static binding, so a
        # client sends the same payload for every request of one
        # binding. A payload equal to one in the memo is not decoded,
        # loaded or verified again. Any other takes the full path, and
        # enters the memo once it has passed all of it and its first
        # response is drawn. A sender can at worst evict entries, which
        # costs their owners one key load and one verify each, and one
        # unwrap on the device for the new binding key.
        digest = hashlib.sha256(payload).digest()
        known = self._requests.get(digest)
        if known is None:
            hint = payload[:wire.FINGERPRINT_LEN]
            request = wire.decode_request(payload[wire.FINGERPRINT_LEN:],
                                          self._max_delta_s)
            if wire.fingerprint(request.client_pub_key) != hint:
                raise HintMismatch("hint does not match signed public key")
            client_pub = crypto.load_public_key(request.client_pub_key)
            # One key, one encoding: the hint, and with it the throttle
            # bucket and the memo entry, names the key's own DER.
            if crypto.public_key_der(client_pub) != request.client_pub_key:
                raise MalformedMessage("public key is not in DER form")
            if not crypto.verify(
                    client_pub, crypto.REQUEST_TAG,
                    crypto.request_signing_bytes(request.client_pub_key,
                                                 request.delta_s),
                    request.sigma1):
                raise BadSignature("sigma1 does not verify")
            delta_s = request.delta_s
        else:
            delta_s, binding = known

        # One extraction, split: the requested entropy, a fresh session
        # key for this response and, for a binding's first response, the
        # binding key that wraps each session key of the binding.
        n = delta_s + crypto.SESSION_KEY_LEN * (2 if known is None else 1)
        self._pool.harvest(8 * n, self._harvest_deadline_ms)
        out = self._pool.extract(n)
        entropy = out[:delta_s]
        session_key = out[delta_s:delta_s + crypto.SESSION_KEY_LEN]
        if known is None:
            key = out[delta_s + crypto.SESSION_KEY_LEN:]
            binding = crypto.BindingKey(key, crypto.wrap_key(client_pub, key))
            self._requests[digest] = (delta_s, binding)
        self._requests.move_to_end(digest)
        if len(self._requests) > _REQUEST_KEYS_MAX:
            self._requests.popitem(last=False)

        t2 = self._clock()
        payload_bytes = wire.encode_response_payload(
            wire.EntropyResponse(t2=t2, entropy=entropy))
        envelope = crypto.seal_message(
            binding, payload_bytes, self._rng,
            signer=self._identity.secret, session_key=session_key)
        return wire.encode_envelope(envelope)

    def _attest(self, payload: bytes) -> bytes:
        if len(payload) != wire.QUOTE_NONCE_LEN:
            raise MalformedMessage(
                f"attestation nonce must be {wire.QUOTE_NONCE_LEN} bytes")
        quote_time = self._clock()
        signature = crypto.sign(
            self._identity.secret, crypto.QUOTE_TAG,
            crypto.quote_signing_bytes(payload, self._sm_measurement,
                                       self._ta_measurement, quote_time))
        return wire.encode_quote(wire.AttestationQuote(
            nonce=payload, sm_measurement=self._sm_measurement,
            ta_measurement=self._ta_measurement, quote_time=quote_time,
            signature=signature))
