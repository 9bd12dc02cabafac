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
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import rsa

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
# payload (hint and request). An entry holds the loaded client key and
# delta_s. Filling the memo (one client key, delta_s 1 to 1,024) grew
# RSS by 2.8 MiB on CPython 3.11, against 5.1 MiB measured the same way
# when an entry also held a request key, its wrap and the request.
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
        # SHA-256 of a payload that checked out -> (client key,
        # delta_s), least recently served first; see _handle_request.
        self._requests: OrderedDict[
            bytes, tuple[rsa.RSAPublicKey, int]] = OrderedDict()

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
        # binding. A payload equal to one that checked out is not
        # decoded, loaded or verified again; any other takes the full
        # path, and only one that passes all of it takes (or refreshes)
        # a slot. A sender can at worst evict entries, which costs their
        # owners one key load and one verify each.
        digest = hashlib.sha256(payload).digest()
        known = self._requests.get(digest)
        if known is None:
            hint = payload[:wire.FINGERPRINT_LEN]
            request = wire.decode_request(payload[wire.FINGERPRINT_LEN:],
                                          self._max_delta_s)
            if wire.fingerprint(request.client_pub_key) != hint:
                raise HintMismatch("hint does not match signed public key")
            client_pub = crypto.load_public_key(request.client_pub_key)
            if not crypto.verify(
                    client_pub, crypto.REQUEST_TAG,
                    crypto.request_signing_bytes(request.client_pub_key,
                                                 request.delta_s),
                    request.sigma1):
                raise BadSignature("sigma1 does not verify")
            known = (client_pub, request.delta_s)
        self._requests[digest] = known
        self._requests.move_to_end(digest)
        if len(self._requests) > _REQUEST_KEYS_MAX:
            self._requests.popitem(last=False)
        client_pub, delta_s = known

        # Harvest covers the requested entropy plus the response session
        # key, also from the pool (one extraction, split) for seal_message.
        needed = 8 * (delta_s + crypto.SESSION_KEY_LEN)
        self._pool.harvest(needed, self._harvest_deadline_ms)
        out = self._pool.extract(delta_s + crypto.SESSION_KEY_LEN)
        entropy, session_key = out[:delta_s], out[delta_s:]

        t2 = self._clock()
        payload_bytes = wire.encode_response_payload(
            wire.EntropyResponse(t2=t2, entropy=entropy))
        envelope = crypto.seal_message(
            client_pub, payload_bytes, self._rng,
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
