"""Client SDK for constrained-device firmware: provisioning, request
construction, the response verification chain, and quote checking.

A request is sent in the clear and signed once per binding, so building
one draws no randomness: the device needs entropy only for its key pair,
or none with a pre-installed one.

Verification order is fixed and security-relevant: server signature
first, then decryption, then semantic checks, so nothing about payload
contents is revealed to an unauthenticated peer. Decryption unwraps a
binding's key with the device's RSA key once, on its first verified
response, so a steady response costs the device one sigma2 verify, an
AES-KW unwrap and a GCM open, and no RSA private op.
"""

from __future__ import annotations

import argparse
import http.client
import logging
import math
import os
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import rsa

from . import crypto, wire
from .errors import (
    BadServerSignature,
    FieldOutOfRange,
    InvalidKey,
    MissingServerKey,
    QuoteRejected,
    Stale,
    StoreCorrupt,
    TransportError,
    WrongQuantity,
)
from .pool import Clock, system_clock_ms

log = logging.getLogger("eaas.client")

CLIENT_KEY_FILE = "client_key.der"
SERVER_KEY_FILE = "server_key.der"

DEFAULT_MAX_FUTURE_SKEW_MS = 30_000
DEFAULT_RETRIES = 3
DEFAULT_TIMEOUT_S = 10.0
MAX_RETRY_AFTER_S = 60.0     # longer Retry-After values are cut to this


@dataclass
class ClientIdentity:
    """A provisioned device: its keypair and the pinned server key."""

    keypair: crypto.KeyPair
    server_public: rsa.RSAPublicKey
    store_path: Path
    # (keypair, the request it signed) of the last binding built
    _request: tuple[crypto.KeyPair, wire.EntropyRequest] | None = field(
        init=False, default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> bytes:
        return wire.fingerprint(self.keypair.public_der)


def provision(store_path: Path | str,
              server_pubkey_source: Path | str | bytes | None = None,
              ) -> ClientIdentity:
    """Create or load an identity store; idempotent on an existing store.

    The server key is pinned into the store on first use; later calls can
    omit the source.
    """
    store = Path(store_path)
    store.mkdir(parents=True, exist_ok=True)

    key_path = store / CLIENT_KEY_FILE
    if key_path.exists():
        keypair = _load_key(crypto.load_private_key, key_path)
    else:
        keypair = crypto.generate_keypair()
        crypto.write_private_key(key_path, keypair)

    server_key_path = store / SERVER_KEY_FILE
    if server_pubkey_source is not None:
        server_public = _load_key(crypto.load_public_key,
                                  server_pubkey_source, "server key")
        server_key_path.write_bytes(crypto.public_key_der(server_public))
    elif server_key_path.exists():
        server_public = _load_key(crypto.load_public_key, server_key_path)
    else:
        raise MissingServerKey(
            "no pinned server key; pass server_pubkey_source")

    return ClientIdentity(keypair=keypair, server_public=server_public,
                          store_path=store)


def _load_key(loader, source: Path | str | bytes, name: str | None = None):
    """loader applied to source's bytes (or the file it names); an
    InvalidKey is raised as StoreCorrupt naming the key, by default by
    its file."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:
        return loader(raw)
    except InvalidKey as exc:
        raise StoreCorrupt(f"{name or source}: {exc}") from exc


def build_request(identity: ClientIdentity, delta_s: int, *,
                  clock: Clock = system_clock_ms,
                  max_delta_s: int = wire.DEFAULT_MAX_DELTA_S,
                  ) -> tuple[bytes, int]:
    """Build the POST body: hint || request, in the clear.

    Returns (body, t1). t1 stays client-local for the freshness check and
    is never transmitted. The request is signed_request's, so the body
    repeats for every request of one binding and draws no randomness.
    """
    if not 1 <= delta_s <= max_delta_s:
        raise FieldOutOfRange(f"delta_s {delta_s} outside [1, {max_delta_s}]")
    t1 = clock()
    request = signed_request(identity, delta_s)
    return (wire.fingerprint(request.client_pub_key)
            + wire.encode_request(request, max_delta_s)), t1


def signed_request(identity: ClientIdentity,
                   delta_s: int) -> wire.EntropyRequest:
    """The request (identity's public key, delta_s, sigma1).

    sigma1 is a static binding: its signed bytes hold no nonce or time,
    and freshness comes from t1/t2. So the identity keeps the last
    request signed and hands it out again while its keypair object and
    delta_s match. The memo is one tuple, replaced whole, so threads
    alternating delta_s each get their own.
    """
    keypair = identity.keypair
    memo = identity._request
    if memo is None or memo[0] is not keypair or memo[1].delta_s != delta_s:
        pub_der = keypair.public_der
        memo = (keypair, wire.EntropyRequest(
            client_pub_key=pub_der, delta_s=delta_s,
            sigma1=crypto.sign(keypair.secret, crypto.REQUEST_TAG,
                               crypto.request_signing_bytes(pub_der,
                                                            delta_s))))
        identity._request = memo
    return memo[1]


def verify_response(envelope_bytes: bytes, *, t1: int, delta_s: int,
                    server_public: rsa.RSAPublicKey,
                    secret_key: rsa.RSAPrivateKey,
                    now: int | None = None,
                    max_future_skew_ms: int = DEFAULT_MAX_FUTURE_SKEW_MS,
                    ) -> bytes:
    """Run the verification chain and return the entropy bytes.

    Order: sigma2, unwrap (of the binding key, unless crypto's memo has
    it for secret_key, then of the session key), open, quantity,
    freshness (t2 > t1 strictly, and t2 not further than
    max_future_skew_ms past the local clock).
    """
    env = wire.decode_envelope(envelope_bytes)
    if env.sigma2 is None:
        raise BadServerSignature("response envelope is unsigned")
    if not crypto.verify(server_public, crypto.RESPONSE_TAG,
                         crypto.envelope_signing_bytes(
                             env.wrapped_key, env.nonce, env.ciphertext),
                         env.sigma2):
        raise BadServerSignature("sigma2 does not verify")
    response = wire.decode_response_payload(
        crypto.open_message(secret_key, env))
    if len(response.entropy) != delta_s:
        raise WrongQuantity(
            f"got {len(response.entropy)} bytes, requested {delta_s}")
    if response.t2 <= t1:
        raise Stale(f"t2 {response.t2} <= t1 {t1}")
    now = system_clock_ms() if now is None else now
    if response.t2 > now + max_future_skew_ms:
        raise Stale(f"t2 {response.t2} is {response.t2 - now} ms in the "
                    "future")
    return response.entropy


# The one idle kept-alive connection: (host, port) and the connection to
# the server address last used, or None. A caller takes it out of the
# slot, so a concurrent caller opens a connection of its own.
_idle: tuple[tuple[str, int], http.client.HTTPConnection] | None = None
_idle_lock = threading.Lock()


def _take_idle(address: tuple[str, int]) -> http.client.HTTPConnection | None:
    """The idle connection if it goes to address; one to another server
    is closed."""
    global _idle
    with _idle_lock:
        old, _idle = _idle, None
    if old is not None and old[0] == address:
        return old[1]
    if old is not None:
        old[1].close()
    return None


def _put_idle(address: tuple[str, int],
              conn: http.client.HTTPConnection) -> None:
    """Keep conn as the idle connection, closing the one it replaces."""
    global _idle
    with _idle_lock:
        old, _idle = _idle, (address, conn)
    if old is not None:
        old[1].close()


def _exchange(method: str, url: str, body: bytes | None,
              timeout: float) -> tuple[int, bytes, dict]:
    """(status, reply, headers) of one HTTP/1.1 exchange, for any status.

    It goes out on the idle connection if that one leads to url's
    server, else on a new one, and the connection is kept idle after a
    reply read in full that does not close it. A kept connection that
    the server closed while idle fails before any status line arrives;
    then, and only then, the request goes once more on a new connection.
    Any other failure, or a url that is not http://, raises
    TransportError.
    """
    parts = urllib.parse.urlsplit(url)
    try:
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError("only http:// URLs are supported")
        address = (parts.hostname, parts.port or 80)
    except ValueError as exc:
        raise TransportError(f"{method} {url}: {exc}") from exc
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    headers = {} if body is None else {"Content-Type":
                                       "application/octet-stream"}
    conn = _take_idle(address)
    while True:
        reused = conn is not None
        if conn is None:
            conn = http.client.HTTPConnection(*address, timeout=timeout)
        else:
            conn.sock.settimeout(timeout)
        resp = None
        try:
            conn.request(method, target, body=body, headers=headers)
            resp = conn.getresponse()
            reply = resp.read()
            break
        except (http.client.HTTPException, OSError) as exc:
            conn.close()
            # RemoteDisconnected is a ConnectionResetError.
            if not (reused and resp is None and isinstance(
                    exc, (BrokenPipeError, ConnectionResetError))):
                raise TransportError(f"{method} {url}: {exc!r}") from exc
            conn = None
    if resp.will_close:
        conn.close()
    else:
        _put_idle(address, conn)
    return resp.status, reply, dict(resp.headers)


def _post(url: str, body: bytes, timeout: float) -> tuple[int, bytes, dict]:
    """(status, reply, headers) for any HTTP status. A peer that cannot be
    reached, times out or breaks HTTP raises TransportError."""
    return _exchange("POST", url, body, timeout)


def request_entropy(identity: ClientIdentity, server_url: str,
                    delta_s: int, *,
                    clock: Clock = system_clock_ms,
                    max_delta_s: int = wire.DEFAULT_MAX_DELTA_S,
                    retries: int = DEFAULT_RETRIES,
                    timeout: float = DEFAULT_TIMEOUT_S,
                    sleep=time.sleep) -> bytes:
    """End-to-end fetch: build, POST, verify.

    Retries only on throttling (server-guided delay) and transport
    failures, never on verification failures.
    """
    url = server_url.rstrip("/") + "/v1/entropy"
    last_error: Exception | None = None
    delay = 0.0
    for attempt in range(retries):
        if attempt:
            sleep(delay)    # only ever before another attempt
        body, t1 = build_request(identity, delta_s, clock=clock,
                                 max_delta_s=max_delta_s)
        try:
            status, reply, headers = _post(url, body, timeout)
        except TransportError as exc:
            last_error = exc
            log.warning("transport failure (attempt %d): %s",
                        attempt + 1, exc)
            delay = 0.2 * (attempt + 1)
            continue
        if status == 429:
            # Retry-After is unauthenticated: only a finite, non-negative
            # delay is honoured, and at most MAX_RETRY_AFTER_S of it.
            value = headers.get("Retry-After", "1")
            try:
                delay = float(value)
            except ValueError:
                delay = math.nan
            if not math.isfinite(delay) or delay < 0:
                raise TransportError(f"bad Retry-After {value[:32]!r}")
            delay = min(delay, MAX_RETRY_AFTER_S)
            log.info("throttled (attempt %d), Retry-After %.1fs",
                     attempt + 1, delay)
            last_error = TransportError("throttled")
            continue
        if status != 200:
            raise TransportError(
                f"server returned {status}: {reply[:64]!r}")
        return verify_response(reply, t1=t1, delta_s=delta_s,
                               server_public=identity.server_public,
                               secret_key=identity.keypair.secret,
                               now=clock())
    raise TransportError(f"retry budget exhausted: {last_error}") \
        from last_error


def fetch_server_pubkey(server_url: str,
                        timeout: float = DEFAULT_TIMEOUT_S) -> bytes:
    url = server_url.rstrip("/") + "/v1/pubkey"
    status, reply, _ = _exchange("GET", url, None, timeout)
    if status != 200:
        raise TransportError(f"server key fetch returned {status}")
    return reply


def verify_quote(quote: wire.AttestationQuote | bytes, *, nonce: bytes,
                 expected_sm: bytes, expected_ta: bytes,
                 attestation_pk: rsa.RSAPublicKey) -> None:
    """Accept iff the signature is valid, the nonce echoes, and both
    measurements match. Raises QuoteRejected(reason) otherwise."""
    if isinstance(quote, bytes):
        quote = wire.decode_quote(quote)
    if not crypto.verify(attestation_pk, crypto.QUOTE_TAG,
                         crypto.quote_signing_bytes(
                             quote.nonce, quote.sm_measurement,
                             quote.ta_measurement, quote.quote_time),
                         quote.signature):
        raise QuoteRejected("sig")
    if quote.nonce != nonce:
        raise QuoteRejected("nonce")
    if (quote.sm_measurement != expected_sm
            or quote.ta_measurement != expected_ta):
        raise QuoteRejected("measurement")


def request_attestation(server_url: str, *, expected_sm: bytes,
                        expected_ta: bytes,
                        attestation_pk: rsa.RSAPublicKey,
                        rng: crypto.Rng = os.urandom,
                        timeout: float = DEFAULT_TIMEOUT_S,
                        ) -> wire.AttestationQuote:
    """Challenge the server with a fresh nonce and verify its quote under
    attestation_pk, a key the caller already trusts (a device's pinned
    server key), never one the attested server hands out."""
    nonce = rng(wire.QUOTE_NONCE_LEN)
    url = server_url.rstrip("/") + "/v1/attest"
    status, reply, _ = _post(url, nonce, timeout)
    if status != 200:
        raise TransportError(f"attestation returned {status}")
    quote = wire.decode_quote(reply)
    verify_quote(quote, nonce=nonce, expected_sm=expected_sm,
                 expected_ta=expected_ta, attestation_pk=attestation_pk)
    return quote


# --- CLI --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="eaas-client",
                                     description="EaaS IoT client")
    sub = parser.add_subparsers(dest="command", required=True)

    p_prov = sub.add_parser("provision", help="create or load an identity")
    p_prov.add_argument("--store", required=True, type=Path)
    p_prov.add_argument("--server-key", type=Path,
                        help="DER or PEM server public key to pin")

    p_fetch = sub.add_parser("fetch", help="request entropy")
    p_fetch.add_argument("--store", required=True, type=Path)
    p_fetch.add_argument("--url", required=True)
    p_fetch.add_argument("--bytes", required=True, type=int, dest="n_bytes")
    p_fetch.add_argument("--out", type=Path,
                         help="write raw bytes here instead of hex stdout")
    p_fetch.add_argument("--max-delta-s", type=int,
                         default=wire.DEFAULT_MAX_DELTA_S)

    p_att = sub.add_parser("attest", help="challenge the server")
    p_att.add_argument("--store", required=True, type=Path,
                       help="identity store whose pinned server key "
                            "must sign the quote")
    p_att.add_argument("--url", required=True)
    p_att.add_argument("--expect-ta", required=True,
                       help="expected TA measurement, 64 hex chars")
    p_att.add_argument("--expect-sm", required=True,
                       help="expected platform measurement, 64 hex chars")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    if args.command == "provision":
        identity = provision(args.store, args.server_key)
        print(f"identity fingerprint: {identity.fingerprint.hex()}")
        return 0

    if args.command == "fetch":
        identity = provision(args.store)
        entropy = request_entropy(identity, args.url, args.n_bytes,
                                  max_delta_s=args.max_delta_s)
        if args.out:
            args.out.write_bytes(entropy)
            print(f"wrote {len(entropy)} bytes to {args.out}")
        else:
            print(entropy.hex())
        return 0

    # attest
    quote = request_attestation(
        args.url,
        expected_sm=bytes.fromhex(args.expect_sm),
        expected_ta=bytes.fromhex(args.expect_ta),
        attestation_pk=provision(args.store).server_public)
    print(f"quote accepted: time={quote.quote_time} "
          f"ta={quote.ta_measurement.hex()[:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main())
