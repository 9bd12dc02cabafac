"""Untrusted CA-side service: HTTP transport, throttling, and dispatch
into the trusted core.

The client application reads only the 32-byte fingerprint hint at the
front of the request body, to throttle on it; the whole body goes to the
TA, which decodes and checks the signed request behind the hint.
Endpoints:

    POST /v1/entropy   hint(32) || request  -> response envelope
    POST /v1/attest    nonce(32)            -> encoded quote
    GET  /v1/pubkey    -> DER public key

Bodies are raw binary (application/octet-stream). Logs never contain key
material or plaintext entropy.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import socket
import sys
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from . import crypto, wire
from .config import ServerConfig, load_config
from .errors import BindFailure, InvalidKey, KeyLoadFailure
from .pool import (Clock, EntropyPool, monotonic_clock_ms,
                   system_clock_ceil_ms)
from .sources import register_sources
from .trusted import TaCommand, TaStatus, TrustedApplication, encode_command

log = logging.getLogger("eaas.server")

OCTET_STREAM = "application/octet-stream"

# Total mapping from TA error codes to HTTP status and error token.
STATUS_MAP: dict[TaStatus, tuple[int, str]] = {
    TaStatus.UNKNOWN_COMMAND: (500, "internal"),
    TaStatus.MALFORMED: (400, "malformed"),
    TaStatus.BAD_SIGNATURE: (400, "bad-signature"),
    TaStatus.FIELD_OUT_OF_RANGE: (400, "field-out-of-range"),
    TaStatus.HINT_MISMATCH: (400, "hint-mismatch"),
    TaStatus.ENTROPY_DEPLETED: (503, "entropy-depleted"),
    TaStatus.NO_SOURCES: (503, "entropy-depleted"),
}


class ThrottleTable:
    """Per-fingerprint token buckets: capacity C, refill r tokens/second.

    Exact integer arithmetic, so simulated traces match a discrete-event
    oracle grant-for-grant: for C = a/b and r = p/q, a bucket counts
    tokens in units of 1/(1000*q*b) token, and an elapsed millisecond
    adds exactly p*b of them.

    A bucket that has refilled to capacity behaves exactly like an
    absent one, so whenever the table has doubled in size since the
    last sweep, every bucket that is full at the current time is
    dropped: memory stays proportional to the senders active within
    C/r seconds, at amortised O(1) per check.
    """

    def __init__(self, capacity: Fraction, refill_rate: Fraction):
        a, b = Fraction(capacity).as_integer_ratio()
        p, q = Fraction(refill_rate).as_integer_ratio()
        self._unit = 1000 * q * b      # units in one token
        self._capacity = 1000 * q * a
        self._per_ms = p * b
        # fingerprint -> (tokens in units, time of last refill in ms)
        self._buckets: dict[bytes, tuple[int, int]] = {}
        self._sweep_at = 2
        self._lock = threading.Lock()

    def check(self, fp: bytes, now_ms: int) -> tuple[bool, int]:
        """Refill by elapsed time, then try to consume one token.

        Returns (allowed, retry_after_seconds); a deny consumes nothing.
        """
        with self._lock:
            bucket = self._buckets.get(fp)
            if bucket is None:
                if len(self._buckets) >= self._sweep_at:
                    self._evict_full(now_ms)
                tokens, last = self._capacity, now_ms
            else:
                tokens, last = bucket
            if now_ms > last:   # a clock stepping backwards never refills
                tokens = min(self._capacity,
                             tokens + (now_ms - last) * self._per_ms)
                last = now_ms
            if tokens < self._unit:
                self._buckets[fp] = (tokens, last)
                deficit = self._unit - tokens
                return False, -(-deficit // (1000 * self._per_ms))
            self._buckets[fp] = (tokens - self._unit, last)
            return True, 0

    def _evict_full(self, now_ms: int) -> None:
        self._buckets = {
            fp: (tokens, last) for fp, (tokens, last) in self._buckets.items()
            if tokens + max(now_ms - last, 0) * self._per_ms < self._capacity}
        self._sweep_at = 2 * max(len(self._buckets), 1)


class EntropyService:
    """Transport-agnostic request handling; the HTTP layer and the
    in-process harness both drive this object. It logs nothing: the HTTP
    layer writes each entropy request's line once the reply is out."""

    def __init__(self, config: ServerConfig, ta: TrustedApplication,
                 clock: Clock = monotonic_clock_ms):
        self._config = config
        self._ta = ta
        self._clock = clock
        self._throttle = ThrottleTable(config.throttle_capacity,
                                       config.throttle_refill_rate)
        self.counters = {"allowed": 0, "throttled": 0, "depleted": 0,
                         "rejected": 0}
        self._counters_lock = threading.Lock()   # handler threads share it

    def _count(self, outcome: str) -> None:
        with self._counters_lock:
            self.counters[outcome] += 1

    def pubkey_der(self) -> bytes:
        reply = self._ta.ta_invoke(encode_command(TaCommand.GET_PUBKEY))
        return reply[1:]

    def handle_entropy(self, body: bytes) -> tuple[int, bytes, dict]:
        if len(body) < wire.FINGERPRINT_LEN:
            self._count("rejected")
            return 400, b"malformed", {}
        hint = body[:wire.FINGERPRINT_LEN]
        allowed, retry_after = self._throttle.check(hint, self._clock())
        if not allowed:
            self._count("throttled")
            return 429, b"throttled", {"Retry-After": str(retry_after)}
        reply = self._ta.ta_invoke(
            encode_command(TaCommand.HANDLE_REQUEST, body))
        status = TaStatus(reply[0])
        if status is TaStatus.OK:
            self._count("allowed")
            return 200, reply[1:], {}
        http_status, token = STATUS_MAP[status]
        self._count("depleted" if http_status == 503 else "rejected")
        return http_status, token.encode(), {}

    def handle_attest(self, body: bytes) -> tuple[int, bytes, dict]:
        reply = self._ta.ta_invoke(encode_command(TaCommand.ATTEST, body))
        status = TaStatus(reply[0])
        if status is TaStatus.OK:
            return 200, reply[1:], {}
        http_status, token = STATUS_MAP[status]
        return http_status, token.encode(), {}


def load_or_create_keypair(key_file: Path | None) -> crypto.KeyPair:
    """Load the server identity, generating and persisting it on first
    boot when a path is configured but absent."""
    if key_file is None:
        return crypto.generate_keypair()
    if key_file.exists():
        try:
            keypair = crypto.load_private_key(key_file.read_bytes())
        except InvalidKey as exc:
            raise KeyLoadFailure(f"{key_file}: {exc}") from exc
        return keypair
    keypair = crypto.generate_keypair()
    key_file.parent.mkdir(parents=True, exist_ok=True)
    crypto.write_private_key(key_file, keypair)
    log.info("generated new identity key at %s fp=%s", key_file,
             wire.fingerprint(keypair.public_der)[:8].hex())
    return keypair


def build_stack(config: ServerConfig, clock: Clock | None = None, *,
                keypair: crypto.KeyPair | None = None,
                rng: crypto.Rng = os.urandom,
                ) -> tuple[EntropyPool, TrustedApplication, EntropyService]:
    """Assemble pool, trusted application, and service from config: the
    one place an in-process server is wired.

    An injected clock drives all three, as in simulation. Without one,
    the TA stamps t2 and quote times with wall time rounded up, and the
    work bounds (source allowance, harvest deadline, throttle) run on a
    monotonic clock, which a wall-clock step does not move. A keypair
    given here is used instead of config.key_file; rng is the TA's
    nonce source.
    """
    if clock is None and config.clock_mode == "injected":
        raise KeyLoadFailure("clock = injected requires a programmatic clock")
    keypair = keypair or load_or_create_keypair(config.key_file)
    pool = EntropyPool(clock or monotonic_clock_ms)
    register_sources(pool, config.sources)
    ta = TrustedApplication(
        keypair, pool,
        sm_measurement=config.sm_measurement,
        clock=clock or system_clock_ceil_ms,
        rng=rng,
        max_delta_s=config.max_delta_s,
        harvest_deadline_ms=config.harvest_deadline_ms)
    return pool, ta, EntropyService(config, ta, clock or monotonic_clock_ms)


def build_service(config: ServerConfig,
                  clock: Clock | None = None) -> EntropyService:
    """The service of build_stack(config, clock)."""
    return build_stack(config, clock)[2]


def _log_entropy(fp: str, status: int, reply: bytes, headers: dict) -> None:
    """The INFO line of one entropy request: the hint's first 4 bytes in
    hex, and the outcome."""
    if status == 200:
        log.info("served fp=%s bytes=%d", fp, len(reply))
    elif status == 429:
        log.info("throttled fp=%s retry_after=%ss", fp,
                 headers.get("Retry-After"))
    else:
        log.info("refused fp=%s error=%s", fp,
                 reply.decode("ascii", "replace"))


class _Handler(BaseHTTPRequestHandler):
    # Each reply leaves in one write, and Nagle is off (TCP_NODELAY on
    # every accepted socket, so stdlib error replies go at once too). A
    # reply in two writes would stall every later reply on a kept-alive
    # connection: Nagle holds the second write until the client's delayed
    # ACK of the first, about 40 ms.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # Socket timeout in seconds: an idle kept-alive connection is closed,
    # and a body that stops short of its Content-Length gets 408.
    timeout = 10

    def _reply(self, status: int, body: bytes, headers: dict) -> None:
        """Send the reply in one write; a peer that has gone just ends
        the connection."""
        try:
            self._headers_buffer = []
            self.send_response(status)
            self.send_header("Content-Type", OCTET_STREAM)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            if self.request_version != "HTTP/0.9":   # 0.9: the body alone
                self._headers_buffer.append(b"\r\n")
            self._headers_buffer.append(body)
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        """Read a body of strict Content-Length (digits, <= MAX_BODY_LEN);
        else reply 400 or 413 unread, or 408 if the body does not arrive
        within the timeout, close, and return None."""
        value = self.headers.get("Content-Length", "0")
        if not (value.isascii() and value.isdigit()):
            self._reply(400, b"malformed", {"Connection": "close"})
            return None
        digits = value.lstrip("0") or "0"
        # Length check first: int() refuses strings over 4300 digits.
        if (len(digits) > len(str(wire.MAX_BODY_LEN))
                or int(digits) > wire.MAX_BODY_LEN):
            self._reply(413, b"too-large", {"Connection": "close"})
            return None
        try:
            return self.rfile.read(int(digits))
        except TimeoutError:
            self._reply(408, b"timeout", {"Connection": "close"})
            return None

    def do_GET(self):
        if self.path == "/v1/pubkey":
            self._reply(200, self.server.service.pubkey_der(), {})
        else:
            self._reply(404, b"not-found", {})

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        if self.path == "/v1/entropy":
            status, reply, headers = self.server.service.handle_entropy(body)
        elif self.path == "/v1/attest":
            status, reply, headers = self.server.service.handle_attest(body)
        else:
            status, reply, headers = 404, b"not-found", {}
        self._reply(status, reply, headers)
        # Logged once the reply is out, so the device does not wait for
        # it. A body too short to hold a hint is not logged.
        if self.path == "/v1/entropy" and len(body) >= wire.FINGERPRINT_LEN:
            _log_entropy(body[:4].hex(), status, reply, headers)

    def log_message(self, fmt, *args):
        log.debug("http " + fmt, *args)


class _HttpServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer whose close ends its kept-alive connections:
    server_close joins every handler thread, and an idle connection's
    handler would otherwise wait out its timeout. Shutting the read side
    ends the wait for a next request, while a reply being served still
    goes out."""

    def __init__(self, *args):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        super().server_close()


class TesServer:
    """Running HTTP service wrapper with graceful shutdown."""

    def __init__(self, config: ServerConfig,
                 service: EntropyService | None = None):
        self.service = service or build_service(config)
        try:
            self._httpd = _HttpServer(
                (config.listen_host, config.listen_port), _Handler)
        except OSError as exc:
            raise BindFailure(
                f"{config.listen_host}:{config.listen_port}: {exc}") from exc
        self._httpd.service = self.service
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        log.info("listening on %s", self.url)

    def serve_forever(self) -> None:
        log.info("listening on %s", self.url)
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()


def serve(config: ServerConfig) -> TesServer:
    """Build and start a server in a background thread."""
    server = TesServer(config)
    server.start()
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tes-server", description="Trusted entropy server")
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)

    logging.basicConfig(level=args.log_level.upper(),
                        format="%(asctime)s %(name)s %(message)s")
    config = load_config(args.config)
    server = TesServer(config)

    def _stop(signum, frame):
        log.info("signal %d, shutting down", signum)
        threading.Thread(target=server.shutdown).start()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
