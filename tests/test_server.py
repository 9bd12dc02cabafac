"""Server tests: throttle arithmetic, status mapping, config parsing,
and HTTP integration on an ephemeral port."""

from __future__ import annotations

import ast
import http.client
import logging
import os
import socket
import stat
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_stack
from eaas import client as client_mod
from eaas import crypto, wire
from eaas import server as server_module
from eaas.config import (
    DEFAULT_PLATFORM_MEASUREMENT,
    ServerConfig,
    apply_env_overrides,
    load_config,
    parse_config,
)
from eaas.errors import (
    BindFailure,
    ConfigError,
    EntropyDepleted,
    KeyLoadFailure,
)
from eaas.harness import SimClock
from eaas.pool import EntropyPool, monotonic_clock_ms, system_clock_ceil_ms
from eaas.server import (
    STATUS_MAP,
    EntropyService,
    TesServer,
    ThrottleTable,
    _Handler,
    build_service,
    build_stack,
    load_or_create_keypair,
)
from eaas.sources import SourceSpec, register_sources
from eaas.trusted import TaStatus, TrustedApplication
from test_trusted import build_body


class TestThrottle:
    def test_burst_then_deny(self):
        table = ThrottleTable(Fraction(5), Fraction(1))
        fp = b"\x01" * 32
        for _ in range(5):
            allowed, _ = table.check(fp, now_ms=0)
            assert allowed
        allowed, retry_after = table.check(fp, now_ms=0)
        assert not allowed
        assert retry_after == 1   # ceil((1 - 0) / 1)

    def test_refill_after_one_second(self):
        table = ThrottleTable(Fraction(5), Fraction(1))
        fp = b"\x02" * 32
        for _ in range(5):
            table.check(fp, now_ms=0)
        assert table.check(fp, now_ms=0)[0] is False
        assert table.check(fp, now_ms=1000)[0] is True

    def test_deny_consumes_nothing(self):
        table = ThrottleTable(Fraction(1), Fraction(1))
        fp = b"\x03" * 32
        assert table.check(fp, now_ms=0)[0] is True
        # repeated denials at +999 ms never eat the accumulating fraction
        for _ in range(3):
            assert table.check(fp, now_ms=999)[0] is False
        assert table.check(fp, now_ms=1000)[0] is True

    def test_retry_after_is_ceiling(self):
        table = ThrottleTable(Fraction(5), Fraction(1, 2))  # r = 0.5/s
        fp = b"\x04" * 32
        for _ in range(5):
            table.check(fp, now_ms=0)
        _, retry_after = table.check(fp, now_ms=0)
        assert retry_after == 2   # ceil((1 - 0) / 0.5)

    def test_distinct_fingerprints_independent(self):
        table = ThrottleTable(Fraction(1), Fraction(1))
        assert table.check(b"\x05" * 32, now_ms=0)[0] is True
        assert table.check(b"\x06" * 32, now_ms=0)[0] is True
        assert table.check(b"\x05" * 32, now_ms=0)[0] is False

    def test_burst_pattern_matches_bucket_arithmetic(self):
        """Burst of 20 at t=0 then one per 500 ms: grants are exactly
        C + floor(elapsed / 1000) with C=5, r=1."""
        table = ThrottleTable(Fraction(5), Fraction(1))
        fp = b"\x07" * 32
        granted = sum(table.check(fp, now_ms=0)[0] for _ in range(20))
        assert granted == 5
        for k in range(1, 21):
            t = 500 * k
            allowed, _ = table.check(fp, now_ms=t)
            expected_total = 5 + t // 1000
            granted += allowed
            assert granted == expected_total


class FractionThrottle:
    """Reference: the token bucket in exact rationals, never evicting."""

    def __init__(self, capacity: Fraction, refill_rate: Fraction):
        self.capacity = Fraction(capacity)
        self.refill_rate = Fraction(refill_rate)
        self.buckets: dict[bytes, list] = {}

    def check(self, fp: bytes, now_ms: int) -> tuple[bool, int]:
        bucket = self.buckets.setdefault(fp, [self.capacity, now_ms])
        elapsed = now_ms - bucket[1]
        if elapsed > 0:
            bucket[0] = min(self.capacity,
                            bucket[0] + self.refill_rate
                            * Fraction(elapsed, 1000))
            bucket[1] = now_ms
        if bucket[0] >= 1:
            bucket[0] -= 1
            return True, 0
        deficit = (1 - bucket[0]) / self.refill_rate
        return False, -(-deficit.numerator // deficit.denominator)


RATIONALS = st.sampled_from([Fraction(1, 2), Fraction(5, 3), Fraction(8),
                             Fraction(1000), Fraction(7, 1000)])


class TestThrottleArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(capacity=RATIONALS, refill=RATIONALS,
           events=st.lists(st.tuples(st.integers(0, 1),
                                     st.integers(-3000, 3000)),
                           max_size=200))
    def test_matches_fraction_reference(self, capacity, refill, events):
        """Integer units give the same (allowed, retry_after) as exact
        rationals, clock steps backwards included. Two hints never fill
        the table to its first sweep; eviction is tested below."""
        table = ThrottleTable(capacity, refill)
        reference = FractionThrottle(capacity, refill)
        now = 10_000
        for hint, step in events:
            now += step
            fp = bytes([hint]) * 32
            assert table.check(fp, now) == reference.check(fp, now)

    @settings(max_examples=200, deadline=None)
    @given(capacity=RATIONALS, refill=RATIONALS,
           events=st.lists(st.tuples(st.integers(0, 40),
                                     st.sampled_from([0, 0, 1, 7, 250,
                                                      1000, 4000])),
                           max_size=300))
    def test_eviction_matches_non_evicting_table(self, capacity, refill,
                                                 events):
        """On a non-decreasing clock, dropping full buckets changes no
        grant and no Retry-After."""
        table = ThrottleTable(capacity, refill)
        reference = FractionThrottle(capacity, refill)
        now = 0
        for hint, step in events:
            now += step
            fp = bytes([hint]) * 32
            assert table.check(fp, now) == reference.check(fp, now)

    def test_rotating_hints_hold_constant_memory(self):
        """1,000 hints, each arriving capacity/refill seconds after the
        last: every earlier bucket is full again, so none is kept."""
        table = ThrottleTable(Fraction(5), Fraction(1))
        for i in range(1000):
            assert table.check(i.to_bytes(32, "big"), 5000 * i)[0]
        assert len(table._buckets) <= 2

    def test_memory_follows_active_senders(self):
        """A burst of 1,000 hints, then 100 more after the first have
        refilled: the sweep that the growth triggers drops the first."""
        table = ThrottleTable(Fraction(5), Fraction(1))
        for i in range(1000):
            table.check(i.to_bytes(32, "big"), 0)
        for i in range(1000, 1100):
            table.check(i.to_bytes(32, "big"), 5000)
        assert len(table._buckets) < 200

    def test_evicted_hint_after_backward_step_starts_full(self):
        """Wall time can step backwards: a hint evicted as full starts
        again from a full bucket, as a fresh identity would."""
        table = ThrottleTable(Fraction(2), Fraction(1))
        spent = b"\x01" * 32
        assert [table.check(spent, 0)[0] for _ in range(3)] == [
            True, True, False]
        for i in range(2, 6):   # grow the table into a sweep at t = 2 s
            table.check(bytes([i]) * 32, 2000)
        assert spent not in table._buckets
        grants = [table.check(spent, 1000)[0] for _ in range(3)]
        assert grants == [True, True, False]


class TestStatusMapping:
    def test_every_error_code_mapped_once(self):
        unmapped = [s for s in TaStatus
                    if s is not TaStatus.OK and s not in STATUS_MAP]
        assert unmapped == []

    def test_mapped_statuses_are_http(self):
        for status, (code, token) in STATUS_MAP.items():
            assert code in (400, 429, 500, 503)
            assert token


class TestEntropyService:
    def test_short_body_is_malformed(self, stack):
        _, _, _, service = stack
        status, body, _ = service.handle_entropy(b"too short")
        assert (status, body) == (400, b"malformed")

    def test_valid_request_served(self, stack, server_keypair,
                                  client_keypair):
        clock, _, _, service = stack
        body = build_body(client_keypair, server_keypair.public)
        clock.advance(1)
        status, reply, _ = service.handle_entropy(body)
        assert status == 200
        env = wire.decode_envelope(reply)
        assert env.sigma2 is not None

    def test_throttled_request_gets_retry_after(self, server_keypair,
                                                client_keypair):
        clock, _, _, service = make_stack(server_keypair,
                                          capacity=Fraction(1))
        body = build_body(client_keypair, server_keypair.public)
        clock.advance(1)
        assert service.handle_entropy(body)[0] == 200
        status, reply, headers = service.handle_entropy(body)
        assert (status, reply) == (429, b"throttled")
        assert headers["Retry-After"] == "1"
        assert service.counters["throttled"] == 1

    def test_bad_signature_maps_400(self, stack, server_keypair,
                                    client_keypair):
        clock, _, _, service = stack
        pub_der = crypto.public_key_der(client_keypair.public)
        sigma1 = crypto.sign(client_keypair.secret, crypto.REQUEST_TAG,
                             crypto.request_signing_bytes(pub_der, 7))
        body = wire.fingerprint(pub_der) + wire.encode_request(
            wire.EntropyRequest(client_pub_key=pub_der, delta_s=8,
                                sigma1=sigma1))
        status, reply, _ = service.handle_entropy(body)
        assert (status, reply) == (400, b"bad-signature")

    def test_depleted_maps_503(self, server_keypair, client_keypair):
        clock, _, _, service = make_stack(
            server_keypair, capacity=Fraction(100),
            n_sources=1, max_rate=Fraction(64))
        body = build_body(client_keypair, server_keypair.public,
                          delta_s=2048)
        status, reply, _ = service.handle_entropy(body)
        assert (status, reply) == (503, b"entropy-depleted")
        assert service.counters["depleted"] == 1

    def test_counters_exact_under_threads(self):
        """Four handler threads, a short switch interval: no increment
        of the shared counters is lost."""
        class StubTa:
            def ta_invoke(self, command):
                return bytes([TaStatus.OK]) + b"entropy"

        config = ServerConfig(throttle_capacity=Fraction(10 ** 9))
        service = EntropyService(config, StubTa(), clock=lambda: 0)
        rounds = 2000

        def work(i):
            for _ in range(rounds):
                service.handle_entropy(b"short")
                service.handle_entropy(bytes([i]) * 32 + b"request")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert service.counters == {"allowed": 4 * rounds, "throttled": 0,
                                    "depleted": 0, "rejected": 4 * rounds}


SAMPLE_CONFIG = """
# sample
listen = 127.0.0.1:9731
max_delta_s = 2048
throttle_capacity = 7
throttle_refill_rate = 1/2
harvest_deadline_ms = 1500
source.cam.kind = simulated-sensor
source.cam.density = 3/4
source.cam.max_rate = 65536
source.cam.seed = 11
source.osrng.kind = os-random
source.osrng.density = 0.5
source.osrng.max_rate = 1048576
"""


class TestConfig:
    def test_parse_sample(self):
        cfg = parse_config(SAMPLE_CONFIG)
        assert (cfg.listen_host, cfg.listen_port) == ("127.0.0.1", 9731)
        assert cfg.max_delta_s == 2048
        assert cfg.throttle_refill_rate == Fraction(1, 2)
        assert {s.source_id for s in cfg.sources} == {"cam", "osrng"}
        cam = next(s for s in cfg.sources if s.source_id == "cam")
        assert cam.density == Fraction(3, 4)
        assert cam.params["seed"] == "11"

    def test_env_overrides(self):
        cfg = parse_config(SAMPLE_CONFIG)
        cfg = apply_env_overrides(cfg, {"EAAS_LISTEN": "0.0.0.0:8001",
                                        "EAAS_MAX_DELTA_S": "512"})
        assert (cfg.listen_host, cfg.listen_port) == ("0.0.0.0", 8001)
        assert cfg.max_delta_s == 512

    @pytest.mark.parametrize("line", [
        "max_delta_s = -5",
        "throttle_capacity = 0",
        "nonsense_key = 1",
        "source.x.kind = warp-drive",
        "source.x.bogus = 1",
        "listen = nocolon",
        "clock = lunar",
    ])
    def test_invalid_configs_rejected(self, line):
        with pytest.raises(ConfigError):
            cfg = parse_config(line + "\n")

    @pytest.mark.parametrize("kind, line", [
        ("simulated-sensor", "seed = abc"),
        ("constant", "value = zz"),
        ("constant", "value = 256"),
        ("constant", "value = -1"),
        ("file-replay", "path = {tmp}/missing"),
        ("file-replay", "path = {tmp}"),
    ])
    def test_bad_source_parameter_names_its_line(self, tmp_path, kind,
                                                 line):
        """Rejected with its line number here, not as a ValueError or
        FileNotFoundError once build_service makes the generator."""
        text = (f"source.x.kind = {kind}\n"
                f"source.x.{line.format(tmp=tmp_path)}\n")
        with pytest.raises(ConfigError, match="^line 2: source x "):
            parse_config(text)

    def test_good_source_parameters_parse(self, tmp_path):
        (tmp_path / "tape.bin").write_bytes(b"\x01\x02")
        cfg = parse_config("source.c.kind = constant\n"
                           "source.c.value = 0x5a\n"
                           "source.f.kind = file-replay\n"
                           "source.f.path = tape.bin\n",
                           base_dir=tmp_path)
        assert [s.params for s in cfg.sources] == [
            {"value": "0x5a"}, {"path": str(tmp_path / "tape.bin")}]

    @pytest.mark.parametrize("line", [
        "max_delta_s = abc",
        "max_delta_s = -5",
        "throttle_capacity = 0",
        "listen = h:99999",
        "clock = lunar",
        "sm_measurement = abcd",
        "source.x.density = 2",
        "source.x.max_rate = abc",
    ])
    def test_bad_value_names_its_line(self, line):
        """Each value is checked on the line that sets it, so a range
        error names that line too; sm_measurement = abcd would otherwise
        parse and fail in build_service."""
        with pytest.raises(ConfigError, match="^line 2: "):
            parse_config(f"source.x.kind = os-random\n{line}\n")

    def test_errors_known_at_the_end_name_the_source(self):
        with pytest.raises(ConfigError, match="^source x: missing kind$"):
            parse_config("source.x.density = 1/2\n")
        with pytest.raises(ConfigError, match="^source x: file-replay "
                                              "needs a path$"):
            parse_config("source.x.kind = file-replay\n")

    def test_empty_replay_file_names_its_line(self, tmp_path):
        """Refused as make_generator refuses it, at load rather than in
        build_service."""
        (tmp_path / "empty.bin").write_bytes(b"")
        with pytest.raises(ConfigError, match="^line 2: source x path: "):
            parse_config("source.x.kind = file-replay\n"
                         "source.x.path = empty.bin\n", base_dir=tmp_path)

    def test_env_override_names_its_variable(self):
        with pytest.raises(ConfigError, match="^EAAS_MAX_DELTA_S: "):
            apply_env_overrides(parse_config(""), {"EAAS_MAX_DELTA_S": "-1"})

    def test_shipped_sample_loads(self, monkeypatch):
        monkeypatch.delenv("EAAS_LISTEN", raising=False)
        monkeypatch.delenv("EAAS_MAX_DELTA_S", raising=False)
        scripts = Path(__file__).parents[1] / "scripts"
        cfg = load_config(scripts / "sample-server.conf")
        assert (cfg.listen_host, cfg.listen_port) == ("127.0.0.1", 8639)
        assert cfg.key_file == scripts / "tes_key.der"
        assert {s.source_id for s in cfg.sources} == {"osrng", "sensor"}

    def test_load_config_resolves_relative_paths(self, tmp_path):
        (tmp_path / "tes.conf").write_text(
            "key_file = keys/tes.der\n"
            "source.o.kind = os-random\n")
        cfg = load_config(tmp_path / "tes.conf")
        assert cfg.key_file == tmp_path / "keys" / "tes.der"


class TestKeyPersistence:
    def test_generate_and_reload(self, tmp_path):
        path = tmp_path / "tes_key.der"
        first = load_or_create_keypair(path)
        assert path.exists()
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        second = load_or_create_keypair(path)
        assert first.public_der == second.public_der

    def test_corrupt_key_file(self, tmp_path):
        path = tmp_path / "tes_key.der"
        path.write_bytes(b"\x30\x82truncated")
        with pytest.raises(KeyLoadFailure):
            load_or_create_keypair(path)


@pytest.fixture
def http_server(tmp_path):
    cfg = ServerConfig(
        listen_host="127.0.0.1", listen_port=0,
        key_file=tmp_path / "tes_key.der",
        throttle_capacity=Fraction(100),
        sources=[SourceSpec("os0", "os-random", Fraction(1, 2),
                            Fraction(1 << 20))])
    server = TesServer(cfg)
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def handler_io(monkeypatch):
    """Record each write to a handler's socket and each accepted
    socket's TCP_NODELAY: ([bytes written], [option value])."""
    writes, nodelay = [], []
    setup = _Handler.setup

    def recording_setup(handler):
        setup(handler)
        nodelay.append(handler.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))
        write = handler.wfile.write

        def recording_write(data):
            writes.append(bytes(data))
            return write(data)

        handler.wfile.write = recording_write

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    return writes, nodelay


class TestHttp:
    def test_pubkey_endpoint(self, http_server):
        der = client_mod.fetch_server_pubkey(http_server.url)
        crypto.load_public_key(der)

    def test_entropy_roundtrip(self, http_server, tmp_path):
        identity = client_mod.provision(
            tmp_path / "store",
            client_mod.fetch_server_pubkey(http_server.url))
        entropy = client_mod.request_entropy(identity, http_server.url, 48)
        assert len(entropy) == 48

    def test_malformed_body_400(self, http_server):
        status, body, _ = client_mod._post(
            http_server.url + "/v1/entropy", b"junk", 5)
        assert (status, body) == (400, b"malformed")

    @pytest.mark.parametrize("length, status, token", [
        ("abc", 400, b"malformed"),
        ("-1", 400, b"malformed"),
        ("100000000000", 413, b"too-large"),
        pytest.param("9" * 5000, 413, b"too-large",     # past int()'s
                     id="5000-digits-413-too-large"),   # digit limit
    ])
    def test_bad_content_length_refused_and_closed(self, http_server, length,
                                                   status, token):
        """Refused before any body is read, then closed: the read below
        ends at the server's close, or fails at the socket timeout."""
        head = ("POST /v1/entropy HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n").encode()
        with socket.create_connection(http_server.address, timeout=5) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert reply.endswith(b"\r\n\r\n" + token)

    def test_short_body_gets_408_at_timeout(self, http_server, monkeypatch):
        """A body that stops short of its Content-Length no longer parks
        the handler: 408 once the socket timeout passes, then close."""
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        head = ("POST /v1/entropy HTTP/1.1\r\nHost: test\r\n"
                "Content-Length: 10\r\n\r\n12345").encode()
        with socket.create_connection(http_server.address, timeout=5) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert reply.endswith(b"\r\n\r\ntimeout")

    def test_vanished_peer_is_not_a_server_error(self, tmp_path,
                                                 monkeypatch):
        """The peer resets the connection while its request is served:
        the reply's failed write ends the connection quietly, without
        socketserver's error handler (and its traceback)."""
        errors, done = [], threading.Event()
        served, release = threading.Event(), threading.Event()
        shutdown_request = ThreadingHTTPServer.shutdown_request
        monkeypatch.setattr(ThreadingHTTPServer, "handle_error",
                            lambda self, request, addr: errors.append(addr))

        def finished(self, request):
            shutdown_request(self, request)
            done.set()

        monkeypatch.setattr(ThreadingHTTPServer, "shutdown_request",
                            finished)

        class GatedService:
            def handle_entropy(self, body):
                served.set()
                release.wait(5)
                return 200, b"\x00" * 65536, {}

        cfg = ServerConfig(listen_host="127.0.0.1", listen_port=0)
        server = TesServer(cfg, service=GatedService())
        server.start()
        try:
            sock = socket.create_connection(server.address, timeout=5)
            sock.sendall(b"POST /v1/entropy HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 4\r\n\r\nbody")
            assert served.wait(5)
            # linger 0: close sends a reset, so the reply's write fails
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            release.set()
            assert done.wait(5)
        finally:
            server.shutdown()
        assert errors == []

    def test_each_reply_is_one_write(self, http_server, handler_io):
        """Headers and body in separate writes stall every reply after
        the first on a kept-alive connection: Nagle holds the second
        write until the client's delayed ACK, about 40 ms."""
        writes, _ = handler_io
        conn = http.client.HTTPConnection(*http_server.address, timeout=5)
        bodies = []
        try:
            for method, path, body in [
                    ("GET", "/v1/pubkey", None), ("GET", "/nope", None),
                    ("POST", "/v1/entropy", b"short"),
                    ("POST", "/v1/entropy", b"\x00" * 200),
                    ("GET", "/v1/pubkey", None)]:
                conn.request(method, path, body=body)
                bodies.append(conn.getresponse().read())
        finally:
            conn.close()
        assert len(writes) == len(bodies)
        for write, body in zip(writes, bodies):
            assert write.startswith(b"HTTP/1.1 ")
            assert write.endswith(b"\r\n\r\n" + body)

    def test_accepted_socket_has_nagle_off(self, http_server, handler_io):
        _, nodelay = handler_io
        status, _, _ = client_mod._post(http_server.url + "/nope", b"", 5)
        assert status == 404
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_http_0_9_reply_is_the_body_alone(self, http_server):
        with socket.create_connection(http_server.address, timeout=5) as sock:
            sock.sendall(b"GET /nope\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply == b"not-found"

    def test_kept_alive_connection_answers_every_request(self, tmp_path):
        """Throttled replays, garbage envelopes and unknown routes, back
        to back on one connection: each is answered on it, and the
        service's counters equal the replies' tallies."""
        cfg = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            key_file=tmp_path / "k.der",
            throttle_capacity=Fraction(2),
            throttle_refill_rate=Fraction(1, 1000),   # glacial refill
            sources=[SourceSpec("os0", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        server = TesServer(cfg)
        server.start()
        try:
            identity = client_mod.provision(
                tmp_path / "store",
                client_mod.fetch_server_pubkey(server.url))
            replay, _ = client_mod.build_request(identity, 16)
            conn = http.client.HTTPConnection(*server.address, timeout=5)
            conn.connect()
            sock = conn.sock
            tallies = Counter()
            for i in range(20):
                kind = ("replay", "garbage", "nope")[i % 3]
                if kind == "nope":
                    conn.request("GET", "/nope")
                else:
                    body = (replay if kind == "replay"
                            else bytes([i]) * 32 + b"\x00" * 100)
                    conn.request("POST", "/v1/entropy", body=body)
                reply = conn.getresponse()
                reply.read()
                assert conn.sock is sock
                tallies[kind, reply.status] += 1
            conn.close()
            counters = dict(server.service.counters)
        finally:
            server.shutdown()
        assert tallies == {("replay", 200): 2, ("replay", 429): 5,
                           ("garbage", 400): 7, ("nope", 404): 6}
        assert counters == {"allowed": 2, "throttled": 5, "depleted": 0,
                            "rejected": 7}

    def test_shutdown_ends_idle_kept_alive_connections(self, tmp_path,
                                                       monkeypatch):
        """shutdown joins every handler thread; one waiting on an idle
        kept-alive connection is ended, not waited out to its timeout."""
        monkeypatch.setattr(_Handler, "timeout", 30)
        server = TesServer(ServerConfig(listen_host="127.0.0.1",
                                        listen_port=0))
        server.start()
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().read() == b"not-found"
            stopper = threading.Thread(target=server.shutdown, daemon=True)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            assert conn.sock.recv(1) == b""     # the server closed it
        finally:
            conn.close()

    def test_unknown_route_404(self, http_server):
        status, _, _ = client_mod._post(http_server.url + "/v1/nope",
                                        b"", 5)
        assert status == 404

    def test_attest_endpoint(self, http_server):
        from eaas.config import DEFAULT_PLATFORM_MEASUREMENT
        from eaas.trusted import module_measurement
        quote = client_mod.request_attestation(
            http_server.url,
            expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
            expected_ta=module_measurement(),
            attestation_pk=crypto.load_public_key(
                http_server.service.pubkey_der()))
        assert quote.quote_time > 0

    def test_attest_refuses_a_server_with_its_own_key(self, http_server,
                                                      server_keypair):
        """A server running the public code with the default platform
        measurement and a fresh key of its own reports the expected
        measurements, but its quote does not verify under the key the
        device pinned."""
        from eaas.errors import QuoteRejected
        from eaas.trusted import module_measurement
        with pytest.raises(QuoteRejected) as exc:
            client_mod.request_attestation(
                http_server.url,
                expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
                expected_ta=module_measurement(),
                attestation_pk=server_keypair.public)
        assert exc.value.reason == "sig"

    def test_throttling_over_http(self, tmp_path):
        cfg = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            key_file=tmp_path / "k.der",
            throttle_capacity=Fraction(2),
            throttle_refill_rate=Fraction(1, 1000),   # glacial refill
            sources=[SourceSpec("os0", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        server = TesServer(cfg)
        server.start()
        try:
            identity = client_mod.provision(
                tmp_path / "store",
                client_mod.fetch_server_pubkey(server.url))
            body, _ = client_mod.build_request(identity, 16)
            results = [client_mod._post(server.url + "/v1/entropy",
                                        body, 5)
                       for _ in range(3)]
            statuses = [r[0] for r in results]
            assert statuses == [200, 200, 429]
            throttled = results[2]
            assert int(throttled[2]["Retry-After"]) >= 1
        finally:
            server.shutdown()

    def test_bind_failure(self, http_server, tmp_path):
        host, port = http_server.address
        cfg = ServerConfig(listen_host=host, listen_port=port,
                           key_file=tmp_path / "k2.der")
        with pytest.raises(BindFailure):
            TesServer(cfg)


class TestLogHygiene:
    """The server writes its per-request lines from the HTTP handler,
    after the reply, so these drive a TesServer over HTTP."""

    @staticmethod
    def served_stack(server_keypair, capacity, refill=Fraction(1)):
        """(pool, service, server) on server_keypair, on wall time; the
        server is not started."""
        config = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            throttle_capacity=capacity, throttle_refill_rate=refill,
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        pool, _, service = build_stack(config, keypair=server_keypair)
        return pool, service, TesServer(config, service=service)

    def test_no_entropy_or_keys_in_logs(self, server_keypair,
                                        client_keypair, caplog, tmp_path):
        pool, _, server = self.served_stack(server_keypair, Fraction(100))
        extracted: list[bytes] = []
        original = pool.extract

        def recording_extract(n):
            out = original(n)
            extracted.append(out)
            return out

        pool.extract = recording_extract
        identity = client_mod.ClientIdentity(
            keypair=client_keypair, server_public=server_keypair.public,
            store_path=tmp_path)
        with caplog.at_level(logging.DEBUG):
            server.start()
            try:
                entropy = client_mod.request_entropy(identity, server.url,
                                                     32)
            finally:
                server.shutdown()   # joins the handlers: every line is in
        assert len(entropy) == 32
        assert extracted
        text = "\n".join(r.getMessage() for r in caplog.records)
        assert "served fp=" in text
        secret_der = crypto.private_key_der(server_keypair)
        for secret in extracted + [secret_der, entropy]:
            assert secret.hex() not in text
            import base64
            assert base64.b64encode(secret).decode() not in text

    def test_one_info_line_per_entropy_request(self, server_keypair,
                                               client_keypair, caplog):
        """A 200, a 429 and a 400 each write one eaas.server INFO line
        over HTTP, naming the hint's first 4 bytes; the service driven
        in process writes none."""
        _, service, server = self.served_stack(
            server_keypair, Fraction(1), Fraction(1, 3600))
        honest = build_body(client_keypair, server_keypair.public)
        garbage = b"\x01" * 32 + b"request"
        server.start()
        caplog.set_level(logging.INFO, logger="eaas.server")
        try:
            replies = [client_mod._post(server.url + "/v1/entropy", body, 5)
                       for body in (honest, honest, garbage)]
        finally:
            server.shutdown()   # joins the handlers: every line is in
        assert [status for status, _, _ in replies] == [200, 429, 400]
        fp = honest[:4].hex()
        assert [(r.name, r.levelno, r.getMessage())
                for r in caplog.records] == [
            ("eaas.server", logging.INFO,
             f"served fp={fp} bytes={len(replies[0][1])}"),
            ("eaas.server", logging.INFO,
             f"throttled fp={fp} "
             f"retry_after={replies[1][2]['Retry-After']}s"),
            ("eaas.server", logging.INFO,
             "refused fp=01010101 error=malformed")]
        caplog.clear()
        assert service.handle_entropy(b"\x02" * 32 + b"request")[0] == 400
        assert service.handle_entropy(honest)[0] == 429
        assert caplog.records == []


class TestWorkClock:
    def test_wall_steps_move_no_work_bound(self, server_keypair):
        """Wired as ``build_service`` wires it without an injected clock,
        on two manual clocks: a 1 h backwards wall step neither freezes
        the throttle nor the source allowance, a forward one refills
        neither, and quotes keep wall time."""
        wall, work = SimClock(), SimClock(0)
        pool = EntropyPool(work.now)
        register_sources(pool, [SourceSpec(
            "s", "simulated-sensor", Fraction(1), Fraction(128),
            {"seed": "1"})])
        ta = TrustedApplication(server_keypair, pool,
                                sm_measurement=DEFAULT_PLATFORM_MEASUREMENT,
                                clock=lambda: wall.now())
        service = EntropyService(
            ServerConfig(throttle_capacity=Fraction(2),
                         throttle_refill_rate=Fraction(1)), ta, work.now)
        garbage = b"\x01" * 32 + bytes(600)    # refused by the TA: 400

        def statuses(n):
            return [service.handle_entropy(garbage)[0] for _ in range(n)]

        assert statuses(3) == [400, 400, 429]
        with pytest.raises(EntropyDepleted):     # a 128-byte burst
            pool.harvest(2048, deadline_ms=1000)
        assert pool.credited_bits == 1024
        wall = SimClock(wall.now() - 3_600_000)   # a 1 h wall step back
        work.advance(1000)
        assert statuses(2) == [400, 429]
        pool.harvest(2048, deadline_ms=1000)
        wall.advance(2 * 3_600_000)
        assert statuses(1) == [429]
        with pytest.raises(EntropyDepleted):
            pool.harvest(4096, deadline_ms=1000)
        assert pool.credited_bits == 2048
        status, quote, _ = service.handle_attest(bytes(32))
        assert status == 200
        assert wire.decode_quote(quote).quote_time == wall.now()

    def test_build_service_times_work_on_a_monotonic_clock(
            self, tmp_path, server_keypair):
        key_file = tmp_path / "tes_key.der"
        crypto.write_private_key(key_file, server_keypair)
        service = build_service(ServerConfig(
            key_file=key_file,
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))]))
        assert service._clock is monotonic_clock_ms
        assert service._ta._pool._clock is monotonic_clock_ms
        assert service._ta._clock is system_clock_ceil_ms

    def test_reply_within_t1_millisecond_verifies(
            self, tmp_path, server_keypair, client_keypair, monkeypatch):
        """Wall time frozen 0.4 ms into a millisecond: the client takes
        t1 rounded down and the TA stamps t2 rounded up, so a reply
        served within t1's own millisecond is fresh."""
        monkeypatch.setattr(time, "time_ns",
                            lambda: 1_750_000_000_000_400_000)
        key_file = tmp_path / "tes_key.der"
        crypto.write_private_key(key_file, server_keypair)
        service = build_service(ServerConfig(
            key_file=key_file,
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))]))
        identity = client_mod.ClientIdentity(
            keypair=client_keypair, server_public=server_keypair.public,
            store_path=tmp_path)
        body, t1 = client_mod.build_request(identity, 32)
        status, reply, _ = service.handle_entropy(body)
        assert (status, t1) == (200, 1_750_000_000_000)
        entropy = client_mod.verify_response(
            reply, t1=t1, delta_s=32, server_public=server_keypair.public,
            secret_key=client_keypair.secret)
        assert len(entropy) == 32


def test_server_import_leaves_numpy_unloaded():
    """The server process never loads numpy: only the statistics used by
    tests and experiments need it."""
    src = Path(server_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, eaas.server; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_build_stack_is_the_one_build_path():
    """In the package, only server.build_stack makes a TA or a service,
    and only it and pool.py make a pool."""
    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from calls(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                yield where, getattr(func, "id", getattr(func, "attr", None))
            yield from calls(child, where)

    built = set()
    for path in Path(server_module.__file__).parent.glob("*.py"):
        for where, name in calls(ast.parse(path.read_text()), None):
            if name in ("TrustedApplication", "EntropyService", "EntropyPool"):
                built.add((name, path.stem, where))
    assert {b for b in built if b[1] != "pool"} == {
        (name, "server", "build_stack")
        for name in ("TrustedApplication", "EntropyService", "EntropyPool")}
