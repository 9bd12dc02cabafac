#!/usr/bin/env python3
"""Benchmark of the eaas entropy service: verified entropy round trips in
process and over loopback HTTP, with a per-layer trace.

    python3 perfbench/run.py --workload small-inproc --seed 1 \
        --seconds 35 --trace 0

Run from any directory of a checkout; the service is imported from
``src/``. The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics. The line before it is a report with versions, the
workload's shape, sample counts, outcome tallies and every check.
Workloads, metrics and what each layer should move are described in
``perfbench/README.md``.

RSA keys are generated once into ``perfbench/.cache/keys`` and reused;
their generation is not measured.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
KEYS = CACHE / "keys"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from cryptography.hazmat.primitives import serialization  # noqa: E402

import spans  # noqa: E402
from eaas import client, config, crypto, server, wire  # noqa: E402
from eaas.errors import EaasError, TransportError  # noqa: E402

MIB = 1 << 20
N_HONEST = 32                  # honest identities; a workload uses a prefix
FLOOD_ID, WARMUP_ID = N_HONEST, N_HONEST + 1
SETUP_REPEATS = 9
SOURCE_RATE = 1 << 26          # bytes/s; never the limit
PROBE_EVERY = 4                # round trips per in-process refusal probe
REPLAY_SHARE = 0.8
FLOOD_BURST = 3                # flood requests sent back to back
HTTP_TIMEOUT_S = 10.0
# Each 1 MiB chunk runs three tests at about the 1e-4 level, so a run of
# ~20 chunks from a sound pool fails one test with probability ~1%; two
# failures (~5e-5) or a broken pool (every chunk) fail the check.
STATS_FAILURES_ALLOWED = 1
FLOOD_OUTCOMES = {"replay_200", "replay_429", "garbage_400"}


@dataclass(frozen=True)
class Workload:
    name: str
    delta_s: int
    max_delta_s: int
    fleet: int                 # honest identities, taken round robin
    capacity: int              # throttle bucket size
    refill: int                # throttle tokens per second
    honest_rate: float = 0.0   # open loop over HTTP when non-zero
    flood_rate: float = 0.0
    stats_check: bool = False


# In process the throttle refills far faster than one identity can send
# (each round trip costs four RSA private ops), so it never refuses an
# honest request; refusals come from garbage probes, which the TA
# refuses. Over HTTP each honest identity sends 0.94/s against a
# 2/s refill, and the replay flood sends 9.6/s from one fingerprint.
WORKLOADS = {w.name: w for w in (
    Workload("small-inproc", delta_s=32, max_delta_s=4096, fleet=8,
             capacity=16, refill=1000),
    Workload("bulk-inproc", delta_s=16384, max_delta_s=16384, fleet=1,
             capacity=16, refill=1000, stats_check=True),
    Workload("http-mixed", delta_s=32, max_delta_s=4096, fleet=N_HONEST,
             capacity=8, refill=2, honest_rate=30.0, flood_rate=12.0),
)}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


# --- identities and configuration -----------------------------------------

def _write_private(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _load_key(path: Path) -> crypto.KeyPair:
    # The bench made these keys; skipping the slow RSA consistency check
    # keeps client-side set-up short. The server loads its own key itself.
    secret = serialization.load_der_private_key(
        path.read_bytes(), password=None, unsafe_skip_rsa_key_validation=True)
    return crypto.KeyPair(secret=secret, public=secret.public_key())


def load_identities() -> list[client.ClientIdentity]:
    """Client identities 0..N_HONEST+1, generating any missing key."""
    KEYS.mkdir(parents=True, exist_ok=True)
    names = ["server"] + [f"client-{i:02d}" for i in range(N_HONEST + 2)]
    for name in names:
        path = KEYS / f"{name}.der"
        if not path.exists():
            _write_private(path,
                           crypto.private_key_der(crypto.generate_keypair()))
    server_key, *keys = [_load_key(KEYS / f"{n}.der") for n in names]
    return [client.ClientIdentity(keypair=k, server_public=server_key.public,
                                  store_path=KEYS) for k in keys]


def config_text(w: Workload, source_seeds: tuple[int, int],
                port: int = 8639) -> str:
    lines = [f"listen = 127.0.0.1:{port}",
             f"max_delta_s = {w.max_delta_s}",
             f"throttle_capacity = {w.capacity}",
             f"throttle_refill_rate = {w.refill}",
             "harvest_deadline_ms = 2000",
             "key_file = keys/server.der",
             "clock = system"]
    for sid, density, seed in (("sensor_a", "0.75", source_seeds[0]),
                               ("sensor_b", "0.5", source_seeds[1])):
        lines += [f"source.{sid}.kind = simulated-sensor",
                  f"source.{sid}.density = {density}",
                  f"source.{sid}.max_rate = {SOURCE_RATE}",
                  f"source.{sid}.seed = {seed}"]
    return "\n".join(lines) + "\n"


def garbage_body(rng: random.Random, modulus: int) -> bytes:
    """A well-formed envelope of random bytes under a random hint: it
    passes the throttle on a fresh bucket and fails the TA's unwrap.

    The wrapped key is drawn below the server's RSA modulus, so every
    probe costs one private-key op before OAEP rejects it. Random bytes
    at or above the modulus are refused in microseconds, and the share
    of those depends on the key a checkout happens to generate, which
    made the median refusal time jump between checkouts."""
    wrapped = rng.randrange(modulus).to_bytes(wire.WRAPPED_KEY_LEN, "big")
    env = wire.SealedEnvelope(wrapped_key=wrapped,
                              nonce=rng.randbytes(wire.NONCE_LEN),
                              ciphertext=rng.randbytes(48), sigma2=None)
    return rng.randbytes(wire.FINGERPRINT_LEN) + wire.encode_envelope(env)


# --- outcomes ---------------------------------------------------------------

@dataclass
class Phase:
    """Outcomes of one measured window against one service."""

    traced: bool = False
    rt_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    verified: int = 0
    delivered: int = 0
    repeats: int = 0
    refused_ms: list[float] = field(default_factory=list)
    refused_wire_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    flood_sent: Counter = field(default_factory=Counter)
    flood: Counter = field(default_factory=Counter)
    window_s: float = 0.0
    grant_bound: float = 0.0
    counters: dict | None = None
    spill: Spill | None = None
    stats: dict | None = None
    _prefixes: set = field(default_factory=set)

    def deliver(self, entropy: bytes) -> None:
        self.verified += 1
        self.delivered += len(entropy)
        prefix = entropy[:16]
        self.repeats += prefix in self._prefixes
        self._prefixes.add(prefix)

    def flood_reply(self, kind: str, status: int, ms: float,
                    wire_ms: float | None = None) -> None:
        self.flood[f"{kind}_{status}"] += 1
        if status in (400, 429):
            self.refused_ms.append(ms)
            if wire_ms is not None:
                self.refused_wire_ms.append(wire_ms)

    def tallies(self) -> dict[str, int]:
        sent = {f"{k}_sent": n for k, n in self.flood_sent.items()}
        return {"honest_attempted": self.attempted,
                "honest_verified": self.verified, **sent, **self.flood}

    def checks(self) -> dict[str, bool]:
        expected = {"allowed": 1 + self.verified + self.flood["replay_200"],
                    "throttled": self.flood["replay_429"],
                    "depleted": 0,
                    "rejected": self.flood["garbage_400"]}
        c = {"honest_all_verified":
             self.attempted > 0 and self.verified == self.attempted,
             "entropy_never_repeated": self.repeats == 0,
             "flood_replies_429_or_400": set(self.flood) <= FLOOD_OUTCOMES,
             "replay_grants_bounded":
             self.flood["replay_200"] <= self.grant_bound,
             "server_counters_match_tallies": self.counters == expected}
        if self.stats is not None:
            c["stats_suite_on_mib_chunks"] = (
                self.stats["chunks"] >= 1
                and self.stats["failures"] <= STATS_FAILURES_ALLOWED)
        return c

    def summary(self) -> dict:
        return {"traced": self.traced, "samples": len(self.rt_ms),
                "refused_samples": len(self.refused_ms),
                "window_s": round(self.window_s, 3),
                "tallies": self.tallies(), "counters": self.counters,
                "stats": self.stats, "checks": self.checks()}


class Spill:
    """Delivered bytes in 1 MiB chunks, kept in a file so that they add
    nothing to the RSS of the process hosting the service."""

    def __init__(self, path: Path):
        self.path = path
        self._file = open(path, "wb")
        self._buf = bytearray()
        self.chunks = 0

    def add(self, data: bytes) -> None:
        self._buf += data
        while len(self._buf) >= MIB:
            self._file.write(self._buf[:MIB])
            del self._buf[:MIB]
            self.chunks += 1

    def close(self) -> None:
        self._file.close()

    def stats_suite(self) -> dict:
        from eaas import stats
        failures = 0
        with open(self.path, "rb") as f:
            for _ in range(self.chunks):
                report = stats.stats_suite(f.read(MIB))
                failures += sum(not r.passed for r in report.values())
        return {"chunks": self.chunks, "failures": failures}


# --- in process --------------------------------------------------------------

def round_trip(service, ident: client.ClientIdentity, w: Workload) -> bytes:
    body, t1 = client.build_request(ident, w.delta_s,
                                    max_delta_s=w.max_delta_s)
    status, reply, _ = service.handle_entropy(body)
    if status != 200:
        raise TransportError(f"service answered {status}")
    return client.verify_response(reply, t1=t1, delta_s=w.delta_s,
                                  server_public=ident.server_public,
                                  secret_key=ident.keypair.secret)


def inproc_setup(conf: Path, w: Workload,
                 warm: client.ClientIdentity) -> tuple[float, object]:
    """Config parse, key load and service build, up to one verified reply."""
    start = time.perf_counter()
    service = server.build_service(config.load_config(conf))
    round_trip(service, warm, w)
    return time.perf_counter() - start, service


def refusal_probe(service, ctx: dict, phase: Phase) -> None:
    """One garbage envelope under a fresh hint: the throttle lets it
    through and the TA refuses it (400)."""
    phase.flood_sent["garbage"] += 1
    body = garbage_body(ctx["rng"], ctx["modulus"])
    t0 = time.perf_counter()
    status, _, _ = service.handle_entropy(body)
    phase.flood_reply("garbage", status, (time.perf_counter() - t0) * 1e3)


def closed_loop(service, ctx: dict, seconds: float, rounds: int | None,
                tracer, spill: Spill | None, phase: Phase) -> None:
    w, fleet = ctx["w"], ctx["fleet"]
    rt = tracer.wrap("bench.round_trip", round_trip) if tracer else round_trip
    start = time.perf_counter()
    end = start + seconds
    i = 0
    while i < rounds if rounds else time.perf_counter() < end:
        ident = fleet[i % len(fleet)]
        i += 1
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            entropy = rt(service, ident, w)
        except EaasError:
            entropy = None
        else:
            phase.rt_ms.append((time.perf_counter() - t0) * 1e3)
            phase.deliver(entropy)
            if spill is not None:
                spill.add(entropy)
        if i % PROBE_EVERY == 0:
            refusal_probe(service, ctx, phase)
    phase.window_s = time.perf_counter() - start


def inproc_phase(service, ctx: dict, seconds: float, rounds: int | None,
                 tracer, tag: str) -> Phase:
    phase = Phase(traced=tracer is not None)
    spill = Spill(CACHE / f"{tag}.bytes") if ctx["w"].stats_check else None
    try:
        closed_loop(service, ctx, seconds, rounds, tracer, spill, phase)
    finally:
        if spill is not None:
            spill.close()
    phase.counters = dict(service.counters)
    phase.spill = spill
    return phase


def run_inproc(ctx: dict, seconds: float, trace: bool,
               rounds: int | None) -> tuple[list[Phase], dict]:
    w = ctx["w"]
    conf = CACHE / f"{w.name}.conf"
    conf.write_text(config_text(w, ctx["source_seeds"]))
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        setup_s, service = inproc_setup(conf, w, ctx["warm"])
        setups.append(setup_s)
    if not trace:
        phase = inproc_phase(service, ctx, seconds, rounds, None, w.name)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if phase.spill is not None:
            phase.stats = phase.spill.stats_suite()
        return [phase], {"setup_s": setups, "rss_mib": rss_mib}

    base = inproc_phase(service, ctx, seconds / 2, rounds, None, w.name)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, service = inproc_setup(conf, w, ctx["warm"])
        traced = inproc_phase(service, ctx, seconds / 2, rounds, tracer,
                              w.name + "-traced")
        for phase in (base, traced):
            if phase.spill is not None:
                phase.stats = phase.spill.stats_suite()
    finally:
        tracer.uninstall()
    return [base, traced], {"bench_spans": tracer.spans, "server_spans": []}


# --- over loopback HTTP --------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ServerProcess:
    """``eaas.server.main`` in its own process, started by launcher.py."""

    def __init__(self, ctx: dict, tag: str, trace: bool):
        self.report_path = CACHE / f"{tag}.report.json"
        for _ in range(3):              # another process may take the port
            self.port = _free_port()
            conf = CACHE / f"{tag}.conf"
            conf.write_text(config_text(ctx["w"], ctx["source_seeds"],
                                        self.port))
            self.report_path.unlink(missing_ok=True)
            env = {k: v for k, v in os.environ.items()
                   if not k.startswith("EAAS_")}
            with open(CACHE / f"{tag}.log", "wb") as log:
                self.proc = subprocess.Popen(
                    [sys.executable, str(HERE / "launcher.py"),
                     "--report", str(self.report_path),
                     "--trace", str(int(trace)), "--config", str(conf)],
                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
            if self._wait_listening():
                return
            self.proc.wait(timeout=30)
        raise RuntimeError(f"server did not start; see {CACHE / tag}.log")

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _wait_listening(self) -> bool:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                socket.create_connection(("127.0.0.1", self.port),
                                         timeout=1).close()
                return True
            except OSError:
                time.sleep(0.002)
        self.kill()
        return False

    def stop(self) -> dict:
        """SIGTERM, wait, and return the launcher's report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        return json.loads(self.report_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _no_sleep(_seconds: float) -> None:
    """request_entropy's back-off: a throttled honest request is a failure."""


def fetch(ident: client.ClientIdentity, url: str, w: Workload) -> bytes:
    return client.request_entropy(ident, url, w.delta_s,
                                  max_delta_s=w.max_delta_s, retries=1,
                                  timeout=HTTP_TIMEOUT_S, sleep=_no_sleep)


def http_setup(ctx: dict, tag: str, trace: bool) -> tuple[float, ServerProcess]:
    """Server process start, config parse, key load and service build, up
    to one verified reply."""
    start = time.perf_counter()
    srv = ServerProcess(ctx, tag, trace)
    try:
        fetch(ctx["warm"], srv.url, ctx["w"])
    except BaseException:
        srv.kill()
        raise
    return time.perf_counter() - start, srv


def _wait_until(due: float) -> float:
    """Sleep until ``due``; return how late the generator is, in ms."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return max(0.0, time.perf_counter() - due) * 1e3


def open_loop(srv: ServerProcess, ctx: dict, seconds: float, tracer,
              phase: Phase) -> None:
    """Honest SDK fetches on fresh connections, beside a flood on one
    kept-alive connection: at most two connections open at once."""
    w, fleet, rng = ctx["w"], ctx["fleet"], ctx["rng"]
    n_bursts = int(w.flood_rate / FLOOD_BURST * seconds)
    n_replay = round(n_bursts * FLOOD_BURST * REPLAY_SHARE)
    kinds = (["replay"] * n_replay
             + ["garbage"] * (n_bursts * FLOOD_BURST - n_replay))
    rng.shuffle(kinds)
    bodies = [ctx["flood_body"] if k == "replay"
              else garbage_body(rng, ctx["modulus"]) for k in kinds]
    rt = tracer.wrap("bench.round_trip", fetch) if tracer else fetch
    conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                      timeout=HTTP_TIMEOUT_S)
    start = time.perf_counter() + 0.05
    ends = []

    def honest() -> None:
        # Timed from the send, not the due time: from the due time, one
        # host stall queued every later request behind it and the p90
        # spread over ten runs exceeded any bound. Lateness is kept apart.
        for i in range(int(w.honest_rate * seconds)):
            phase.late_ms.append(_wait_until(start + i / w.honest_rate))
            phase.attempted += 1
            sent = time.perf_counter()
            try:
                entropy = rt(fleet[i % len(fleet)], srv.url, w)
            except EaasError:
                continue
            phase.rt_ms.append((time.perf_counter() - sent) * 1e3)
            phase.deliver(entropy)
        ends.append(time.perf_counter())

    def flood() -> None:
        # Bursts are due on a schedule; within a burst each request goes
        # out as soon as the previous reply is in, and is timed from then.
        replay_times = []
        for j, (kind, body) in enumerate(zip(kinds, bodies)):
            if j % FLOOD_BURST == 0:
                due = start + (j // FLOOD_BURST + 0.5) * FLOOD_BURST \
                    / w.flood_rate
                phase.late_ms.append(_wait_until(due))
            phase.flood_sent[kind] += 1
            sent = time.perf_counter()
            conn.request("POST", "/v1/entropy", body=body,
                         headers={"Content-Type": "application/octet-stream"})
            resp = conn.getresponse()
            resp.read()
            done = time.perf_counter()
            phase.flood_reply(kind, resp.status, (done - due) * 1e3,
                              (done - sent) * 1e3)
            due = done
            if kind == "replay":
                replay_times += [sent, done]
        span = max(replay_times) - min(replay_times) if replay_times else 0
        phase.grant_bound = w.capacity + w.refill * span
        ends.append(time.perf_counter())

    errors: list[BaseException] = []

    def guarded(target):
        def body():
            try:
                target()
            except BaseException as exc:
                errors.append(exc)
        return body

    threads = [threading.Thread(target=guarded(t)) for t in (honest, flood)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120)
    finally:
        conn.close()
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"load generator failed: {errors!r}")
    phase.window_s = max(ends) - start


def http_phase(srv: ServerProcess, ctx: dict, seconds: float,
               tracer) -> tuple[Phase, dict]:
    phase = Phase(traced=tracer is not None)
    try:
        open_loop(srv, ctx, seconds, tracer, phase)
        report = srv.stop()
    finally:
        srv.kill()
    phase.counters = report["counters"]
    return phase, report


def run_http(ctx: dict, seconds: float, trace: bool,
             rounds: int | None) -> tuple[list[Phase], dict]:
    w = ctx["w"]
    if not trace:
        setups = []
        for i in range(SETUP_REPEATS):
            setup_s, srv = http_setup(ctx, f"{w.name}-setup", False)
            setups.append(setup_s)
            if i < SETUP_REPEATS - 1:
                srv.stop()
        phase, report = http_phase(srv, ctx, seconds, None)
        return [phase], {"setup_s": setups,
                         "rss_mib": report["maxrss_kib"] / 1024}

    _, srv = http_setup(ctx, w.name, False)
    base, _ = http_phase(srv, ctx, seconds / 2, None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, srv = http_setup(ctx, f"{w.name}-traced", True)
        traced, report = http_phase(srv, ctx, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    return [base, traced], {"bench_spans": tracer.spans,
                            "server_spans": report["spans"]}


# --- metrics -----------------------------------------------------------------

PER_RT = (
    [f"client.{fn}.self_ms"
     for fn in ("build_request", "verify_response", "request_entropy")]
    + [f"crypto.{op}.{side}.{unit}" for op in spans.CRYPTO_OPS
       for side in ("client", "ta") for unit in ("ms", "calls")]
    + ["crypto.private_ops", "wire.encode_ms", "wire.decode_ms",
       "wire.envelope_bytes", "trusted.ta_invoke.ms",
       "trusted.ta_invoke.self_ms", "trusted.wait_ms", "pool.harvest.ms",
       "pool.extract.ms", "pool.buffer_bytes", "sources.pull.ms",
       "sources.pull.bytes", "server.handle_entropy.self_ms"])


def end_to_end(phase: Phase, extra: dict) -> dict[str, float]:
    return {"setup_s": statistics.median(extra["setup_s"]),
            "rt_p50_ms": percentile(phase.rt_ms, 50),
            "rt_p75_ms": percentile(phase.rt_ms, 75),
            "goodput_kib_s": phase.delivered / 1024 / phase.window_s,
            "verified_ratio": phase.verified / phase.attempted,
            "refused_p50_ms": percentile(phase.refused_ms, 50),
            "refused_p90_ms": percentile(phase.refused_ms, 90),
            "rss_mib": extra["rss_mib"]}


def per_layer(ctx: dict, base: Phase, traced: Phase,
              extra: dict) -> dict[str, float]:
    honest_hints = {wire.fingerprint(i.keypair.public_der)[:8].hex()
                    for i in ctx["fleet"]}
    t = spans.totals(extra["bench_spans"],
                     lambda s: s[spans.NAME] == "bench.round_trip")
    t.update(spans.totals(
        extra["server_spans"],
        lambda s: s[spans.NAME] == "server.handle_entropy"
        and (s[spans.ATTRS] or {}).get("hint") in honest_hints))
    n = t["_rt_count"] or 1
    m = {name: t[name] / n for name in PER_RT}
    m["rt_above_floor_ms"] = (t["_rt_ms"] - t["_private_ms"]) / n
    m["pool.credit_ratio"] = (t["_credited_bits"]
                              / max(8 * t["sources.pull.bytes"], 1))
    for status in spans.TA_STATUSES:
        m[f"trusted.status.{status}"] = t[f"trusted.status.{status}"]
    checks = max(t["_throttle_checks"], 1)
    m["server.throttle.check_us"] = 1e3 * t["_throttle_check_ms"] / checks
    m["server.throttle.deny_ratio"] = t["_throttle_denied"] / checks
    if ctx["w"].honest_rate:
        m["server.http_ms.served"] = (m["client.request_entropy.self_ms"]
                                      - t["_served_handle_ms"] / n)
        m["server.http_ms.refused"] = (
            statistics.fmean(traced.refused_wire_ms)
            - t["_refused_handle_ms"] / max(t["_refused_handle_n"], 1))
        m["bench.gen_late_p99_ms"] = percentile(base.late_ms, 99)
    else:
        m["server.http_ms.served"] = m["server.http_ms.refused"] = 0.0
        m["bench.gen_late_p99_ms"] = 0.0
    for key, value in traced.counters.items():
        m[f"server.counters.{key}"] = value
    m["stats.stats_suite.ms_per_mib"] = (
        t["_stats_ms"] / (t["_stats_bytes"] / MIB) if t["_stats_bytes"]
        else 0.0)
    m["bench.rt_p90_ms"] = percentile(base.rt_ms, 90)
    m["bench.rt_p99_ms"] = percentile(base.rt_ms, 99)
    m["bench.trace_overhead_ratio"] = (percentile(traced.rt_ms, 50)
                                       / percentile(base.rt_ms, 50))
    return m


# --- entry point -----------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        rounds: int | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (report, result). ``rounds`` bounds the
    closed loops by round trips instead of time."""
    w = WORKLOADS[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    idents = load_identities()
    rng = random.Random(seed)
    order = rng.sample(range(N_HONEST), N_HONEST)
    ctx = {"w": w, "rng": rng,
           "source_seeds": (rng.getrandbits(32), rng.getrandbits(32)),
           "fleet": [idents[k] for k in order[:w.fleet]],
           "warm": idents[WARMUP_ID],
           "modulus": idents[0].server_public.public_numbers().n}
    ctx["flood_body"], _ = client.build_request(idents[FLOOD_ID], 32,
                                                max_delta_s=w.max_delta_s)
    runner = run_http if w.honest_rate else run_inproc
    phases, extra = runner(ctx, seconds, trace, rounds)

    if trace:
        values = per_layer(ctx, phases[0], phases[1], extra)
        wanted = spec["per_layer"]
        (CACHE / f"trace-{w.name}.json").write_text(json.dumps(
            {"bench": extra["bench_spans"], "server": extra["server_spans"]}))
    else:
        values = end_to_end(phases[0], extra)
        wanted = spec["end_to_end"]
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "env": {"python": platform.python_version(),
                "cryptography": metadata.version("cryptography"),
                "numpy": metadata.version("numpy"),
                "nproc": os.cpu_count(),
                "usable_cpus": len(os.sched_getaffinity(0))},
        "shape": {
            "loop": "open" if w.honest_rate else "closed",
            "transport": ("HTTP/1.1 over the loopback interface, 127.0.0.1"
                          if w.honest_rate else "in process"),
            "delta_s": w.delta_s, "honest_identities": w.fleet,
            "throttle": {"capacity": w.capacity, "refill_per_s": w.refill},
            **({"honest_rate_per_s": w.honest_rate,
                "flood_rate_per_s": w.flood_rate,
                "replay_share": REPLAY_SHARE, "max_connections": 2}
               if w.honest_rate else
               {"clients": 1,
                "garbage_probe_every_round_trips": PROBE_EVERY})},
        "phases": [p.summary() for p in phases],
    }
    if trace:
        report["span_names"] = sorted(
            {s[spans.NAME] for s in extra["bench_spans"]}
            | {s[spans.NAME] for s in extra["server_spans"]})
    else:
        report["setup_s"] = extra["setup_s"]
    result = {
        "correct": all(all(p.checks().values()) for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.attempted - p.verified for p in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("EAAS_")]:
        del os.environ[key]             # load_config would apply them
    report, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
