"""Span tracing for the benchmark, installed from outside the program.

``Tracer.install`` replaces the public functions of the eaas layers
(client, crypto, wire, trusted, pool, sources, server, stats) with
wrappers that record one span per call, and ``uninstall`` puts the
originals back. ``src/eaas`` carries no timing hooks of its own.

A span is the list ``[id, parent_id, request_id, name, start_ns, end_ns,
attrs]``. Spans nest per thread; a span with no parent starts a request
and its id is the request id of every span below it. Spans are appended
to ``Tracer.spans`` in memory and written out by the caller once, at the
end of a run.

``totals`` folds one process's spans into per-layer sums over the
requests chosen by a predicate on their root span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter

SID, PARENT, REQ, NAME, START, END, ATTRS = range(7)

CRYPTO_OPS = ("sign", "verify", "wrap_key", "unwrap_key", "seal_payload",
              "open_payload", "load_public_key")
PRIVATE_OPS = ("sign", "unwrap_key")
TA_STATUSES = ("ok", "unknown_command", "malformed", "decrypt_failure",
               "bad_signature", "field_out_of_range", "hint_mismatch",
               "entropy_depleted", "no_sources")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        """Return fn recording a span per call.

        ``before(args)`` runs ahead of the span; its value reaches
        ``after(args, result, state)``, whose return becomes the attrs.
        """
        ids, local, spans = self._ids, self._local, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
                rec = [sid, parent[SID], parent[REQ], name, 0, 0, None]
            else:
                rec = [sid, 0, sid, name, 0, 0, None]
            state = before(args) if before is not None else None
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                spans.append(rec)
            if after is not None:
                rec[ATTRS] = after(args, result, state)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced eaas function; ``uninstall`` restores them."""
        from eaas import (client, crypto, pool, server, sources, stats,
                          trusted, wire)

        def patch(owner, attr, name, before=None, after=None):
            self._replace(owner, attr,
                          self.wrap(name, owner.__dict__[attr], before, after))

        for fn in ("build_request", "verify_response", "request_entropy"):
            patch(client, fn, f"client.{fn}")
        for fn in CRYPTO_OPS + ("seal_message", "open_message",
                                "load_private_key"):
            patch(crypto, fn, f"crypto.{fn}")
        for fn in ("encode_request", "decode_request", "decode_envelope",
                   "encode_response_payload", "decode_response_payload",
                   "fingerprint"):
            patch(wire, fn, f"wire.{fn}")
        patch(wire, "encode_envelope", "wire.encode_envelope",
              after=lambda a, r, s: {"bytes": len(r)})

        patch(trusted.TrustedApplication, "ta_invoke", "trusted.ta_invoke",
              after=lambda a, r, s: {
                  "status": trusted.TaStatus(r[0]).name.lower()})

        status = pool.EntropyPool.status
        patch(pool.EntropyPool, "harvest", "pool.harvest",
              before=lambda a: a[0].total_credited_bits,
              after=lambda a, r, s: {
                  "credited": a[0].total_credited_bits - s})
        patch(pool.EntropyPool, "extract", "pool.extract",
              before=lambda a: len(status(a[0]).buffered),
              after=lambda a, r, s: {"buffer": s})
        patch(pool.EntropyPool, "status", "pool.status")

        make_generator = sources.make_generator
        pull_bytes = lambda a, r, s: {"bytes": len(r)}  # noqa: E731
        self._replace(sources, "make_generator", lambda spec: self.wrap(
            "sources.pull", make_generator(spec), after=pull_bytes))

        patch(server.EntropyService, "handle_entropy", "server.handle_entropy",
              after=lambda a, r, s: {"status": r[0], "hint": a[1][:8].hex()})
        patch(server.ThrottleTable, "check", "server.throttle_check",
              after=lambda a, r, s: {"allowed": r[0]})
        patch(server, "build_service", "server.build_service")
        patch(server, "load_or_create_keypair", "server.load_or_create_keypair")

        for fn in ("monobit", "runs", "chi_square"):
            patch(stats, fn, f"stats.{fn}")
        patch(stats, "stats_suite", "stats.stats_suite",
              after=lambda a, r, s: {"bytes": len(a[0])})

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def totals(spans: list[list], honest_root) -> Counter:
    """Sum per-layer quantities over one process's spans.

    Keys named like the benchmark's per-layer metrics hold sums over the
    requests whose root span satisfies ``honest_root``, in ms, bytes or
    calls; the caller divides them by the number of honest round trips.
    Keys starting with ``_`` cover all traffic. Self time is a span's
    duration minus its children's: children run on the parent's thread,
    one after another, so their sum is the part of the parent they cover.
    """
    by_id = {s[SID]: s for s in spans}
    child_ns: Counter = Counter()
    first_child: dict[int, int] = {}
    for s in spans:
        if s[PARENT]:
            child_ns[s[PARENT]] += s[END] - s[START]
            if s[START] < first_child.get(s[PARENT], s[START] + 1):
                first_child[s[PARENT]] = s[START]
    honest = {s[REQ] for s in spans if not s[PARENT] and honest_root(s)}

    def in_ta(s) -> bool:
        while s[PARENT]:
            s = by_id[s[PARENT]]
            if s[NAME] == "trusted.ta_invoke":
                return True
        return False

    t: Counter = Counter()
    for s in spans:
        name, attrs = s[NAME], s[ATTRS] or {}   # no attrs if it raised
        ms = (s[END] - s[START]) / 1e6
        self_ms = ms - child_ns[s[SID]] / 1e6
        if name == "server.throttle_check":
            t["_throttle_checks"] += 1
            t["_throttle_check_ms"] += ms
            t["_throttle_denied"] += not attrs.get("allowed", True)
        elif name == "trusted.ta_invoke":
            t[f"trusted.status.{attrs.get('status')}"] += 1
        elif name == "stats.stats_suite":
            t["_stats_ms"] += ms
            t["_stats_bytes"] += attrs.get("bytes", 0)
        elif name == "server.handle_entropy" and not s[PARENT]:
            if attrs.get("status") in (400, 429):
                t["_refused_handle_n"] += 1
                t["_refused_handle_ms"] += ms
        if s[REQ] not in honest:
            continue
        layer, _, fn = name.partition(".")
        if name == "bench.round_trip":
            t["_rt_count"] += 1
            t["_rt_ms"] += ms
        elif layer == "client":
            t[f"{name}.self_ms"] += self_ms
        elif layer == "crypto" and fn in CRYPTO_OPS:
            side = "ta" if in_ta(s) else "client"
            t[f"{name}.{side}.ms"] += ms
            t[f"{name}.{side}.calls"] += 1
            if fn in PRIVATE_OPS:
                t["crypto.private_ops"] += 1
                t["_private_ms"] += ms
        elif layer == "wire" and fn.startswith(("encode_", "decode_")):
            t[f"wire.{fn[:6]}_ms"] += ms
            if fn == "encode_envelope":
                t["wire.envelope_bytes"] += attrs.get("bytes", 0)
        elif name == "trusted.ta_invoke":
            t["trusted.ta_invoke.ms"] += ms
            t["trusted.ta_invoke.self_ms"] += self_ms
            t["trusted.wait_ms"] += (first_child.get(s[SID], s[END])
                                     - s[START]) / 1e6
        elif name == "pool.harvest":
            t["pool.harvest.ms"] += ms
            t["_credited_bits"] += attrs.get("credited", 0)
        elif name == "pool.extract":
            t["pool.extract.ms"] += ms
            t["pool.buffer_bytes"] += attrs.get("buffer", 0)
        elif name == "sources.pull":
            t["sources.pull.ms"] += ms
            t["sources.pull.bytes"] += attrs.get("bytes", 0)
        elif name == "server.handle_entropy":
            t["server.handle_entropy.self_ms"] += self_ms
            t["_served_handle_ms"] += ms
    return t
