"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench

Each workload runs briefly, traced and untraced, so this takes about a
minute. It is not part of the tier-1 suite, which collects ``tests/``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# The functions each workload is meant to exercise. A rename in src/eaas
# that hides one of them from the trace fails here.
SERVING_PATH = {
    "bench.round_trip", "client.build_request", "client.verify_response",
    "crypto.sign", "crypto.verify", "crypto.wrap_key", "crypto.unwrap_key",
    "crypto.seal_payload", "crypto.open_payload", "crypto.load_public_key",
    "crypto.seal_message", "crypto.open_message", "crypto.load_private_key",
    "wire.encode_request", "wire.decode_request", "wire.encode_envelope",
    "wire.decode_envelope", "wire.encode_response_payload",
    "wire.decode_response_payload", "wire.fingerprint",
    "trusted.ta_invoke", "pool.harvest", "pool.extract", "sources.pull",
    "server.build_service", "server.load_or_create_keypair",
    "server.handle_entropy", "server.throttle_check",
}
EXPECTED_SPANS = {
    "small-inproc": SERVING_PATH,
    "bulk-inproc": SERVING_PATH | {"stats.stats_suite", "stats.monobit",
                                   "stats.runs", "stats.chi_square"},
    "http-mixed": SERVING_PATH | {"client.request_entropy", "server.main"},
}
# Closed loops are bounded by round trips so both runs do the same work;
# 70 round trips of 16 KiB fill one 1 MiB chunk for the statistics check.
ROUNDS = {"small-inproc": 20, "bulk-inproc": 70}
HTTP_SECONDS = 2.0


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def runs(request):
    """(workload, untraced (report, result), traced (report, result))."""
    workload = request.param

    def bench(trace: bool):
        # A traced run measures an untraced and a traced phase, each
        # getting half of the seconds.
        return run.run(workload, seed=7, seconds=HTTP_SECONDS * (1 + trace),
                       trace=trace, rounds=ROUNDS.get(workload))

    return workload, bench(False), bench(True)


def test_runs_are_correct(runs):
    _, (_, plain), (_, traced) = runs
    assert plain["correct"] and plain["failed"] == 0
    assert traced["correct"] and traced["failed"] == 0


def test_traced_and_untraced_tallies_match(runs):
    workload, (plain_report, _), (traced_report, _) = runs
    plain = plain_report["phases"][0]["tallies"]
    traced = traced_report["phases"][1]["tallies"]
    if workload == "http-mixed":
        # Over HTTP the bucket refills in wall-clock time, so how replays
        # split between grants and 429 may differ; their bound is checked
        # in every run.
        for tallies in (plain, traced):
            tallies["replay_answered"] = (tallies.pop("replay_200", 0)
                                          + tallies.pop("replay_429", 0))
    assert plain == traced


def test_trace_covers_named_functions(runs):
    workload, _, (report, _) = runs
    assert EXPECTED_SPANS[workload] <= set(report["span_names"])


def test_trace_counts_four_private_ops(runs):
    _, _, (_, traced) = runs
    assert traced["metrics"]["crypto.private_ops"]["value"] == 4


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
