#!/usr/bin/env python3
"""Run the statistical suite over many seeded MiB of pool output.

Criterion 7 demands that 100 of 100 seeded MiB pass, which pins one
draw of the output stream. This sweep judges a stream over many seeds
the way NIST SP 800-22 §4.2 judges a generator:

    proportion  the share of seeds passing each test, and all three,
                against the interval p ± 3·sqrt(p(1 − p)/m) of §4.2.1,
                where p is one minus the test's significance level
    uniformity  §4.2.2: the m p-values of each test in 10 bins; the
                chi-square of the bin counts (9 dof) gives P-value_T,
                and the p-values are uniform iff P-value_T ≥ 0.0001

and prints the SHA-256 of the concatenated stream, which changes
whenever the pool's output bytes do.

Each MiB comes from a replica of criterion 7's ``deliver_mib`` that
runs the pool alone, without RSA: the sources of the test stack, and
the harvest and extract sizes of the TA's 64 responses of 16 KiB to one
binding. The first response of a binding also extracts its 16-byte
binding key.

    PYTHONPATH=src python3 scripts/quality_sweep.py --seeds 0-999
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from fractions import Fraction

from eaas.config import ServerConfig
from eaas.crypto import SESSION_KEY_LEN
from eaas.harness import SimClock
from eaas.pool import EntropyPool
from eaas.sources import SourceSpec, register_sources
from eaas.stats import (CHI_SQUARE_RANGE, MONOBIT_Z_MAX, RUNS_Z_MAX,
                        stats_suite)

MIB = 1 << 20
DELTA_S = 16_384
REQUESTS = MIB // DELTA_S
BYTE_DOF = 255                   # chi-square over 256 byte values
BINS = 10
UNIFORMITY_MIN = 0.0001          # §4.2.2's bound on P-value_T


def replica_mib(seed: int) -> bytes:
    """The MiB criterion 7's deliver_mib(seed) receives, from the pool
    alone."""
    clock = SimClock()
    pool = EntropyPool(clock.now)
    register_sources(pool, [
        SourceSpec(f"src{i}", "simulated-sensor", Fraction(1),
                   Fraction(1 << 20), {"seed": str(seed * 101 + i)})
        for i in range(2)])
    out = bytearray()
    for i in range(REQUESTS):
        # One extraction per response: the entropy, the session key and,
        # for the binding's first response, the binding key.
        n = DELTA_S + SESSION_KEY_LEN * (2 if i == 0 else 1)
        clock.advance(1)
        pool.harvest(8 * n, ServerConfig.harvest_deadline_ms)
        out += pool.extract(n)[:DELTA_S]
        clock.advance(1)
    return bytes(out)


def igamc(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function Q(a, x), as
    SP 800-22 calls it: a series below x = a + 1, else a continued
    fraction (modified Lentz)."""
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * 1e-16:
            n += 1
            term *= x / n
            total += term
        return max(0.0, 1.0 - scale * total)
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h, i = d, 1
    while True:
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            return scale * h
        i += 1


def chi2_tail(statistic: float, dof: int) -> float:
    """P(X ≥ statistic) for X chi-square with dof degrees of freedom."""
    return igamc(dof / 2, statistic / 2)


def p_values(report) -> dict[str, float]:
    """Each test's p-value: two-sided normal for the z statistics, the
    upper tail for the byte chi-square."""
    return {"monobit": math.erfc(report["monobit"].statistic / math.sqrt(2)),
            "runs": math.erfc(abs(report["runs"].statistic) / math.sqrt(2)),
            "chi_square": chi2_tail(report["chi_square"].statistic,
                                    BYTE_DOF)}


def significance() -> dict[str, float]:
    """Each test's chance of failing an ideal MiB, from stats.py's
    thresholds."""
    lo, hi = CHI_SQUARE_RANGE
    return {"monobit": math.erfc(MONOBIT_Z_MAX / math.sqrt(2)),
            "runs": math.erfc(RUNS_Z_MAX / math.sqrt(2)),
            "chi_square": (chi2_tail(hi, BYTE_DOF)
                           + 1 - chi2_tail(lo, BYTE_DOF))}


def proportion_interval(alpha: float, m: int) -> tuple[float, float]:
    """§4.2.1's acceptable range of the passing share of m sequences."""
    p = 1 - alpha
    half = 3 * math.sqrt(p * (1 - p) / m)
    return p - half, min(1.0, p + half)


def uniformity(values: list[float]) -> float:
    """§4.2.2's P-value_T of values over BINS equal bins of [0, 1]."""
    counts = [0] * BINS
    for p in values:
        counts[min(int(p * BINS), BINS - 1)] += 1
    expected = len(values) / BINS
    return chi2_tail(sum((c - expected) ** 2 / expected for c in counts),
                     BINS - 1)


def sweep(seeds: range) -> bool:
    """Print the sweep's report; True iff every share lies in its
    interval and every test's p-values are uniform."""
    alphas = significance()
    names = list(alphas)
    values: dict[str, list[float]] = {name: [] for name in names}
    failed: dict[int, list[str]] = {}
    stream = hashlib.sha256()
    for seed in seeds:
        data = replica_mib(seed)
        stream.update(data)
        report = stats_suite(data)
        for name, p in p_values(report).items():
            values[name].append(p)
        bad = [name for name in names if not report[name].passed]
        if bad:
            failed[seed] = bad

    m = len(seeds)
    print(f"seeds {seeds.start}-{seeds.stop - 1}: {m} MiB, each "
          f"{REQUESTS} extracts of {DELTA_S} B from one binding")
    print(f"{'test':12s} {'passed':>11s}  {'§4.2.1 interval':18s} "
          f"{'P-value_T':>9s}")
    good = True
    rows = [(name, alphas[name],
             m - sum(name in bad for bad in failed.values()),
             uniformity(values[name])) for name in names]
    # All three pass together with chance (1 - a1)(1 - a2)(1 - a3),
    # taking the tests as independent.
    rows.append(("all three", 1 - math.prod(1 - a for a in alphas.values()),
                 m - len(failed), None))
    for name, alpha, passed, p_t in rows:
        lo, hi = proportion_interval(alpha, m)
        inside = lo <= passed / m <= hi
        uniform = p_t is None or p_t >= UNIFORMITY_MIN
        good &= inside and uniform
        shown = "" if p_t is None else f"{p_t:9.4f}"
        print(f"{name:12s} {passed:5d}/{m:<5d}  [{lo:.5f}, {hi:.5f}] "
              f"{shown:>9s}  {'ok' if inside and uniform else 'FAIL'}")
    print("failing seeds: " + (", ".join(
        f"{seed} ({'/'.join(bad)})" for seed, bad in failed.items())
        or "none"))
    print(f"stream sha256: {stream.hexdigest()}")
    return good


def seed_range(text: str) -> range:
    try:
        first, _, last = text.partition("-")
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range A-B: {text!r}")
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"empty or negative range: {text!r}")
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=range(100),
                        help="inclusive seed range A-B (default 0-99)")
    return 0 if sweep(parser.parse_args().seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
