"""Entropy pool tests: crediting arithmetic, health gating, extraction
oracle, conservation, and the ratchet."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pool, seeded_generator
from eaas.errors import (
    BlockTooShort,
    DuplicateSourceId,
    EntropyDepleted,
    InsufficientCredit,
    NoSources,
)
from eaas.harness import SimClock
from eaas import pool as pool_module
from eaas.pool import (
    OUT_TAG,
    RATCHET_TAG,
    EntropyPool,
    HealthState,
    SourceDescriptor,
    health_test,
)


def descriptor(sid="s", density=Fraction(1), rate=Fraction(1 << 20)):
    return SourceDescriptor(source_id=sid, declared_density=density,
                            max_rate=rate)


class TestRegistration:
    def test_two_sources_listed(self):
        pool = make_pool(SimClock(), n_sources=2)
        health = pool.status().per_source_health
        assert set(health) == {"src0", "src1"}
        assert all(h is HealthState.HEALTHY for h in health.values())

    def test_duplicate_id_rejected(self):
        pool = EntropyPool(SimClock().now)
        pool.register_source(descriptor("a"), seeded_generator(0))
        with pytest.raises(DuplicateSourceId):
            pool.register_source(descriptor("a"), seeded_generator(1))

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            descriptor(density=Fraction(0))
        with pytest.raises(ValueError):
            descriptor(density=Fraction(3, 2))
        with pytest.raises(ValueError):
            descriptor(rate=Fraction(0))


class TestCrediting:
    def test_density_half_credits_at_most_half(self):
        """Arithmetic oracle: credit = floor(pulled_bytes * 8 * density)."""
        clock = SimClock()
        pool = EntropyPool(clock.now)
        pulled = 0
        base = seeded_generator(3)

        def counting(n):
            nonlocal pulled
            pulled += n
            return base(n)

        pool.register_source(descriptor(density=Fraction(1, 2)), counting)
        pool.harvest(400, deadline_ms=1000)
        assert pool.total_credited_bits <= pulled * 8 * Fraction(1, 2)
        # 64-byte blocks at density 1/2 credit exactly 256 bits each
        assert pool.total_credited_bits == (pulled // 64) * 256

    def test_two_sources_cover_256_bits(self):
        pool = make_pool(SimClock(), n_sources=2)
        pool.harvest(256, deadline_ms=1000)
        state = pool.status()
        assert state.credited_bits >= 256

    def test_credit_never_exceeds_buffer_bits(self):
        pool = make_pool(SimClock(), n_sources=2,
                         density=Fraction(9, 10))
        for needed in (128, 700, 1500):
            pool.harvest(needed, deadline_ms=1000)
            state = pool.status()
            assert state.credited_bits <= 8 * len(state.buffered)


class TestHealthTest:
    def test_all_zeros_fails_repetition(self):
        assert health_test(b"\x00" * 64) is False

    def test_alternating_55_aa_passes(self):
        assert health_test(b"\x55\xaa" * 32) is True

    def test_short_block_raises(self):
        with pytest.raises(BlockTooShort):
            health_test(b"\x00" * 63)

    def test_biased_block_fails_monobit(self):
        # balanced alternation plus a 16-byte 0xFF run: 320 ones vs the
        # 256 expected, past 4*sqrt(128) ~ 45, but no run longer than 20
        block = b"\x55\xaa" * 24 + b"\xff" * 16
        ones = int.from_bytes(block, "big").bit_count()
        assert abs(ones - 256) > 4 * (2 * 64) ** 0.5
        assert health_test(block) is False

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 255), st.integers(1, 30)),
                         min_size=1, max_size=40),
           max_repeat=st.integers(0, 25))
    def test_matches_byte_loop(self, runs, max_repeat):
        """The repetition check agrees with a byte-by-byte run count."""
        block = b"".join(bytes([b]) * k for b, k in runs)
        block = (block * (-(-64 // len(block))))[:max(64, len(block))]
        longest = run = 1
        for prev, cur in zip(block, block[1:]):
            run = run + 1 if cur == prev else 1
            longest = max(longest, run)
        assert health_test(block, monobit_sigmas=1e9,
                           max_repeat=max_repeat) is (
            longest <= max(max_repeat, 1))

    def test_random_blocks_pass_rate(self):
        """4-sigma two-sided is ~6.3e-5; over 10^4 random 1024-byte
        blocks the failure count should be tiny (binomial tail)."""
        rng = random.Random(99)
        failures = sum(not health_test(rng.randbytes(1024))
                       for _ in range(10_000))
        assert failures <= 5


class TestHealthGating:
    def test_stuck_source_degrades_and_other_credits(self):
        clock = SimClock()
        pool = EntropyPool(clock.now)
        pool.register_source(descriptor("stuck"), lambda n: b"\x00" * n)
        pool.register_source(descriptor("good"), seeded_generator(5))
        pool.harvest(2048, deadline_ms=1000)
        state = pool.status()
        assert state.per_source_health["stuck"] is HealthState.DEGRADED
        assert state.per_source_health["good"] is HealthState.HEALTHY
        assert state.credited_bits >= 2048

    def test_degrade_within_five_blocks(self):
        clock = SimClock()
        pool = EntropyPool(clock.now)
        calls = 0

        def stuck(n):
            nonlocal calls
            calls += 1
            return b"\x42" * n

        pool.register_source(descriptor("stuck"), stuck)
        pool.register_source(descriptor("good"), seeded_generator(6))
        pool.harvest(4096, deadline_ms=1000)
        assert pool.status().per_source_health["stuck"] \
            is HealthState.DEGRADED
        assert calls <= 5

    def test_all_disabled_raises_no_sources(self):
        pool = make_pool(SimClock(), n_sources=2)
        pool.disable_source("src0")
        pool.disable_source("src1")
        with pytest.raises(NoSources):
            pool.harvest(8, deadline_ms=100)

    def test_empty_pool_raises_no_sources(self):
        pool = EntropyPool(SimClock().now)
        with pytest.raises(NoSources):
            pool.harvest(8, deadline_ms=100)

    def test_frozen_clock_exhausted_allowance_depletes(self):
        clock = SimClock()
        pool = make_pool(clock, n_sources=1, max_rate=Fraction(128))
        # 128-byte burst allowance = 2 blocks = 1024 bits at density 1
        with pytest.raises(EntropyDepleted):
            pool.harvest(2048, deadline_ms=10_000)
        assert pool.credited_bits == 1024

    def test_allowance_refills_with_time(self):
        clock = SimClock()
        pool = make_pool(clock, n_sources=1, max_rate=Fraction(128))
        with pytest.raises(EntropyDepleted):
            pool.harvest(2048, deadline_ms=10_000)
        clock.advance(1000)
        pool.harvest(2048, deadline_ms=10_000)
        state = pool.status()
        assert state.credited_bits >= 2048


class TestExtract:
    def test_zero_bytes_is_noop(self):
        pool = make_pool(SimClock())
        pool.harvest(256, deadline_ms=100)
        before = pool.credited_bits
        assert pool.extract(0) == b""
        assert pool.credited_bits == before

    def test_extract_oracle_on_zero_buffer(self):
        """Frozen independently: at density 1, 32 bytes take the first 32
        buffer bytes and the ratchet the other 32, both under
        G = sha256(OUT_TAG || 64 zero bytes)."""
        pool = EntropyPool(SimClock().now)
        pool._append(b"\x00" * 64, 512)
        out = pool.extract(32)
        assert out.hex() == ("9b780a5b79fb5c3eb10edad23e4c7359"
                             "b806eb9d1347d136d1b1e53a67e999dc")
        g = hashlib.sha256(b"EAAS-OUT-V2" + b"\x00" * 64).digest()
        assert out == hashlib.sha256(
            b"EAAS-OUT-V2" + b"\x00" * 4 + g + b"\x00" * 32).digest()
        assert pool.status().buffered == hashlib.sha256(
            b"EAAS-RATCHET-V2" + b"\x00" * 4 + g + b"\x00" * 32).digest()
        assert pool.credited_bits == 256

    def test_extract_oracle_slices_at_density_one(self):
        """48 bytes from two 64-byte records at density 1: output slices
        [0:32] and [32:48], ratchet slices [48:80], [80:112], [112:128]."""
        data = bytes(range(128))
        pool = EntropyPool(SimClock().now)
        pool._append(data[:64], 512)
        pool._append(data[64:], 512)
        out = pool.extract(48)
        g = hashlib.sha256(b"EAAS-OUT-V2" + data).digest()

        def blocks(tag, cuts):
            return b"".join(
                hashlib.sha256(tag + j.to_bytes(4, "big") + g
                               + data[a:b]).digest()
                for j, (a, b) in enumerate(zip(cuts, cuts[1:])))

        assert out == blocks(b"EAAS-OUT-V2", [0, 32, 48])[:48]
        assert pool.status().buffered == blocks(
            b"EAAS-RATCHET-V2", [48, 80, 112, 128])[:80]
        assert pool.credited_bits == 1024 - 384

    def test_insufficient_credit(self):
        pool = EntropyPool(SimClock().now)
        pool._buffered = b"\x07" * 64
        pool._credited_bits = 256
        with pytest.raises(InsufficientCredit):
            pool.extract(64)   # needs 512 > 256

    def test_credit_consumed(self):
        pool = make_pool(SimClock())
        pool.harvest(1024, deadline_ms=100)
        before = pool.credited_bits
        pool.extract(16)
        assert pool.credited_bits == before - 128

    def test_ratchet_shares_no_16_byte_substring(self):
        pool = make_pool(SimClock())
        pool.harvest(2048, deadline_ms=100)
        before = pool.status().buffered
        pool.extract(32)
        after = pool.status().buffered
        for i in range(len(before) - 15):
            assert before[i:i + 16] not in after

    def test_invariant_after_extract(self):
        pool = make_pool(SimClock())
        pool.harvest(4096, deadline_ms=100)
        pool.extract(100)
        state = pool.status()
        assert state.credited_bits <= 8 * len(state.buffered)


def floor_credit(records, offset):
    """Cumulative credit at a buffer offset, each record's credit spread
    evenly over its bytes, rounded down."""
    start = before = 0
    for data, credit in records:
        if offset <= start + len(data):
            return before + credit * (offset - start) // len(data)
        start += len(data)
        before += credit
    raise AssertionError("offset past the buffer")


def brute_cut(records, size, bits):
    return max(b for b in range(size + 1)
               if floor_credit(records, b) <= bits)


class _RecordingHashlib:
    """Stands in for hashlib inside eaas.pool and keeps every input."""

    def __init__(self):
        self.inputs = []

    def sha256(self, data=b""):
        self.inputs.append(bytes(data))
        return hashlib.sha256(data)


DENSITIES = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 3), Fraction(0))


class TestSegments:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.lists(st.tuples(st.integers(1, 96),
                                    st.sampled_from(DENSITIES)),
                          min_size=1, max_size=6),
           n_bytes=st.integers(1, 120), seed=st.integers(0, 2 ** 32))
    def test_disjoint_slices_cover_credit_intervals(self, shape, n_bytes,
                                                    seed):
        """Output block i is computed over its own slice, cut where the
        credit reaches the end of its interval [256*i, ...); the ratchet
        slices continue to the end of the buffer."""
        rng = random.Random(seed)
        records = [(rng.randbytes(length), length * 8 * d.numerator
                    // d.denominator) for length, d in shape]
        pool = EntropyPool(SimClock().now)
        for data, credit in records:
            pool._append(data, credit)
        buffer = b"".join(data for data, _ in records)
        total = sum(credit for _, credit in records)
        recorder = _RecordingHashlib()
        needed = 8 * n_bytes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pool_module, "hashlib", recorder)
            if needed > total:
                with pytest.raises(InsufficientCredit):
                    pool.extract(n_bytes)
                assert pool.status().buffered == buffer
                assert pool.credited_bits == total
                assert recorder.inputs == []
                return
            out = pool.extract(n_bytes)

        mix_input, *blocks = recorder.inputs
        assert mix_input == OUT_TAG + buffer
        g = hashlib.sha256(mix_input).digest()
        rest = total - needed
        keep = max(32, -(-rest // 8))
        intervals = ([(OUT_TAG, lo, min(lo + 256, needed))
                      for lo in range(0, needed, 256)]
                     + [(RATCHET_TAG, lo, min(lo + 256, total))
                        for lo in range(needed, needed + 8 * keep, 256)])
        assert len(blocks) == len(intervals)
        offset, index = 0, {OUT_TAG: 0, RATCHET_TAG: 0}
        digests = {OUT_TAG: b"", RATCHET_TAG: b""}
        for i, (data, (tag, lo, hi)) in enumerate(zip(blocks, intervals)):
            head = tag + index[tag].to_bytes(4, "big") + g
            assert data.startswith(head)
            index[tag] += 1
            digests[tag] += hashlib.sha256(data).digest()
            piece = data[len(head):]
            # slices are ordered, disjoint, and leave no byte out
            assert buffer[offset:offset + len(piece)] == piece
            start, offset = offset, offset + len(piece)
            assert floor_credit(records, start) <= lo
            if i < len(blocks) - 1:
                assert offset == brute_cut(records, len(buffer), hi)
        assert offset == len(buffer)
        assert out == digests[OUT_TAG][:n_bytes]
        assert pool.status().buffered == digests[RATCHET_TAG][:keep]
        assert pool.credited_bits == rest
        assert pool.credited_bits <= 8 * len(pool.status().buffered)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.lists(st.tuples(st.integers(1, 96),
                                    st.sampled_from(DENSITIES
                                                    + (Fraction(1, 16),))),
                          min_size=1, max_size=6))
    def test_cuts_match_brute_force_at_record_ends(self, shape):
        """Every target at, just below or just above a record's
        cumulative credit, where zero- and low-credit records sit."""
        records = [(bytes(length), length * 8 * d.numerator
                    // d.denominator) for length, d in shape]
        pool = EntropyPool(SimClock().now)
        for data, credit in records:
            pool._append(data, credit)
        size = sum(len(data) for data, _ in records)
        targets = sorted({max(c + d, 0) for c in [0, *pool._cum]
                          for d in (-1, 0, 1)})
        assert pool._cuts(targets) == [brute_cut(records, size, t)
                                       for t in targets]


class TestAllowance:
    @settings(max_examples=100, deadline=None)
    @given(rate=st.fractions(min_value=Fraction(1, 7), max_value=4096,
                             max_denominator=1000),
           steps=st.lists(st.one_of(st.integers(-50, 5000), st.none()),
                          max_size=60))
    def test_integer_allowance_matches_fraction_oracle(self, rate, steps):
        """Integer allowance in 1/(1000*q) byte units equals the Fraction
        arithmetic it replaced: refill by rate*ms/1000 up to a one-second
        burst, a pull spends one 64-byte block when the allowance covers
        it. Steps are clock moves (possibly backwards) or pulls."""
        now = calls = 0
        base = seeded_generator(0)

        def counting(n):
            nonlocal calls
            calls += 1
            return base(n)

        pool = EntropyPool(lambda: now)
        pool.register_source(descriptor(rate=rate), counting)
        source = pool._sources["s"]
        allowance, last, pulls = Fraction(rate), 0, 0
        for step in steps:
            if step is not None:
                now += step
                continue
            if now > last:
                allowance = min(Fraction(rate),
                                allowance + rate * Fraction(now - last, 1000))
            last = now
            if allowance >= 64:
                allowance -= 64
                pulls += 1
            pool._pull(source, 1)
            assert calls == pulls
            assert source.allowance == allowance * source.unit


class TestConservation:
    def test_random_operation_sequence(self):
        """No entropy expansion over a randomized op mix."""
        rng = random.Random(412)
        clock = SimClock()
        pool = make_pool(clock, n_sources=2, density=Fraction(3, 4))
        for _ in range(600):
            op = rng.random()
            if op < 0.45:
                try:
                    pool.harvest(rng.randrange(1, 2048), deadline_ms=50)
                except EntropyDepleted:
                    pass
            elif op < 0.9:
                n = rng.randrange(0, 128)
                try:
                    pool.extract(n)
                except InsufficientCredit:
                    assert 8 * n > pool.credited_bits
            else:
                clock.advance(rng.randrange(0, 200))
            assert (pool.total_extracted_bytes * 8
                    <= pool.total_credited_bits)
            state = pool.status()
            assert state.credited_bits <= 8 * len(state.buffered)

    def test_masked_constant_source_output_is_balanced(self):
        """One adversarial constant source among two cannot push the
        conditioned output past the module's own health checks."""
        clock = SimClock()
        pool = EntropyPool(clock.now)
        pool.register_source(descriptor("adv"), lambda n: b"\xff" * n)
        pool.register_source(descriptor("good"), seeded_generator(17))
        pool.harvest(8 * 1024, deadline_ms=1000)
        out = pool.extract(1024)
        assert health_test(out) is True


# -- streamed harvest against the one-block-per-pull harvest it replaced ----

def reference_health_test(block, *, monobit_sigmas=4.0, max_repeat=20):
    """The per-block health test as it stood before the chunk pass."""
    n = len(block)
    value = int.from_bytes(block, "big")
    if abs(value.bit_count() - 4 * n) > monobit_sigmas * math.sqrt(2 * n):
        return False
    steps = (value ^ (value >> 8)).to_bytes(n, "big")[1:]
    return bytes(max(max_repeat, 1)) not in steps


def reference_harvest(pool, needed_bits, deadline_ms):
    """Round-robin harvest with one generator call, one allowance debit
    and one health test per block, on ``pool``'s own state. When a pass
    credits nothing, the EntropyDepleted it raises carries whether that
    pass pulled a block as its second argument."""
    start = pool._clock()
    while pool._credited_bits < needed_bits:
        healthy = [s for s in pool._sources.values()
                   if s.health is HealthState.HEALTHY]
        if not healthy:
            raise NoSources("no healthy entropy source registered")
        if pool._clock() - start > deadline_ms:
            raise EntropyDepleted("deadline")
        progress = pulled = 0
        for source in healthy:
            credit, block = reference_pull_block(pool, source)
            progress += credit
            pulled += block
            if pool._credited_bits >= needed_bits:
                break
        if progress == 0:
            raise EntropyDepleted("sources exhausted", bool(pulled))


def reference_pull_block(pool, source):
    """(bits credited, whether a block was pulled)."""
    source.refill(pool._clock())
    cost = pool._block_bytes * source.unit
    if source.allowance < cost:
        return 0, False
    block = source.generator(pool._block_bytes)
    if len(block) != pool._block_bytes:
        return 0, False
    source.allowance -= cost
    if not reference_health_test(block, monobit_sigmas=pool._monobit_sigmas,
                                 max_repeat=pool._max_repeat):
        source.consecutive_failures += 1
        if source.consecutive_failures >= pool._degrade_after:
            source.health = HealthState.DEGRADED
        return 0, True
    source.consecutive_failures = 0
    credit = (len(block) * 8 * source.density.numerator
              // source.density.denominator)
    pool._append(block, credit)
    pool.total_credited_bits += credit
    return credit, True


# 32-byte tape segments that fail a 64-byte block: a stuck run, or a
# bit bias with no run (7 ones per byte, past 4 sigma with any partner).
STUCK, BIASED = bytes(32), b"\xfe\x7f" * 16


class Tape:
    """A source whose bytes depend only on their stream position:
    segment k is SHA-256(seed || k), or a failing pattern where
    ``bad(k)`` names one. ``pos`` is the next byte's position."""

    def __init__(self, seed, bad=lambda k: None):
        self.seed, self.bad, self.pos = seed, bad, 0

    def segment(self, k):
        return self.bad(k) or hashlib.sha256(
            self.seed.to_bytes(8, "big") + k.to_bytes(8, "big")).digest()

    def __call__(self, n):
        first, last = self.pos // 32, -(-(self.pos + n) // 32)
        data = b"".join(map(self.segment, range(first, last)))
        skip = self.pos - 32 * first
        self.pos += n
        return data[skip:skip + n]


def rare_failures(seed, rate):
    """Segments that fail independently with probability ``rate``."""
    def bad(k):
        roll = random.Random(seed * 1_000_003 + k).random()
        return (STUCK if roll < rate / 2 else BIASED) if roll < rate else None
    return bad


def pool_view(pool):
    return (bytes(pool._buffered), list(pool._ends), list(pool._cum),
            pool.credited_bits, pool.total_credited_bits,
            pool.total_extracted_bytes,
            {sid: (s.health, s.consecutive_failures)
             for sid, s in pool._sources.items()})


def stream_view(pool):
    """Allowance, refilled to now, and tape position of each healthy
    source."""
    now = pool._clock()
    return {sid: (min(s.burst, s.allowance + s.refill_per_ms
                      * max(now - s.last_refill_ms, 0)), s.generator.pos)
            for sid, s in pool._sources.items()
            if s.health is HealthState.HEALTHY}


SOURCE_SHAPES = st.tuples(
    st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 2),
                     Fraction(1, 3)]),
    st.one_of(st.just(Fraction(1 << 20)),                  # never binds
              st.fractions(min_value=64, max_value=4096,
                           max_denominator=7)),            # binds
    st.sampled_from([0, 1 / 400, 1 / 40, 1 / 8]))          # failure rate
POOL_OPS = st.lists(st.one_of(
    st.tuples(st.just("harvest"), st.integers(1, 40_000),
              st.sampled_from([2000, 0, -1])),
    st.tuples(st.just("advance"), st.integers(0, 1500), st.none()),
    st.tuples(st.just("extract"), st.integers(0, 1200), st.none())),
    min_size=1, max_size=25)


class TestStreamedHarvest:
    @settings(max_examples=150, deadline=None)
    @given(shapes=st.lists(SOURCE_SHAPES, min_size=1, max_size=3),
           ops=POOL_OPS, seed=st.integers(0, 2 ** 32),
           block_bytes=st.sampled_from([64, 64, 96]),
           degrade_after=st.sampled_from([1, 3]))
    def test_matches_one_block_per_pull_reference(self, shapes, ops, seed,
                                                  block_bytes,
                                                  degrade_after):
        """Same buffer, records, credit, health, failure streaks and
        exception as the reference, op for op. Only where a pass raises
        after every block in it failed may blocks the round pulled for
        later passes go missing, so that ends the run."""
        clock = SimClock()
        pool, ref = (EntropyPool(clock.now, block_bytes=block_bytes,
                                 degrade_after=degrade_after)
                     for _ in range(2))
        for subject in (pool, ref):
            for i, (density, rate, fail) in enumerate(shapes):
                subject.register_source(
                    descriptor(f"s{i}", density, rate),
                    Tape(seed + i, rare_failures(seed + i, fail)))
        for op, arg, deadline in ops:
            if op == "advance":
                clock.advance(arg)
                continue
            outcomes = []
            for subject in (pool, ref):
                try:
                    if op == "extract":
                        subject.extract(arg)
                    elif subject is pool:
                        pool.harvest(arg, deadline)
                    else:
                        reference_harvest(ref, arg, deadline)
                    outcomes.append((None, False))
                except (EntropyDepleted, NoSources,
                        InsufficientCredit) as exc:
                    outcomes.append((type(exc), exc.args[1:] == (True,)))
            assert outcomes[0][0] == outcomes[1][0]
            assert pool_view(pool) == pool_view(ref)
            if outcomes[1][1]:
                return
            assert stream_view(pool) == stream_view(ref)

    @settings(max_examples=100, deadline=None)
    @given(shapes=st.lists(SOURCE_SHAPES, min_size=1, max_size=3),
           ops=POOL_OPS, seed=st.integers(0, 2 ** 32),
           stuck=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 60)),
                          max_size=4),
           degrade_after=st.sampled_from([1, 2, 3]))
    def test_heavy_failure_keeps_the_invariants(self, shapes, ops, seed,
                                                stuck, degrade_after):
        """Stuck stretches and degrading sources: conservation, credit
        within the buffer, each record one passing block credited at its
        source's density, each source's blocks in stream order, and none
        after the block that degraded it; allowance never below 0."""
        clock = SimClock()
        pool = EntropyPool(clock.now, degrade_after=degrade_after)
        tapes = {}
        for i, (density, rate, fail) in enumerate(shapes):
            rare = rare_failures(seed + i, fail)

            def bad(k, rare=rare, i=i):
                hit = any(a <= k - 7 * i < a + n for a, n in stuck)
                return STUCK if hit else rare(k)

            tapes[f"s{i}"] = Tape(seed + i, bad)
            pool.register_source(descriptor(f"s{i}", density, rate),
                                 tapes[f"s{i}"])

        def tape_block(tape, j):
            return tape.segment(2 * j) + tape.segment(2 * j + 1)

        where = {}      # 64-byte tape block -> (source id, block index)
        credited = {sid: [] for sid in tapes}
        for op, arg, deadline in ops:
            if op == "advance":
                clock.advance(arg)
                continue
            if op == "extract":
                try:
                    pool.extract(arg)
                except InsufficientCredit:
                    pass
                continue
            first = len(pool._ends)
            before = {sid: (s.consecutive_failures, s.generator.pos // 64)
                      for sid, s in pool._sources.items()
                      if s.health is HealthState.HEALTHY}
            try:
                pool.harvest(arg, deadline)
                depleted = False
            except NoSources:
                depleted = False
            except EntropyDepleted:
                depleted = True
            for sid, tape in tapes.items():
                for j in range(before.get(sid, (0, 0))[1], tape.pos // 64):
                    where.setdefault(tape_block(tape, j), (sid, j))
            buffer = bytes(pool._buffered)
            ends, cum = [0, *pool._ends], [0, *pool._cum]
            new = {sid: [] for sid in tapes}
            for k in range(first, len(pool._ends)):
                record = buffer[ends[k]:ends[k + 1]]
                sid, j = where[record]
                density = pool._sources[sid].density
                assert cum[k + 1] - cum[k] == (
                    64 * 8 * density.numerator // density.denominator)
                assert health_test(record)
                new[sid].append(j)
            for sid, tape in tapes.items():
                credited[sid] += new[sid]
                assert credited[sid] == sorted(set(credited[sid]))
                source = pool._sources[sid]
                assert source.allowance >= 0
                if depleted or sid not in before:
                    # A pass that raised may have left blocks of later
                    # passes pulled and untested.
                    continue
                streak, start = before[sid]
                degraded_at = None
                for j in range(start, tape.pos // 64):
                    streak = 0 if health_test(tape_block(tape, j)) \
                        else streak + 1
                    if streak >= degrade_after:
                        degraded_at = j
                        break
                if degraded_at is None:
                    assert source.health is HealthState.HEALTHY
                    assert source.consecutive_failures == streak
                else:
                    assert source.health is HealthState.DEGRADED
                    assert all(j < degraded_at for j in new[sid])
            assert (pool.credited_bits == pool.total_credited_bits
                    - 8 * pool.total_extracted_bytes)
            assert pool.credited_bits <= 8 * len(pool._buffered)

    def test_source_degraded_mid_round_leaves_the_pass(self):
        """The second source degrades at its first block, in the first
        of the round's passes: the round's later steps for it are
        skipped, it is dropped from the pass the round stopped in, and
        the next round starts a new pass."""
        pools = []
        for harvest in (EntropyPool.harvest, reference_harvest):
            pool = EntropyPool(SimClock().now, degrade_after=1)
            pool.register_source(descriptor("a"), Tape(1))
            pool.register_source(descriptor("b"),
                                 Tape(2, lambda k: STUCK if k < 2 else None))
            harvest(pool, 5 * 512, 1000)
            pools.append(pool)
        assert pool_view(pools[0]) == pool_view(pools[1])
        assert pools[0].status().per_source_health["b"] \
            is HealthState.DEGRADED
        assert pools[0]._cum == [512, 1024, 1536, 2048, 2560]


class TestChunkHealth:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32),
           runs=st.lists(st.tuples(st.integers(0, 480), st.integers(2, 50),
                                   st.integers(0, 255)), max_size=6),
           blocks=st.integers(1, 6), block_bytes=st.sampled_from([64, 80]),
           max_repeat=st.integers(0, 25),
           monobit_sigmas=st.sampled_from([2.0, 3.0, 4.0, 1e9]))
    def test_verdicts_match_health_test_per_block(self, seed, runs, blocks,
                                                  block_bytes, max_repeat,
                                                  monobit_sigmas):
        """Runs planted in random bytes, often across a block boundary:
        each block is judged on its own bytes, as the one-block test and
        the earlier per-block test judge it."""
        size = blocks * block_bytes
        data = bytearray(random.Random(seed).randbytes(size))
        for at, length, value in runs:
            data[at:at + length] = bytes([value]) * len(data[at:at + length])
        data = bytes(data)
        kwargs = dict(monobit_sigmas=monobit_sigmas, max_repeat=max_repeat)
        pieces = [data[i:i + block_bytes]
                  for i in range(0, size, block_bytes)]
        assert pool_module.failing_blocks(data, block_bytes, **kwargs) == {
            i for i, block in enumerate(pieces)
            if not health_test(block, **kwargs)}
        assert [health_test(block, **kwargs) for block in pieces] == [
            reference_health_test(block, **kwargs) for block in pieces]

    def test_short_blocks_rejected(self):
        with pytest.raises(BlockTooShort):
            pool_module.failing_blocks(bytes(126), 63)


class TestStreamCounts:
    def test_bulk_harvest_is_one_call_per_source(self):
        clock = SimClock()
        pool = EntropyPool(clock.now)
        calls = {}
        for sid, density, seed in (("a", Fraction(3, 4), 1),
                                   ("b", Fraction(1, 2), 2)):
            base = seeded_generator(seed)

            def counting(n, sid=sid, base=base):
                calls[sid] = calls.get(sid, 0) + 1
                return base(n)

            pool.register_source(descriptor(sid, density), counting)
        pool.harvest(8 * 16400, deadline_ms=2000)
        assert calls == {"a": 1, "b": 1}
        assert pool.credited_bits >= 8 * 16400

    def test_stuck_source_among_three_degrades_after_one_call(self):
        clock = SimClock()
        pool = EntropyPool(clock.now)
        calls = 0

        def stuck(n):
            nonlocal calls
            calls += 1
            return b"\x5a" * n

        pool.register_source(descriptor("stuck"), stuck)
        for i in range(2):
            pool.register_source(descriptor(f"good{i}"),
                                 seeded_generator(777 + i))
        pool.harvest(8 * 16400, deadline_ms=2000)
        assert pool.status().per_source_health["stuck"] \
            is HealthState.DEGRADED
        assert calls == 1
        assert pool.credited_bits >= 8 * 16400

    @pytest.mark.parametrize("seed, digest", [
        (0, "908ebedabb68aab5d66aefb63f2b9a20"
            "fd58fc8ec67fd1ef46a5792893ba2552"),
        (1, "48f324620371e49cbc3b3e9aafa83633"
            "164bf732bc963ceb0020f39435099542"),
    ])
    def test_criterion_7_shape_stream_is_pinned(self, seed, digest):
        """Frozen from the one-block-per-pull harvest: 64 requests of
        16,400 bytes, criterion 7's shape, give the same bytes."""
        clock = SimClock()
        pool = make_pool(clock, seed=seed)
        stream = hashlib.sha256()
        for _ in range(64):
            clock.advance(1)
            pool.harvest(8 * 16400, 2000)
            stream.update(pool.extract(16400))
            clock.advance(1)
        assert stream.hexdigest() == digest
