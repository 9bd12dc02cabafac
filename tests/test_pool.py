"""Entropy pool tests: crediting arithmetic, health gating, extraction
oracle, conservation, and the ratchet."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import make_pool, seeded_generator
from eaas.errors import (
    BlockTooShort,
    DuplicateSourceId,
    EntropyDepleted,
    InsufficientCredit,
    NoSources,
)
from eaas.harness import SimClock
from eaas.pool import (
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
        """Frozen independently: sha256(be32(0) || 64 zero bytes)."""
        pool = EntropyPool(SimClock().now)
        pool._buffered = b"\x00" * 64
        pool._credited_bits = 512
        out = pool.extract(32)
        assert out.hex() == ("1751ac12e70e15b4f76c16775cd329ae"
                             "55973b612521dab2de828a5cdb6c8ab3")
        assert out == hashlib.sha256(b"\x00" * 4 + b"\x00" * 64).digest()

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
