"""Shared fixtures. RSA-3072 generation is the only expensive setup, so
keypairs are created once per session and reused everywhere."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from eaas import crypto
from eaas.config import ServerConfig
from eaas.harness import SimClock
from eaas.pool import EntropyPool, SourceDescriptor
from eaas.server import build_stack
from eaas.sources import SourceSpec


@pytest.fixture(scope="session")
def server_keypair():
    return crypto.generate_keypair()


@pytest.fixture(scope="session")
def client_keypair():
    return crypto.generate_keypair()


@pytest.fixture(scope="session")
def other_keypair():
    return crypto.generate_keypair()


def seeded_generator(seed: int):
    return random.Random(seed).randbytes


def make_pool(clock, *, seed: int = 0, n_sources: int = 2,
              density: Fraction = Fraction(1),
              max_rate: Fraction = Fraction(1 << 20)) -> EntropyPool:
    pool = EntropyPool(clock.now if isinstance(clock, SimClock) else clock)
    for i in range(n_sources):
        pool.register_source(
            SourceDescriptor(source_id=f"src{i}", declared_density=density,
                             max_rate=max_rate),
            seeded_generator(seed * 101 + i))
    return pool


def make_stack(server_keypair, *, seed: int = 0, max_delta_s: int = 4096,
               capacity: Fraction = Fraction(5),
               refill: Fraction = Fraction(1),
               n_sources: int = 2,
               density: Fraction = Fraction(1),
               max_rate: Fraction = Fraction(1 << 20)):
    """An injected-clock (clock, pool, ta, service) stack on one keypair,
    built as a server is; its sources are make_pool's generators."""
    clock = SimClock()
    sources = [SourceSpec(f"src{i}", "simulated-sensor", density, max_rate,
                          {"seed": str(seed * 101 + i)})
               for i in range(n_sources)]
    config = ServerConfig(max_delta_s=max_delta_s, throttle_capacity=capacity,
                          throttle_refill_rate=refill, clock_mode="injected",
                          sources=sources)
    pool, ta, service = build_stack(config, clock.now, keypair=server_keypair,
                                    rng=seeded_generator(seed + 7777))
    return clock, pool, ta, service


@pytest.fixture
def stack(server_keypair):
    return make_stack(server_keypair, capacity=Fraction(10 ** 6))
