"""A source whose generator raises or returns the wrong length: each such
pull is a failing block, so the source degrades and the service keeps
serving from the others."""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

from eaas import client as client_mod
from eaas.config import DEFAULT_PLATFORM_MEASUREMENT, ServerConfig
from eaas.errors import EntropyDepleted, NoSources
from eaas.harness import SimClock
from eaas.pool import EntropyPool, HealthState, SourceDescriptor
from eaas.server import EntropyService
from eaas.trusted import TrustedApplication

RATE = Fraction(1 << 20)


def unplugged(n: int) -> bytes:
    raise OSError("sensor unplugged")


def short(n: int) -> bytes:
    return os.urandom(n - 1)


class Interrupted(BaseException):
    pass


def interrupted(n: int) -> bytes:
    raise Interrupted


def pool_with(*generators) -> EntropyPool:
    pool = EntropyPool(SimClock().now)
    for i, generator in enumerate(generators):
        pool.register_source(SourceDescriptor(f"s{i}", Fraction(1), RATE),
                             generator)
    return pool


@pytest.mark.parametrize("failing", [unplugged, short])
def test_failing_source_degrades_beside_a_good_one(failing):
    pool = pool_with(os.urandom, failing)
    pool.harvest(8 * 4096, 2000)
    assert pool.credited_bits >= 8 * 4096
    health = pool.status().per_source_health
    assert health == {"s0": HealthState.HEALTHY, "s1": HealthState.DEGRADED}


@pytest.mark.parametrize("failing", [unplugged, short])
def test_lone_failing_source_depletes_then_degrades(failing):
    """Each harvest fails typed; the third failing pull degrades it."""
    pool = pool_with(failing)
    for _ in range(3):
        with pytest.raises(EntropyDepleted):
            pool.harvest(512, 2000)
    assert pool.status().per_source_health["s0"] is HealthState.DEGRADED
    with pytest.raises(NoSources):
        pool.harvest(512, 2000)


def test_base_exception_is_not_a_failing_pull():
    pool = pool_with(os.urandom, interrupted)
    with pytest.raises(Interrupted):
        pool.harvest(8 * 4096, 2000)


@pytest.mark.parametrize("failing", [unplugged, short])
def test_service_answers_200(failing, server_keypair, client_keypair):
    clock = SimClock()
    pool = EntropyPool(clock.now)
    for sid, generator in (("good", os.urandom), ("bad", failing)):
        pool.register_source(SourceDescriptor(sid, Fraction(1), RATE),
                             generator)
    ta = TrustedApplication(server_keypair, pool,
                            sm_measurement=DEFAULT_PLATFORM_MEASUREMENT,
                            clock=clock.now)
    service = EntropyService(
        ServerConfig(throttle_capacity=Fraction(10 ** 6),
                     clock_mode="injected"), ta, clock.now)
    identity = client_mod.ClientIdentity(
        keypair=client_keypair, server_public=server_keypair.public,
        store_path=Path("<test>"))
    body, t1 = client_mod.build_request(identity, 4096, clock=clock.now)
    clock.advance(1)
    status, reply, _ = service.handle_entropy(body)
    assert status == 200, reply
    assert len(client_mod.verify_response(
        reply, t1=t1, delta_s=4096, server_public=server_keypair.public,
        secret_key=client_keypair.secret, now=clock.now())) == 4096
    assert pool.status().per_source_health["bad"] is HealthState.DEGRADED
