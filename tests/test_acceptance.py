"""Acceptance suite: one test per criterion, printing a pass line each.

Criteria summary (tolerances pinned here, nothing deferred):
  1. 1,000 round trips (delta_s=32, injected clock) with zero
     verification failures, under 120 s, keys generated once.
  2. Tamper matrix over 8 fields: designated typed error 100/100 per
     field, randomized mutation positions, zero entropy returned.
  3. Freshness: t2 <= t1 always rejected (including t2 == t1); replayed
     responses fail against every later request's t1.
  4. Throttle vs an independent discrete-event token-bucket oracle:
     grant-for-grant over 10,000 events (C=5, r=1/s).
  5. Conservation over 10,000 randomized pool steps; extraction beyond
     credit always raises.
  6. A 4,105-byte payload seals in one envelope while RSA-3072-OAEP caps
     at 318 bytes.
  7. 1 MiB of server-delivered entropy passes monobit/runs/chi-square at
     the fixed thresholds in >= 99.9% of 100 seeded runs; a stuck source
     among three degrades within 5 blocks and output still passes.
  8. Attestation: issued triple accepted; each single-component
     substitution rejected with its own reason.
  9. TCB boundary: untrusted surface returns no secrets; no session key
     or entropy bytes in logs across criterion 1's run.
"""

from __future__ import annotations

import base64
import logging
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_pool, make_stack, seeded_generator
from eaas import client as client_mod
from eaas import crypto, wire
from eaas.config import DEFAULT_PLATFORM_MEASUREMENT
from eaas.errors import (
    BadServerSignature,
    EntropyDepleted,
    InsufficientCredit,
    QuoteRejected,
    Stale,
)
from eaas.harness import SimClock
from eaas.pool import EntropyPool, HealthState, SourceDescriptor
from eaas.server import EntropyService, ThrottleTable
from eaas.stats import stats_suite
from eaas.trusted import (
    TaCommand,
    TaStatus,
    TrustedApplication,
    encode_command,
    module_measurement,
)
from test_client import forge_response


def identity_for(client_keypair, server_keypair):
    return client_mod.ClientIdentity(
        keypair=client_keypair, server_public=server_keypair.public,
        store_path=Path("<acceptance>"))


def ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


# --- criterion 1 (shared with criterion 9) ----------------------------------

@pytest.fixture(scope="module")
def thousand_roundtrips(server_keypair, client_keypair):
    """1,000 served round trips with instrumented extraction and captured
    logs; consumed by criteria 1 and 9."""
    clock, pool, ta, service = make_stack(
        server_keypair, seed=101, capacity=Fraction(10 ** 6))
    identity = identity_for(client_keypair, server_keypair)

    extracted: list[bytes] = []
    original_extract = pool.extract
    pool.extract = lambda n: _record(original_extract, extracted, n)

    logger = logging.getLogger("eaas")
    records: list[str] = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    handler = Capture(level=logging.DEBUG)
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)

    failures = []
    start = time.monotonic()
    try:
        for i in range(1000):
            body, t1 = client_mod.build_request(
                identity, 32, clock=clock.now)
            clock.advance(1)
            status, reply, _ = service.handle_entropy(body)
            if status != 200:
                failures.append((i, status, reply))
                continue
            try:
                entropy = client_mod.verify_response(
                    reply, t1=t1, delta_s=32,
                    server_public=server_keypair.public,
                    secret_key=client_keypair.secret, now=clock.now())
            except Exception as exc:   # any verification failure is data
                failures.append((i, 200, repr(exc)))
                continue
            if len(entropy) != 32:
                failures.append((i, 200, "wrong length"))
            clock.advance(1)
    finally:
        elapsed = time.monotonic() - start
        logger.removeHandler(handler)
        logger.setLevel(old_level)
        pool.extract = original_extract

    return {"failures": failures, "elapsed": elapsed,
            "log_text": "\n".join(records), "extracted": extracted,
            "service": service, "ta": ta}


def _record(fn, sink, n):
    out = fn(n)
    sink.append(out)
    return out


def test_criterion_1_end_to_end(thousand_roundtrips):
    run = thousand_roundtrips
    assert run["failures"] == []
    assert run["elapsed"] < 120.0
    # no key reuse: each served response drew a fresh session key (the
    # trailing 16 bytes of every 48-byte extraction)
    session_keys = {out[32:] for out in run["extracted"]}
    assert len(session_keys) == 1000
    ok(1, f"1000/1000 round trips verified in {run['elapsed']:.1f}s "
          "(zero verification failures, 1000 distinct session keys)")


# --- criterion 2 -------------------------------------------------------------

TRIALS = 100


def _serve(service, clock, body):
    clock.advance(1)
    return service.handle_entropy(body)


def _request_side_trial(field, rng, identity, server_keypair, service,
                        clock):
    """Build a request with one mutated field; returns the error token."""
    delta_s = 32
    pub_der = identity.keypair.public_der
    sigma1 = crypto.sign(identity.keypair.secret, crypto.REQUEST_TAG,
                         crypto.request_signing_bytes(pub_der, delta_s))
    hint = wire.fingerprint(pub_der)
    if field == "pk_iot":
        # random position inside the modulus keeps the key parseable;
        # the adversary fixes the hint to match the swapped key
        pos = rng.randrange(len(pub_der) - 120, len(pub_der) - 10)
        mutated = bytearray(pub_der)
        mutated[pos] ^= rng.randrange(1, 256)
        pub_der = bytes(mutated)
        hint = wire.fingerprint(pub_der)
    elif field == "delta_s":
        delta_s = delta_s ^ (1 << rng.randrange(5))   # stays in [33, 48]
    elif field == "sigma1":
        pos = rng.randrange(len(sigma1))
        mutated = bytearray(sigma1)
        mutated[pos] ^= rng.randrange(1, 256)
        sigma1 = bytes(mutated)
    body = hint + wire.encode_request(wire.EntropyRequest(
        client_pub_key=pub_der, delta_s=delta_s, sigma1=sigma1))
    if field == "hint":
        mutated = bytearray(body)
        mutated[rng.randrange(32)] ^= rng.randrange(1, 256)
        body = bytes(mutated)
    status, reply, _ = _serve(service, clock, body)
    assert status != 200
    return reply.decode()


def _response_side_trial(field, rng, identity, server_keypair, service,
                         clock):
    """Serve honestly, mutate one envelope field, run verification."""
    body, t1 = client_mod.build_request(identity, 32, clock=clock.now)
    status, reply, _ = _serve(service, clock, body)
    assert status == 200
    env = wire.decode_envelope(reply)
    value = getattr(env, field)
    mutated = bytearray(value)
    mutated[rng.randrange(len(value))] ^= rng.randrange(1, 256)
    env = replace(env, **{field: bytes(mutated)})
    try:
        client_mod.verify_response(
            wire.encode_envelope(env), t1=t1, delta_s=32,
            server_public=identity.server_public,
            secret_key=identity.keypair.secret, now=clock.now())
    except Exception as exc:
        return type(exc).__name__
    return "ENTROPY RETURNED"


def test_criterion_2_tamper_matrix(server_keypair, client_keypair):
    clock, _, _, service = make_stack(server_keypair, seed=55,
                                      capacity=Fraction(10 ** 9))
    identity = identity_for(client_keypair, server_keypair)
    rng = random.Random(424242)

    designations = {
        "pk_iot": ("request", "bad-signature"),
        "delta_s": ("request", "bad-signature"),
        "sigma1": ("request", "bad-signature"),
        "hint": ("request", "hint-mismatch"),
        "wrapped_key": ("response", "BadServerSignature"),
        "nonce": ("response", "BadServerSignature"),
        "ciphertext": ("response", "BadServerSignature"),
        "sigma2": ("response", "BadServerSignature"),
    }
    for field, (side, designated) in designations.items():
        trial = (_request_side_trial if side == "request"
                 else _response_side_trial)
        results = [trial(field, rng, identity, server_keypair, service,
                         clock)
                   for _ in range(TRIALS)]
        hits = sum(r == designated for r in results)
        assert hits == TRIALS, (field, designated, set(results))
        assert "ENTROPY RETURNED" not in results
    ok(2, f"8 fields x {TRIALS}/{TRIALS} designated errors, "
          "zero entropy returned")


# --- criterion 3 -------------------------------------------------------------

def test_criterion_3_freshness(server_keypair, client_keypair):
    identity = identity_for(client_keypair, server_keypair)

    # exhaustive small grid around t1, strict inequality at the boundary
    rejected = accepted = 0
    for t1 in (1000, 5000):
        for dt in (-3, -2, -1, 0, 1, 2, 3):
            t2 = t1 + dt
            reply = forge_response(client_keypair, server_keypair,
                                   t2=t2, entropy=b"\x33" * 32)
            try:
                client_mod.verify_response(
                    reply, t1=t1, delta_s=32,
                    server_public=server_keypair.public,
                    secret_key=client_keypair.secret, now=t2 + 1)
                accepted += 1
                assert t2 > t1
            except Stale:
                rejected += 1
                assert t2 <= t1
    assert rejected == 2 * 4 and accepted == 2 * 3

    # a captured response replayed against every later request's t1
    clock, _, _, service = make_stack(server_keypair, seed=77,
                                      capacity=Fraction(10 ** 6))
    body, t1 = client_mod.build_request(identity, 32, clock=clock.now)
    clock.advance(1)
    status, captured, _ = service.handle_entropy(body)
    assert status == 200
    replay_failures = 0
    gaps = random.Random(3)
    for _ in range(10):
        clock.advance(gaps.randrange(1, 500) + 1)
        later_t1 = clock.now()
        with pytest.raises(Stale):
            client_mod.verify_response(
                captured, t1=later_t1, delta_s=32,
                server_public=server_keypair.public,
                secret_key=client_keypair.secret, now=clock.now())
        replay_failures += 1
    assert replay_failures == 10
    ok(3, "t2 <= t1 rejected on the full grid (incl. t2 == t1); "
          "10/10 replays stale")


# --- criterion 4 -------------------------------------------------------------

class IntegerBucketOracle:
    """Independent discrete-event oracle in integer milli-tokens.

    Exact for C=5, r=1 token/s: one milli-token per elapsed ms.
    """

    CAPACITY_MILLI = 5_000
    REFILL_PER_MS = 1

    def __init__(self):
        self.state: dict[bytes, tuple[int, int]] = {}

    def check(self, fp: bytes, now_ms: int) -> bool:
        tokens, last = self.state.get(fp, (self.CAPACITY_MILLI, now_ms))
        tokens = min(self.CAPACITY_MILLI,
                     tokens + self.REFILL_PER_MS * max(0, now_ms - last))
        granted = tokens >= 1000
        if granted:
            tokens -= 1000
        self.state[fp] = (tokens, now_ms)
        return granted


def test_criterion_4_throttle_oracle():
    table = ThrottleTable(Fraction(5), Fraction(1))
    oracle = IntegerBucketOracle()
    rng = random.Random(40_000)
    fingerprints = [bytes([i]) * 32 for i in range(6)]
    now = 0
    grants = 0
    for event in range(10_000):
        now += rng.choice((0, 0, 1, 2, 5, 17, 100, 250, 1000))
        fp = rng.choice(fingerprints)
        got = table.check(fp, now)[0]
        expected = oracle.check(fp, now)
        assert got == expected, f"event {event}: {got} != {expected}"
        grants += got
    assert 0 < grants < 10_000
    ok(4, f"10,000 events grant-for-grant with the integer oracle "
          f"({grants} grants)")


# --- criterion 5 -------------------------------------------------------------

def test_criterion_5_extraction_conservation():
    rng = random.Random(50_000)
    clock = SimClock()
    pool = make_pool(clock, seed=50, n_sources=2, density=Fraction(2, 3))
    over_credit_rejections = 0
    for step in range(10_000):
        roll = rng.random()
        if roll < 0.4:
            try:
                pool.harvest(rng.randrange(1, 1024), deadline_ms=50)
            except EntropyDepleted:
                pass
        elif roll < 0.9:
            n = rng.randrange(0, 96)
            if 8 * n > pool.credited_bits:
                with pytest.raises(InsufficientCredit):
                    pool.extract(n)
                over_credit_rejections += 1
            else:
                pool.extract(n)
        else:
            clock.advance(rng.randrange(0, 100))
        assert 8 * pool.total_extracted_bytes <= pool.total_credited_bits
    assert over_credit_rejections > 0
    ok(5, f"10,000 steps conserved credit "
          f"({over_credit_rejections} over-credit requests all rejected)")


# --- criterion 6 -------------------------------------------------------------

def test_criterion_6_hybrid_size_claim(server_keypair, client_keypair):
    clock, _, _, service = make_stack(server_keypair, seed=66,
                                      capacity=Fraction(100))
    identity = identity_for(client_keypair, server_keypair)
    body, t1 = client_mod.build_request(identity, 4096, clock=clock.now)
    clock.advance(1)
    status, reply, _ = service.handle_entropy(body)
    assert status == 200

    env = wire.decode_envelope(reply)           # ONE envelope
    payload = crypto.open_message(client_keypair.secret, env)
    assert len(payload) == 4105                 # entropy + t2 + header
    entropy = client_mod.verify_response(
        reply, t1=t1, delta_s=4096, server_public=server_keypair.public,
        secret_key=client_keypair.secret, now=clock.now())
    assert len(entropy) == 4096

    assert crypto.OAEP_CAPACITY == 384 - 66 == 318
    assert 4105 > crypto.OAEP_CAPACITY
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding
    oaep = padding.OAEP(mgf=padding.MGF1(hashes.SHA256()),
                        algorithm=hashes.SHA256(), label=None)
    with pytest.raises(ValueError):
        client_keypair.public.encrypt(b"\x00" * 319, oaep)
    ok(6, "4105-byte payload in one envelope; direct OAEP capped at 318")


# --- criterion 7 -------------------------------------------------------------

MIB = 1 << 20
C7_DELTA_S = 16_384
C7_REQUESTS = MIB // C7_DELTA_S


def deliver_mib(server_keypair, client_keypair, seed: int) -> bytes:
    """1 MiB through the full protocol as 64 requests of 16 KiB."""
    clock, pool, ta, service = make_stack(
        server_keypair, seed=seed, max_delta_s=C7_DELTA_S,
        capacity=Fraction(10 ** 6))
    identity = identity_for(client_keypair, server_keypair)
    out = bytearray()
    for _ in range(C7_REQUESTS):
        body, t1 = client_mod.build_request(
            identity, C7_DELTA_S, clock=clock.now, max_delta_s=C7_DELTA_S)
        clock.advance(1)
        status, reply, _ = service.handle_entropy(body)
        assert status == 200, reply
        out += client_mod.verify_response(
            reply, t1=t1, delta_s=C7_DELTA_S,
            server_public=server_keypair.public,
            secret_key=client_keypair.secret, now=clock.now())
        clock.advance(1)
    assert len(out) == MIB
    return bytes(out)


def test_criterion_7_statistical_suite(server_keypair, client_keypair):
    runs_passed = 0
    worst = {}
    for seed in range(100):
        data = deliver_mib(server_keypair, client_keypair, seed)
        report = stats_suite(data)
        if all(r.passed for r in report.values()):
            runs_passed += 1
        else:
            worst[seed] = {k: v.statistic for k, v in report.items()}
    assert runs_passed / 100 >= 0.999, worst
    ok(7, f"{runs_passed}/100 seeded 1 MiB deliveries passed "
          "monobit/runs/chi-square")


def test_criterion_7_stuck_source_among_three(server_keypair,
                                              client_keypair):
    clock = SimClock()
    pool = EntropyPool(clock.now)
    stuck_pulls = 0

    def stuck(n):
        nonlocal stuck_pulls
        stuck_pulls += 1
        return b"\x5a" * n

    pool.register_source(SourceDescriptor("stuck", Fraction(1),
                                          Fraction(1 << 20)), stuck)
    for i in range(2):
        pool.register_source(
            SourceDescriptor(f"good{i}", Fraction(1), Fraction(1 << 20)),
            seeded_generator(777 + i))

    from eaas.config import ServerConfig
    ta = TrustedApplication(server_keypair, pool,
                            sm_measurement=DEFAULT_PLATFORM_MEASUREMENT,
                            clock=clock.now, rng=seeded_generator(3),
                            max_delta_s=C7_DELTA_S)
    service = EntropyService(
        ServerConfig(max_delta_s=C7_DELTA_S,
                     throttle_capacity=Fraction(10 ** 6),
                     clock_mode="injected"),
        ta, clock.now)
    identity = identity_for(client_keypair, server_keypair)

    out = bytearray()
    for _ in range(C7_REQUESTS):
        body, t1 = client_mod.build_request(identity, C7_DELTA_S,
                                            clock=clock.now,
                                            max_delta_s=C7_DELTA_S)
        clock.advance(1)
        status, reply, _ = service.handle_entropy(body)
        assert status == 200
        out += client_mod.verify_response(
            reply, t1=t1, delta_s=C7_DELTA_S,
            server_public=server_keypair.public,
            secret_key=client_keypair.secret, now=clock.now())
        clock.advance(1)

    health = pool.status().per_source_health
    assert health["stuck"] is HealthState.DEGRADED
    assert stuck_pulls <= 5
    report = stats_suite(bytes(out))
    assert all(r.passed for r in report.values()), report
    ok(7, f"stuck source degraded after {stuck_pulls} blocks; delivered "
          "1 MiB still passes all three tests")


# --- criterion 8 -------------------------------------------------------------

def test_criterion_8_attestation(server_keypair):
    clock = SimClock()
    pool = make_pool(clock, seed=88)
    ta = TrustedApplication(server_keypair, pool,
                            sm_measurement=DEFAULT_PLATFORM_MEASUREMENT,
                            clock=clock.now)
    nonce = seeded_generator(8)(32)
    reply = ta.ta_invoke(encode_command(TaCommand.ATTEST, nonce))
    assert reply[0] == TaStatus.OK
    quote = wire.decode_quote(reply[1:])

    expected_ta = module_measurement()
    client_mod.verify_quote(quote, nonce=nonce,
                            expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
                            expected_ta=expected_ta,
                            attestation_pk=server_keypair.public)

    rejections = set()
    substitutions = [
        # fresh nonce, stale quote
        dict(nonce=b"\xde" * 32),
        # measurement expectation mismatch
        dict(expected_ta=b"\xad" * 32),
        # foreign signature
        dict(quote=replace(quote, signature=bytes(384))),
    ]
    for subst in substitutions:
        kwargs = dict(quote=quote, nonce=nonce,
                      expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
                      expected_ta=expected_ta,
                      attestation_pk=server_keypair.public)
        kwargs.update(subst)
        with pytest.raises(QuoteRejected) as exc:
            client_mod.verify_quote(**kwargs)
        rejections.add(exc.value.reason)
    assert rejections == {"sig", "nonce", "measurement"}
    ok(8, "issued triple accepted; 3/3 substitution kinds rejected")


# --- criterion 9 -------------------------------------------------------------

def test_criterion_9_tcb_boundary_and_logs(thousand_roundtrips,
                                           server_keypair):
    run = thousand_roundtrips
    service: EntropyService = run["service"]
    ta: TrustedApplication = run["ta"]

    # interface enumeration: the TA exposes only ta_invoke, and nothing
    # public on the service hands out the pool or key objects
    assert [n for n in dir(ta) if not n.startswith("_")] == ["ta_invoke"]
    service_surface = [n for n in dir(service) if not n.startswith("_")]
    assert set(service_surface) == {"counters", "handle_entropy",
                                    "handle_attest", "pubkey_der"}

    # no public service output contains secret key bytes or pool buffer
    secret_der = crypto.private_key_der(server_keypair)
    outputs = [service.pubkey_der(),
               service.handle_attest(b"\x01" * 32)[1],
               service.handle_entropy(b"junk")[1]]
    for out in outputs:
        assert secret_der not in out

    # log scrub across criterion 1's run: no extracted bytes (entropy and
    # session keys both come from pool.extract) and no private key
    log_text = run["log_text"]
    assert run["extracted"], "instrumentation captured nothing"
    secrets = run["extracted"] + [secret_der]
    for secret in secrets:
        assert secret.hex() not in log_text
        assert base64.b64encode(secret).decode() not in log_text
        assert str(secret) not in log_text
    ok(9, f"surface clean; {len(secrets)} secrets absent from "
          f"{len(log_text)} bytes of captured logs")
