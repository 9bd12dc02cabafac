"""The request key: one wrapped key per device binding on the client, and
the TA's bounded memo of the keys it has unwrapped.

A steady-state round trip makes two RSA private ops, the TA's sigma2
sign and the client's unwrap; the TA unwraps a request key once per
binding, and only after a request under it checked out."""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_stack
from eaas import client as client_mod
from eaas import crypto, trusted, wire
from eaas.trusted import TaStatus
from test_client import count_signs, make_identity, ta_status


class PrivateOps:
    """Counts crypto.unwrap_key and crypto.sign calls by the key used."""

    def __init__(self, monkeypatch, server_keypair):
        self.server_secret = server_keypair.secret
        self.calls: list[tuple[str, str]] = []
        real_unwrap, real_sign = crypto.unwrap_key, crypto.sign

        def unwrap_key(secret, wrapped):
            self.calls.append(("unwrap", self.side(secret)))
            return real_unwrap(secret, wrapped)

        def sign(secret, domain_tag, msg):
            self.calls.append(("sign", self.side(secret)))
            return real_sign(secret, domain_tag, msg)

        monkeypatch.setattr(crypto, "unwrap_key", unwrap_key)
        monkeypatch.setattr(crypto, "sign", sign)

    def side(self, secret) -> str:
        return "ta" if secret is self.server_secret else "client"

    def since(self, mark: int) -> Counter:
        return Counter(self.calls[mark:])


def round_trip(stack, identity, delta_s: int) -> None:
    clock, _, _, service = stack
    body, t1 = client_mod.build_request(identity, delta_s, clock=clock.now)
    clock.advance(1)
    status, reply, _ = service.handle_entropy(body)
    assert status == 200, reply
    entropy = client_mod.verify_response(
        reply, t1=t1, delta_s=delta_s, server_public=identity.server_public,
        secret_key=identity.keypair.secret, now=clock.now())
    assert len(entropy) == delta_s


def envelope(body: bytes) -> wire.SealedEnvelope:
    return wire.decode_envelope(body[wire.FINGERPRINT_LEN:])


def recording_rng(draws: list[bytes]):
    def rng(n):
        draws.append(os.urandom(n))
        return draws[-1]
    return rng


class TestPrivateOpBudget:
    def test_two_private_ops_per_steady_round_trip(
            self, monkeypatch, server_keypair, client_keypair):
        stack = make_stack(server_keypair, capacity=Fraction(10 ** 6))
        identity = make_identity(client_keypair, server_keypair)
        ops = PrivateOps(monkeypatch, server_keypair)
        round_trip(stack, identity, 32)                  # warm-up

        mark = len(ops.calls)
        for _ in range(10):
            round_trip(stack, identity, 32)
        assert ops.since(mark) == {("unwrap", "client"): 10,
                                   ("sign", "ta"): 10}

        # A new binding adds one sigma1 sign and one TA unwrap.
        mark = len(ops.calls)
        round_trip(stack, identity, 48)
        assert ops.since(mark) == {("sign", "client"): 1,
                                   ("unwrap", "ta"): 1,
                                   ("unwrap", "client"): 1,
                                   ("sign", "ta"): 1}


class TestTaMemo:
    @pytest.fixture
    def ta(self, server_keypair):
        return make_stack(server_keypair, capacity=Fraction(10 ** 6))[2]

    @staticmethod
    def ta_unwraps(ops: PrivateOps, mark: int) -> int:
        return ops.since(mark).get(("unwrap", "ta"), 0)

    def assert_never_cached(self, ops, ta, body, status):
        for _ in range(2):
            mark = len(ops.calls)
            assert ta_status(ta, body) is status
            assert self.ta_unwraps(ops, mark) == 1

    def test_garbage_envelope_is_never_cached(self, monkeypatch, ta,
                                              server_keypair):
        ops = PrivateOps(monkeypatch, server_keypair)
        # Below the modulus, so the RSA op runs and OAEP rejects it.
        garbage = wire.SealedEnvelope(
            wrapped_key=b"\x00" + os.urandom(crypto.RSA_BYTES - 1),
            nonce=os.urandom(wire.NONCE_LEN), ciphertext=os.urandom(64))
        body = os.urandom(wire.FINGERPRINT_LEN) + wire.encode_envelope(garbage)
        self.assert_never_cached(ops, ta, body, TaStatus.DECRYPT_FAILURE)

    def test_hint_mismatch_is_never_cached(self, monkeypatch, ta,
                                           server_keypair, client_keypair,
                                           other_keypair):
        identity = make_identity(client_keypair, server_keypair)
        body, _ = client_mod.build_request(identity, 32)
        wrong_hint = (wire.fingerprint(other_keypair.public_der)
                      + body[wire.FINGERPRINT_LEN:])
        ops = PrivateOps(monkeypatch, server_keypair)
        self.assert_never_cached(ops, ta, wrong_hint, TaStatus.HINT_MISMATCH)
        # The honest body under the same key is still unwrapped once.
        mark = len(ops.calls)
        assert ta_status(ta, body) is TaStatus.OK
        assert ta_status(ta, body) is TaStatus.OK
        assert self.ta_unwraps(ops, mark) == 1

    def test_failing_sigma1_is_never_cached(self, monkeypatch, ta,
                                            server_keypair, client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        sigma1 = bytearray(client_mod.request_signature(identity, 32))
        sigma1[7] ^= 0x40
        body = client_mod.seal_request(
            server_keypair.public, client_keypair.public_der, 32,
            bytes(sigma1), rng=os.urandom,
            max_delta_s=wire.DEFAULT_MAX_DELTA_S)
        ops = PrivateOps(monkeypatch, server_keypair)
        self.assert_never_cached(ops, ta, body, TaStatus.BAD_SIGNATURE)

    def test_memoised_key_still_opens_and_verifies(
            self, monkeypatch, ta, server_keypair, client_keypair):
        """A hit skips the unwrap only: a flipped ciphertext byte fails
        to open, and a plaintext carrying another delta_s's sigma1 fails
        to verify, under a key the TA already holds."""
        identity = make_identity(client_keypair, server_keypair)
        draws: list[bytes] = []
        body, _ = client_mod.build_request(identity, 32,
                                           rng=recording_rng(draws))
        session_key = draws[0]
        assert ta_status(ta, body) is TaStatus.OK

        env = envelope(body)
        flipped = bytearray(env.ciphertext)
        flipped[5] ^= 1
        tampered = body[:wire.FINGERPRINT_LEN] + wire.encode_envelope(
            wire.SealedEnvelope(env.wrapped_key, env.nonce, bytes(flipped)))

        other_sigma1 = client_mod.request_signature(identity, 48)
        nonce = os.urandom(wire.NONCE_LEN)
        plaintext = wire.encode_request(wire.EntropyRequest(
            client_keypair.public_der, 32, other_sigma1))
        forged = body[:wire.FINGERPRINT_LEN] + wire.encode_envelope(
            wire.SealedEnvelope(env.wrapped_key, nonce, crypto.seal_payload(
                session_key, nonce, plaintext)))

        ops = PrivateOps(monkeypatch, server_keypair)
        assert ta_status(ta, tampered) is TaStatus.DECRYPT_FAILURE
        assert ta_status(ta, forged) is TaStatus.BAD_SIGNATURE
        assert ta_status(ta, body) is TaStatus.OK
        assert self.ta_unwraps(ops, 0) == 0

    def test_bound_evicts_least_recently_served(
            self, monkeypatch, ta, server_keypair, client_keypair):
        monkeypatch.setattr(trusted, "_REQUEST_KEYS_MAX", 4)
        identity = make_identity(client_keypair, server_keypair)
        bodies = [client_mod.build_request(identity, delta_s)[0]
                  for delta_s in range(1, 7)]
        ops = PrivateOps(monkeypatch, server_keypair)
        for body in bodies:
            assert ta_status(ta, body) is TaStatus.OK
        assert self.ta_unwraps(ops, 0) == 6
        assert len(ta._request_keys) <= 4

        mark = len(ops.calls)
        for body in bodies[2:]:
            assert ta_status(ta, body) is TaStatus.OK
        assert self.ta_unwraps(ops, mark) == 0
        assert ta_status(ta, bodies[0]) is TaStatus.OK
        assert self.ta_unwraps(ops, mark) == 1
        assert len(ta._request_keys) <= 4


class TestTaVerifyMemo:
    """The TA verifies sigma1 once per binding: a request plaintext equal
    byte for byte to one that checked out under the same request key is
    not decoded or verified again."""

    @staticmethod
    def count_sigma1_verifies(monkeypatch) -> list:
        calls, real_verify = [], crypto.verify

        def verify(public, domain_tag, msg, signature):
            if domain_tag == crypto.REQUEST_TAG:
                calls.append(msg)
            return real_verify(public, domain_tag, msg, signature)

        monkeypatch.setattr(crypto, "verify", verify)
        return calls

    def test_sigma1_verified_once_per_binding(self, monkeypatch,
                                              server_keypair,
                                              client_keypair):
        stack = make_stack(server_keypair, capacity=Fraction(10 ** 6))
        identity = make_identity(client_keypair, server_keypair)
        verifies = self.count_sigma1_verifies(monkeypatch)
        for _ in range(3):
            round_trip(stack, identity, 32)
        assert len(verifies) == 1
        round_trip(stack, identity, 48)          # a new binding
        assert len(verifies) == 2

    def test_other_plaintext_under_a_memoised_key(self, monkeypatch,
                                                  server_keypair,
                                                  client_keypair):
        """The device reseals its request with delta_s changed and the
        old sigma1 under its memoised key: the TA takes the full path and
        refuses it, and keeps the entry that checked out."""
        stack = make_stack(server_keypair, capacity=Fraction(10 ** 6))
        ta = stack[2]
        identity = make_identity(client_keypair, server_keypair)
        round_trip(stack, identity, 32)
        _, _, request_key = identity._request_key
        changed = request_key._replace(
            request=replace(request_key.request, delta_s=48))
        body = changed.seal(os.urandom, wire.DEFAULT_MAX_DELTA_S)
        assert envelope(body).wrapped_key == request_key.wrapped_key

        verifies = self.count_sigma1_verifies(monkeypatch)
        assert ta_status(ta, body) is TaStatus.BAD_SIGNATURE
        assert len(verifies) == 1
        round_trip(stack, identity, 32)
        assert len(verifies) == 1


class TestClientMemo:
    def test_each_binding_change_re_wraps(self, server_keypair,
                                          client_keypair, other_keypair):
        identity = make_identity(client_keypair, server_keypair)

        def wrapped() -> bytes:
            return envelope(client_mod.build_request(identity, 32)[0]
                            ).wrapped_key

        first = wrapped()
        assert wrapped() == first
        identity.keypair = other_keypair
        second = wrapped()
        assert second != first and wrapped() == second
        identity.server_public = crypto.load_public_key(
            crypto.public_key_der(server_keypair.public))
        third = wrapped()
        assert third not in (first, second) and wrapped() == third
        fourth = envelope(client_mod.build_request(identity, 48)[0]
                          ).wrapped_key
        assert fourth not in (first, second, third)

    def test_sigma1_comes_from_the_sealed_request(self, monkeypatch,
                                                  server_keypair,
                                                  client_keypair):
        """One memo per binding: sigma1 for the sealed binding is the
        memo's; another delta_s is signed on each call and kept nowhere."""
        identity = make_identity(client_keypair, server_keypair)
        client_mod.build_request(identity, 32)
        memo = identity._request_key
        calls = count_signs(monkeypatch)
        assert client_mod.request_signature(identity, 32) \
            == memo[2].request.sigma1
        assert not calls
        client_mod.request_signature(identity, 48)
        client_mod.request_signature(identity, 48)
        assert len(calls) == 2 and identity._request_key is memo

    def test_steady_state_draws_only_a_nonce(self, server_keypair,
                                             client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        draws: list[bytes] = []
        rng = recording_rng(draws)
        client_mod.build_request(identity, 32, rng=rng)
        assert [len(d) for d in draws] == [16, 12]
        for _ in range(3):
            del draws[:]
            client_mod.build_request(identity, 32, rng=rng)
            assert [len(d) for d in draws] == [12]

    def test_one_off_seal_draws_key_then_nonce(self, server_keypair,
                                               client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        sigma1 = client_mod.request_signature(identity, 32)
        draws: list[bytes] = []
        bodies = [client_mod.seal_request(
            server_keypair.public, client_keypair.public_der, 32, sigma1,
            rng=recording_rng(draws), max_delta_s=wire.DEFAULT_MAX_DELTA_S)
            for _ in range(2)]
        assert [len(d) for d in draws] == [16, 12, 16, 12]
        assert envelope(bodies[0]).wrapped_key \
            != envelope(bodies[1]).wrapped_key

    def test_envelopes_under_one_key_open_to_one_plaintext(
            self, monkeypatch, server_keypair, client_keypair):
        """Threads alternating delta_s on one identity: every envelope
        that shares a wrapped_key opens to the same request, and that
        request carries the delta_s its caller asked for."""
        identity = make_identity(client_keypair, server_keypair)
        # Cheap stand-ins: the "wrap" carries the key in the clear.
        monkeypatch.setattr(crypto, "sign",
                            lambda secret, tag, msg: (tag + msg)[:384])
        monkeypatch.setattr(crypto, "wrap_key",
                            lambda public, key: key * 24)
        sealed: list[tuple[int, bytes]] = []
        finished = []

        def worker(first: int) -> None:
            for i in range(300):
                delta_s = (32, 48)[(first + i) % 2]
                sealed.append(
                    (delta_s, client_mod.build_request(identity, delta_s)[0]))
            finished.append(first)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert sorted(finished) == [0, 1, 2, 3]

        by_key: dict[bytes, set[bytes]] = {}
        for delta_s, body in sealed:
            env = envelope(body)
            plaintext = crypto.open_payload(env.wrapped_key[:16], env.nonce,
                                            env.ciphertext)
            assert wire.decode_request(plaintext).delta_s == delta_s
            by_key.setdefault(env.wrapped_key, set()).add(plaintext)
        assert len(sealed) == 1200
        assert all(len(plaintexts) == 1 for plaintexts in by_key.values())
