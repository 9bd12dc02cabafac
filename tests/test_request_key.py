"""The request memos: sigma1 signed once per binding on the client, and
the TA's bounded memo of the requests that checked out.

A request travels in the clear and repeats byte for byte per binding, so
the TA decodes, loads and verifies it once per binding, and only after
it checked out. The device's bill per request is pinned here too."""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction

import pytest

from conftest import make_stack
from eaas import client as client_mod
from eaas import crypto, trusted, wire
from eaas.trusted import TaStatus
from test_client import make_identity, ta_status


class Bill:
    """Counts crypto.sign, unwrap_key, verify and wrap_key calls by the
    side of the TA boundary they run on, and os.urandom bytes drawn."""

    OPS = ("sign", "unwrap_key", "verify", "wrap_key")

    def __init__(self, monkeypatch, ta):
        self.calls: Counter = Counter()
        self.urandom_bytes = 0
        self.in_ta = False
        for op in self.OPS:
            monkeypatch.setattr(crypto, op, self.counting(op,
                                                          getattr(crypto, op)))
        real_urandom, real_invoke = os.urandom, ta.ta_invoke

        def urandom(n):
            self.urandom_bytes += n
            return real_urandom(n)

        def ta_invoke(command):
            self.in_ta = True
            try:
                return real_invoke(command)
            finally:
                self.in_ta = False

        monkeypatch.setattr(os, "urandom", urandom)
        monkeypatch.setattr(ta, "ta_invoke", ta_invoke)

    def counting(self, op, fn):
        def counted(*args, **kwargs):
            self.calls[("ta" if self.in_ta else "client", op)] += 1
            return fn(*args, **kwargs)
        return counted

    def take(self) -> tuple[Counter, int]:
        """The calls and bytes counted since the last take."""
        taken = self.calls, self.urandom_bytes
        self.calls, self.urandom_bytes = Counter(), 0
        return taken


def round_trip(stack, identity, delta_s: int) -> tuple[int, int]:
    """One verified round trip; returns (bytes sent, bytes received)."""
    clock, _, _, service = stack
    body, t1 = client_mod.build_request(identity, delta_s, clock=clock.now)
    clock.advance(1)
    status, reply, _ = service.handle_entropy(body)
    assert status == 200, reply
    entropy = client_mod.verify_response(
        reply, t1=t1, delta_s=delta_s, server_public=identity.server_public,
        secret_key=identity.keypair.secret, now=clock.now())
    assert len(entropy) == delta_s
    return len(body), len(reply)


class TestDeviceBill:
    def test_device_bill_at_delta_s_32(self, monkeypatch, server_keypair,
                                       client_keypair, other_keypair):
        """Per steady request the device makes one private op (the
        unwrap) and one public op (the sigma2 verify), draws no
        randomness, sends 852 bytes and receives 848. A new binding adds
        one private op, the sigma1 sign, and nothing else. The TA makes
        one sigma2 sign per request and never unwraps."""
        stack = make_stack(server_keypair, capacity=Fraction(10 ** 6))
        identity = make_identity(client_keypair, server_keypair)
        bill = Bill(monkeypatch, stack[2])
        round_trip(stack, identity, 32)                  # warm-up
        bill.take()

        for _ in range(10):
            assert round_trip(stack, identity, 32) == (852, 848)
        assert bill.take() == ({("client", "unwrap_key"): 10,
                                ("client", "verify"): 10,
                                ("ta", "sign"): 10,
                                ("ta", "wrap_key"): 10}, 0)

        identity.keypair = other_keypair                 # a new binding
        assert round_trip(stack, identity, 32) == (852, 848)
        assert bill.take() == ({("client", "sign"): 1,
                                ("client", "unwrap_key"): 1,
                                ("client", "verify"): 1,
                                ("ta", "verify"): 1,
                                ("ta", "sign"): 1,
                                ("ta", "wrap_key"): 1}, 0)


class TestTaMemo:
    @pytest.fixture
    def ta(self, server_keypair):
        return make_stack(server_keypair, capacity=Fraction(10 ** 6))[2]

    @pytest.fixture
    def decodes(self, monkeypatch) -> list:
        """Every request the TA decodes from here on: each full path."""
        calls, real_decode = [], wire.decode_request

        def decode_request(buf, *args):
            calls.append(buf)
            return real_decode(buf, *args)

        monkeypatch.setattr(wire, "decode_request", decode_request)
        return calls

    @staticmethod
    def assert_never_cached(decodes, ta, body, status):
        for _ in range(2):
            mark = len(decodes)
            assert ta_status(ta, body) is status
            assert len(decodes) == mark + 1

    def test_garbage_envelope_is_never_cached(self, ta, decodes):
        garbage = wire.SealedEnvelope(
            wrapped_key=os.urandom(crypto.RSA_BYTES),
            nonce=os.urandom(wire.NONCE_LEN), ciphertext=os.urandom(64))
        body = os.urandom(wire.FINGERPRINT_LEN) + wire.encode_envelope(garbage)
        self.assert_never_cached(decodes, ta, body, TaStatus.MALFORMED)
        assert not ta._requests

    def test_hint_mismatch_is_never_cached(self, ta, decodes, server_keypair,
                                           client_keypair, other_keypair):
        identity = make_identity(client_keypair, server_keypair)
        body, _ = client_mod.build_request(identity, 32)
        wrong_hint = (wire.fingerprint(other_keypair.public_der)
                      + body[wire.FINGERPRINT_LEN:])
        self.assert_never_cached(decodes, ta, wrong_hint,
                                 TaStatus.HINT_MISMATCH)
        # The honest body with the same request is still decoded once.
        mark = len(decodes)
        assert ta_status(ta, body) is TaStatus.OK
        assert ta_status(ta, body) is TaStatus.OK
        assert len(decodes) == mark + 1

    def test_failing_sigma1_is_never_cached(self, ta, decodes,
                                            server_keypair, client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        request = client_mod.signed_request(identity, 32)
        sigma1 = bytearray(request.sigma1)
        sigma1[7] ^= 0x40
        body = identity.fingerprint + wire.encode_request(
            wire.EntropyRequest(request.client_pub_key, 32, bytes(sigma1)))
        self.assert_never_cached(decodes, ta, body, TaStatus.BAD_SIGNATURE)

    def test_bound_evicts_least_recently_served(
            self, monkeypatch, ta, decodes, server_keypair, client_keypair):
        monkeypatch.setattr(trusted, "_REQUEST_KEYS_MAX", 4)
        identity = make_identity(client_keypair, server_keypair)
        bodies = [client_mod.build_request(identity, delta_s)[0]
                  for delta_s in range(1, 7)]
        for body in bodies:
            assert ta_status(ta, body) is TaStatus.OK
        assert len(decodes) == 6
        assert len(ta._requests) <= 4

        mark = len(decodes)
        for body in bodies[2:]:
            assert ta_status(ta, body) is TaStatus.OK
        assert len(decodes) == mark
        assert ta_status(ta, bodies[0]) is TaStatus.OK
        assert len(decodes) == mark + 1
        assert len(ta._requests) <= 4


class TestTaVerifyMemo:
    """The TA verifies sigma1 once per binding: a payload equal byte for
    byte to one that checked out is not decoded or verified again."""

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
        """The device sends its request with delta_s changed and the old
        sigma1, from a key the TA holds: the TA takes the full path and
        refuses it, and keeps the entry that checked out."""
        stack = make_stack(server_keypair, capacity=Fraction(10 ** 6))
        ta = stack[2]
        identity = make_identity(client_keypair, server_keypair)
        round_trip(stack, identity, 32)
        request = client_mod.signed_request(identity, 32)
        body = identity.fingerprint + wire.encode_request(
            wire.EntropyRequest(request.client_pub_key, 48, request.sigma1))

        verifies = self.count_sigma1_verifies(monkeypatch)
        assert ta_status(ta, body) is TaStatus.BAD_SIGNATURE
        assert len(verifies) == 1
        round_trip(stack, identity, 32)
        assert len(verifies) == 1
