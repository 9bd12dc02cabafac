"""The per-binding memos: sigma1 signed once per binding on the client,
the TA's bounded memo of the requests that checked out with their
binding keys, and the client's bounded memo of unwrapped binding keys.

A request travels in the clear and repeats byte for byte per binding, so
the TA decodes, loads and verifies it once per binding, and only after
it checked out. A response's session key travels wrapped under its
binding's key, which the device unwraps once. The device's bill per
request is pinned here too."""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from collections import Counter, OrderedDict
from dataclasses import replace
from fractions import Fraction

import pytest
from cryptography.hazmat.primitives import keywrap

from conftest import make_stack
from eaas import client as client_mod
from eaas import crypto, trusted, wire
from eaas.errors import BadServerSignature, OpenFailure, UnwrapFailure
from eaas.trusted import TaStatus
from test_client import make_identity, ta_status
from test_crypto import binding_for


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


def serve(stack, identity, delta_s: int) -> tuple[bytes, bytes, int]:
    """One request of identity's served: (body, reply, t1)."""
    clock, _, _, service = stack
    body, t1 = client_mod.build_request(identity, delta_s, clock=clock.now)
    clock.advance(1)
    status, reply, _ = service.handle_entropy(body)
    assert status == 200, reply
    return body, reply, t1


def round_trip(stack, identity, delta_s: int) -> tuple[int, int]:
    """One verified round trip; returns (bytes sent, bytes received)."""
    body, reply, t1 = serve(stack, identity, delta_s)
    entropy = client_mod.verify_response(
        reply, t1=t1, delta_s=delta_s, server_public=identity.server_public,
        secret_key=identity.keypair.secret, now=stack[0].now())
    assert len(entropy) == delta_s
    return len(body), len(reply)


class TestDeviceBill:
    def test_device_bill_at_delta_s_32(self, monkeypatch, server_keypair,
                                       client_keypair, other_keypair):
        """Per steady request the device makes no private op and one
        public op (the sigma2 verify), draws no randomness, sends 852
        bytes and receives 872. A new binding adds two private ops, the
        sigma1 sign and the unwrap of its binding key. The TA makes
        one sigma2 sign per request, and one sigma1 verify and one wrap
        per new binding."""
        stack = make_stack(server_keypair, capacity=Fraction(10 ** 6))
        identity = make_identity(client_keypair, server_keypair)
        bill = Bill(monkeypatch, stack[2])
        round_trip(stack, identity, 32)                  # warm-up
        bill.take()

        for _ in range(10):
            assert round_trip(stack, identity, 32) == (852, 872)
        assert bill.take() == ({("client", "verify"): 10,
                                ("ta", "sign"): 10}, 0)

        identity.keypair = other_keypair                 # a new binding
        assert round_trip(stack, identity, 32) == (852, 872)
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


def binding_key(ta, identity, delta_s: int) -> crypto.BindingKey:
    """The binding key the TA's memo holds for identity's binding."""
    body, _ = client_mod.build_request(identity, delta_s)
    return ta._requests[hashlib.sha256(body).digest()][2]


class TestBindingKey:
    """Each response carries a fresh session key, AES-KW-wrapped under
    its binding's key K_b; the envelope's wrapped_key is W, K_b wrapped
    to the device once per binding."""

    def test_binding_key_fixed_session_key_fresh(self, stack,
                                                 server_keypair,
                                                 client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        envelopes = [wire.decode_envelope(serve(stack, identity, 32)[1])
                     for _ in range(5)]
        binding = binding_key(stack[2], identity, 32)
        assert crypto.unwrap_key(client_keypair.secret,
                                 binding.wrapped) == binding.key
        assert {env.wrapped_key for env in envelopes} == {binding.wrapped}
        session_keys = {keywrap.aes_key_unwrap(
            binding.key, env.ciphertext[:crypto.KW_LEN]) for env in envelopes}
        assert len(session_keys) == 5
        assert binding.key not in session_keys

    def test_new_binding_and_eviction_get_a_new_w(self, monkeypatch, stack,
                                                  server_keypair,
                                                  client_keypair):
        monkeypatch.setattr(trusted, "_REQUEST_KEYS_MAX", 1)
        identity = make_identity(client_keypair, server_keypair)

        def w(delta_s):
            return wire.decode_envelope(
                serve(stack, identity, delta_s)[1]).wrapped_key

        first = w(32)
        assert w(32) == first
        other = w(48)                   # a new binding, evicting the first
        assert other != first
        again = w(32)
        assert again not in (first, other)


class TestClientMemo:
    """The device unwraps W once: crypto.open_message keeps each W it
    unwrapped, for the secret key that unwrapped it, in a bounded memo."""

    @pytest.fixture(autouse=True)
    def memo(self, monkeypatch) -> OrderedDict:
        memo = OrderedDict()
        monkeypatch.setattr(crypto, "_binding_keys", memo)
        return memo

    @staticmethod
    def verify(reply, t1, identity, stack, delta_s=32):
        return client_mod.verify_response(
            reply, t1=t1, delta_s=delta_s,
            server_public=identity.server_public,
            secret_key=identity.keypair.secret, now=stack[0].now())

    def test_failed_sigma2_never_enters_memo(self, memo, stack,
                                             server_keypair, client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        _, reply, t1 = serve(stack, identity, 32)
        env = wire.decode_envelope(reply)
        forged = wire.encode_envelope(replace(
            env, sigma2=bytes([env.sigma2[0] ^ 1]) + env.sigma2[1:]))
        with pytest.raises(BadServerSignature):
            self.verify(forged, t1, identity, stack)
        assert not memo
        assert len(self.verify(reply, t1, identity, stack)) == 32
        assert list(memo) == [env.wrapped_key]

    def test_memo_stays_within_its_bound(self, monkeypatch, memo,
                                         server_keypair, client_keypair):
        monkeypatch.setattr(crypto, "_BINDING_KEYS_MAX", 3)
        envelopes = [crypto.seal_message(
            binding_for(client_keypair.public), b"payload",
            signer=server_keypair.secret, session_key=os.urandom(16))
            for _ in range(5)]
        for env in envelopes:
            assert crypto.open_message(client_keypair.secret,
                                       env) == b"payload"
            assert len(memo) <= 3
        assert list(memo) == [env.wrapped_key for env in envelopes[2:]]

    def test_threads_share_the_memo_within_its_bound(
            self, monkeypatch, memo, server_keypair, client_keypair):
        """More threads than cores open envelopes of more Ws than the
        bound, with a short switch interval: every open returns its
        payload, and the memo ends within its bound."""
        monkeypatch.setattr(crypto, "_BINDING_KEYS_MAX", 3)
        envelopes = [crypto.seal_message(
            binding_for(client_keypair.public), bytes([i]) * 8,
            signer=server_keypair.secret, session_key=os.urandom(16))
            for i in range(6)]
        errors, opened = [], Counter()

        def worker(offset):
            try:
                for i in range(24):
                    k = (offset + i) % len(envelopes)
                    assert crypto.open_message(
                        client_keypair.secret, envelopes[k]) == bytes([k]) * 8
                    opened[offset] += 1
            except Exception as exc:        # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert opened == {n: 24 for n in range(4)}
        assert len(memo) <= 3

    def test_entry_serves_only_its_secret_key(self, memo, server_keypair,
                                              client_keypair, other_keypair):
        env = crypto.seal_message(
            binding_for(client_keypair.public), b"payload",
            signer=server_keypair.secret, session_key=os.urandom(16))
        assert crypto.open_message(client_keypair.secret, env) == b"payload"
        with pytest.raises(UnwrapFailure):
            crypto.open_message(other_keypair.secret, env)
        assert memo[env.wrapped_key][0] is client_keypair.secret

    @pytest.mark.parametrize("ciphertext", [
        lambda ct: bytes([ct[0] ^ 1]) + ct[1:],        # a wrong KW block
        lambda ct: ct[:crypto.KW_LEN - 1],             # a short one
    ], ids=["flipped", "short"])
    def test_wrong_kw_block_is_open_failure(self, ciphertext, stack,
                                            server_keypair, client_keypair):
        """A sigma2-valid envelope whose KW block does not unwrap under
        K_b fails as OpenFailure, never a cryptography exception."""
        identity = make_identity(client_keypair, server_keypair)
        _, reply, t1 = serve(stack, identity, 32)
        env = wire.decode_envelope(reply)
        ct = ciphertext(env.ciphertext)
        resigned = wire.encode_envelope(replace(
            env, ciphertext=ct, sigma2=crypto.sign(
                server_keypair.secret, crypto.RESPONSE_TAG,
                crypto.envelope_signing_bytes(env.wrapped_key, env.nonce,
                                              ct))))
        with pytest.raises(OpenFailure):
            self.verify(resigned, t1, identity, stack)
