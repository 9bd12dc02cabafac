"""Trusted application tests: dispatch, request handling, attestation,
and the TCB boundary."""

from __future__ import annotations

import os
from fractions import Fraction

import pytest
from cryptography.hazmat.primitives import serialization
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pool, make_stack, seeded_generator
from eaas import client as client_mod
from eaas import crypto, wire
from eaas.config import DEFAULT_PLATFORM_MEASUREMENT
from eaas.harness import SimClock
from eaas.trusted import (
    TaCommand,
    TaStatus,
    TrustedApplication,
    encode_command,
    module_measurement,
)


def make_ta(server_keypair, clock=None, pool=None, **kwargs):
    clock = clock or SimClock()
    pool = pool or make_pool(clock)
    return TrustedApplication(
        server_keypair, pool,
        sm_measurement=DEFAULT_PLATFORM_MEASUREMENT,
        clock=clock.now, rng=seeded_generator(1), **kwargs), clock


def build_body(client_keypair, server_pub, delta_s=32):
    """Client-side request body (hint || request) without the SDK layer."""
    pub_der = crypto.public_key_der(client_keypair.public)
    sigma1 = crypto.sign(client_keypair.secret, crypto.REQUEST_TAG,
                         crypto.request_signing_bytes(pub_der, delta_s))
    return wire.fingerprint(pub_der) + wire.encode_request(
        wire.EntropyRequest(client_pub_key=pub_der, delta_s=delta_s,
                            sigma1=sigma1))


class TestDispatch:
    def test_get_pubkey_returns_der(self, server_keypair):
        ta, _ = make_ta(server_keypair)
        reply = ta.ta_invoke(encode_command(TaCommand.GET_PUBKEY))
        assert reply[0] == TaStatus.OK
        assert reply[1:] == server_keypair.public_der
        crypto.load_public_key(reply[1:])

    def test_unknown_command(self, server_keypair):
        ta, _ = make_ta(server_keypair)
        assert ta.ta_invoke(b"\x77") == bytes([TaStatus.UNKNOWN_COMMAND])

    def test_empty_command(self, server_keypair):
        ta, _ = make_ta(server_keypair)
        assert ta.ta_invoke(b"") == bytes([TaStatus.MALFORMED])

    def test_garbage_payload_no_partial_output(self, server_keypair):
        """A structurally valid envelope full of random bytes, where the
        request belongs, fails all-or-nothing at decoding."""
        ta, _ = make_ta(server_keypair)
        garbage_env = wire.encode_envelope(wire.SealedEnvelope(
            wrapped_key=os.urandom(384), nonce=os.urandom(12),
            ciphertext=os.urandom(48), sigma2=None))
        reply = ta.ta_invoke(encode_command(
            TaCommand.HANDLE_REQUEST, os.urandom(32) + garbage_env))
        assert reply == bytes([TaStatus.MALFORMED])

    def test_undecodable_payload_is_malformed(self, server_keypair):
        ta, _ = make_ta(server_keypair)
        reply = ta.ta_invoke(encode_command(
            TaCommand.HANDLE_REQUEST, os.urandom(64)))
        assert reply == bytes([TaStatus.MALFORMED])


def one_line_pem(pem: bytes) -> bytes:
    """pem with its base64 body on one line."""
    head, *body, tail, _ = pem.split(b"\n")
    return b"\n".join([head, b"".join(body), tail, b""])


class TestHandleRequest:
    def test_happy_path(self, server_keypair, client_keypair):
        ta, clock = make_ta(server_keypair)
        body = build_body(client_keypair, server_keypair.public)
        clock.advance(5)
        reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST, body))
        assert reply[0] == TaStatus.OK

        # sigma2 must verify under the key GET_PUBKEY hands out
        announced = crypto.load_public_key(
            ta.ta_invoke(encode_command(TaCommand.GET_PUBKEY))[1:])
        env = wire.decode_envelope(reply[1:])
        assert env.sigma2 is not None
        assert crypto.verify(
            announced, crypto.RESPONSE_TAG,
            crypto.envelope_signing_bytes(env.wrapped_key, env.nonce,
                                          env.ciphertext),
            env.sigma2)
        payload = crypto.open_message(client_keypair.secret, env)
        resp = wire.decode_response_payload(payload)
        assert len(resp.entropy) == 32
        assert resp.t2 == clock.now()

    def test_delta_s_altered_after_signing(self, server_keypair,
                                           client_keypair):
        """White-box: flip the quantity inside the plaintext request
        after sigma1 was made; the binding must catch it."""
        pub_der = crypto.public_key_der(client_keypair.public)
        sigma1 = crypto.sign(client_keypair.secret, crypto.REQUEST_TAG,
                             crypto.request_signing_bytes(pub_der, 32))
        body = wire.fingerprint(pub_der) + wire.encode_request(
            wire.EntropyRequest(client_pub_key=pub_der, delta_s=33,
                                sigma1=sigma1))

        ta, _ = make_ta(server_keypair)
        reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST, body))
        assert reply == bytes([TaStatus.BAD_SIGNATURE])

    def test_sigma1_from_other_key_rejected(self, server_keypair,
                                            client_keypair, other_keypair):
        pub_der = crypto.public_key_der(client_keypair.public)
        sigma1 = crypto.sign(other_keypair.secret, crypto.REQUEST_TAG,
                             crypto.request_signing_bytes(pub_der, 32))
        body = wire.fingerprint(pub_der) + wire.encode_request(
            wire.EntropyRequest(client_pub_key=pub_der, delta_s=32,
                                sigma1=sigma1))
        ta, _ = make_ta(server_keypair)
        reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST, body))
        assert reply == bytes([TaStatus.BAD_SIGNATURE])

    def test_hint_mismatch(self, server_keypair, client_keypair):
        ta, _ = make_ta(server_keypair)
        body = bytearray(build_body(client_keypair, server_keypair.public))
        body[3] ^= 0x01
        reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST,
                                            bytes(body)))
        assert reply == bytes([TaStatus.HINT_MISMATCH])

    def test_delta_s_out_of_range(self, server_keypair, client_keypair):
        body = build_body(client_keypair, server_keypair.public,
                          delta_s=4096)
        ta, _ = make_ta(server_keypair, pool=None)
        ta._max_delta_s = 64   # tighten after the fact for the test
        reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST, body))
        assert reply == bytes([TaStatus.FIELD_OUT_OF_RANGE])

    @pytest.mark.parametrize("encode", [
        lambda pem: pem,
        lambda pem: pem.replace(b"\n", b"\r\n"),
        one_line_pem,
        lambda pem: b"junk\n" + pem,
        lambda pem: pem + b"junk\n",
    ], ids=["pem", "crlf-pem", "one-line-pem", "junk-then-pem",
            "pem-then-junk"])
    def test_key_in_another_encoding_is_refused(self, encode, server_keypair,
                                                client_keypair):
        """The TA loads a request's key from its DER form alone: the
        same key in another encoding, whose hint would name a throttle
        bucket and memo entry of its own, is refused and never served."""
        clock, _, ta, service = make_stack(server_keypair,
                                           capacity=Fraction(10 ** 6))
        pub = encode(client_keypair.public.public_bytes(
            serialization.Encoding.PEM,
            serialization.PublicFormat.SubjectPublicKeyInfo))
        assert crypto.load_public_key(pub).public_numbers() == \
            client_keypair.public.public_numbers()
        sigma1 = crypto.sign(client_keypair.secret, crypto.REQUEST_TAG,
                             crypto.request_signing_bytes(pub, 32))
        body = wire.fingerprint(pub) + wire.encode_request(
            wire.EntropyRequest(client_pub_key=pub, delta_s=32,
                                sigma1=sigma1))
        for _ in range(2):
            assert service.handle_entropy(body)[:2] == (400, b"malformed")
        assert not ta._requests

    def test_depleted_pool_no_envelope(self, server_keypair,
                                       client_keypair):
        clock = SimClock()
        pool = make_pool(clock, n_sources=1, max_rate=Fraction(64))
        ta, _ = make_ta(server_keypair, clock=clock, pool=pool)
        body = build_body(client_keypair, server_keypair.public,
                          delta_s=2048)
        reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST, body))
        assert reply == bytes([TaStatus.ENTROPY_DEPLETED])

    def test_deterministic_outputs_under_injection(self, server_keypair,
                                                   client_keypair):
        """Golden transcript: same injected clock, sources, and rng give
        the same decrypted (t2, entropy) and a valid sigma2 both times."""
        transcripts = []
        for _ in range(2):
            ta, clock = make_ta(server_keypair)
            body = build_body(client_keypair, server_keypair.public)
            clock.advance(3)
            reply = ta.ta_invoke(encode_command(TaCommand.HANDLE_REQUEST,
                                                body))
            assert reply[0] == TaStatus.OK
            env = wire.decode_envelope(reply[1:])
            payload = crypto.open_message(client_keypair.secret, env)
            resp = wire.decode_response_payload(payload)
            sig_ok = crypto.verify(
                server_keypair.public, crypto.RESPONSE_TAG,
                crypto.envelope_signing_bytes(env.wrapped_key, env.nonce,
                                              env.ciphertext),
                env.sigma2)
            transcripts.append((resp.t2, resp.entropy, sig_ok, env.nonce))
        assert transcripts[0] == transcripts[1]


class TestAttest:
    def test_quote_verifies(self, server_keypair):
        ta, clock = make_ta(server_keypair)
        nonce = os.urandom(32)
        reply = ta.ta_invoke(encode_command(TaCommand.ATTEST, nonce))
        assert reply[0] == TaStatus.OK
        quote = wire.decode_quote(reply[1:])
        assert quote.nonce == nonce
        assert quote.quote_time == clock.now()
        assert quote.ta_measurement == module_measurement()
        client_mod.verify_quote(quote, nonce=nonce,
                                expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
                                expected_ta=module_measurement(),
                                attestation_pk=server_keypair.public)

    def test_wrong_nonce_rejected(self, server_keypair):
        from eaas.errors import QuoteRejected
        ta, _ = make_ta(server_keypair)
        reply = ta.ta_invoke(encode_command(TaCommand.ATTEST, b"\x05" * 32))
        quote = wire.decode_quote(reply[1:])
        with pytest.raises(QuoteRejected) as exc:
            client_mod.verify_quote(quote, nonce=b"\x06" * 32,
                                    expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
                                    expected_ta=module_measurement(),
                                    attestation_pk=server_keypair.public)
        assert exc.value.reason == "nonce"

    def test_tampered_measurement_fails_signature(self, server_keypair):
        from dataclasses import replace

        from eaas.errors import QuoteRejected
        ta, _ = make_ta(server_keypair)
        nonce = b"\x07" * 32
        reply = ta.ta_invoke(encode_command(TaCommand.ATTEST, nonce))
        quote = wire.decode_quote(reply[1:])
        bad_ta = bytearray(quote.ta_measurement)
        bad_ta[5] ^= 0x80
        tampered = replace(quote, ta_measurement=bytes(bad_ta))
        with pytest.raises(QuoteRejected) as exc:
            client_mod.verify_quote(tampered, nonce=nonce,
                                    expected_sm=DEFAULT_PLATFORM_MEASUREMENT,
                                    expected_ta=bytes(bad_ta),
                                    attestation_pk=server_keypair.public)
        assert exc.value.reason == "sig"

    def test_bad_nonce_length_malformed(self, server_keypair):
        ta, _ = make_ta(server_keypair)
        reply = ta.ta_invoke(encode_command(TaCommand.ATTEST, b"\x01" * 31))
        assert reply == bytes([TaStatus.MALFORMED])


class TestTcbBoundary:
    def test_public_surface_is_only_ta_invoke(self, server_keypair):
        ta, _ = make_ta(server_keypair)
        exported = [name for name in dir(ta) if not name.startswith("_")]
        assert exported == ["ta_invoke"]

    def test_no_export_returns_secrets(self, server_keypair):
        """Every reachable output of the public surface is checked for
        key material and pool buffer bytes."""
        clock = SimClock()
        pool = make_pool(clock)
        ta, _ = make_ta(server_keypair, clock=clock, pool=pool)
        pool.harvest(512, deadline_ms=100)
        buffer_snapshot = pool.status().buffered
        secret_der = crypto.private_key_der(server_keypair)

        outputs = [
            ta.ta_invoke(encode_command(TaCommand.GET_PUBKEY)),
            ta.ta_invoke(encode_command(TaCommand.ATTEST, b"\x01" * 32)),
        ]
        for out in outputs:
            assert secret_der not in out
            assert buffer_snapshot not in out


@pytest.fixture(scope="module")
def stack_ta(server_keypair, client_keypair):
    """A make_stack TA and one honest HANDLE_REQUEST command for it."""
    ta = make_stack(server_keypair, capacity=Fraction(10 ** 6))[2]
    body = build_body(client_keypair, server_keypair.public)
    return ta, encode_command(TaCommand.HANDLE_REQUEST, body)


HOSTILE = settings(max_examples=150, deadline=None, derandomize=True)


class TestHostileCommands:
    """Whatever the bytes, ta_invoke answers with a status byte."""

    @HOSTILE
    @given(command=st.binary(max_size=1200))
    def test_arbitrary_bytes(self, stack_ta, command):
        reply = stack_ta[0].ta_invoke(command)
        assert reply and reply[0] in list(TaStatus)

    @HOSTILE
    @given(data=st.data())
    def test_flipped_or_truncated_request(self, stack_ta, data):
        ta, honest = stack_ta
        pos = data.draw(st.integers(0, len(honest) - 1))
        if data.draw(st.booleans()):
            flip = data.draw(st.integers(1, 255))
            command = honest[:pos] + bytes([honest[pos] ^ flip]) \
                + honest[pos + 1:]
        else:
            command = honest[:pos]
        reply = ta.ta_invoke(command)
        assert reply and reply[0] in list(TaStatus)
        assert reply[0] != TaStatus.OK
