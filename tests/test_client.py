"""Client tests: provisioning, request building, the verification chain
in its fixed order, and retry discipline."""

from __future__ import annotations

import http.client
import os
import socket
import stat
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import keywrap
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_generator
from eaas import client as client_mod
from eaas import crypto, wire
from eaas.config import ServerConfig
from eaas.errors import (
    BadServerSignature,
    FieldOutOfRange,
    MissingServerKey,
    OpenFailure,
    Stale,
    StoreCorrupt,
    TransportError,
    UnwrapFailure,
    WrongQuantity,
)
from eaas.server import TesServer
from eaas.sources import SourceSpec
from eaas.trusted import TaCommand, TaStatus, encode_command


class TestProvision:
    def test_fresh_store(self, tmp_path, server_keypair):
        identity = client_mod.provision(tmp_path / "s",
                                        server_keypair.public_der)
        assert (tmp_path / "s" / "client_key.der").exists()
        assert stat.S_IMODE(
            (tmp_path / "s" / "client_key.der").stat().st_mode) == 0o600
        assert (tmp_path / "s" / "server_key.der").exists()
        assert len(identity.fingerprint) == 32

    def test_idempotent(self, tmp_path, server_keypair):
        first = client_mod.provision(tmp_path / "s",
                                     server_keypair.public_der)
        second = client_mod.provision(tmp_path / "s")
        assert first.fingerprint == second.fingerprint

    def test_truncated_key_file(self, tmp_path, server_keypair):
        client_mod.provision(tmp_path / "s", server_keypair.public_der)
        key_path = tmp_path / "s" / "client_key.der"
        key_path.write_bytes(key_path.read_bytes()[:100])
        with pytest.raises(StoreCorrupt):
            client_mod.provision(tmp_path / "s")

    def test_missing_server_key(self, tmp_path):
        with pytest.raises(MissingServerKey):
            client_mod.provision(tmp_path / "s")


def make_identity(keypair, server_keypair, tmp_path=None):
    from pathlib import Path
    return client_mod.ClientIdentity(
        keypair=keypair, server_public=server_keypair.public,
        store_path=Path("<test>"))


class TestBuildRequest:
    def test_body_is_hint_and_verifying_request(self, client_keypair,
                                                server_keypair):
        identity = make_identity(client_keypair, server_keypair)
        body, t1 = client_mod.build_request(identity, 48)
        assert t1 > 0
        hint, request = body[:32], body[32:]
        assert hint == identity.fingerprint
        req = wire.decode_request(request)
        assert req.delta_s == 48
        assert crypto.verify(client_keypair.public, crypto.REQUEST_TAG,
                             crypto.request_signing_bytes(
                                 req.client_pub_key, req.delta_s),
                             req.sigma1)

    def test_out_of_range(self, client_keypair, server_keypair):
        identity = make_identity(client_keypair, server_keypair)
        with pytest.raises(FieldOutOfRange):
            client_mod.build_request(identity, 4097)
        with pytest.raises(FieldOutOfRange):
            client_mod.build_request(identity, 0)

    def test_two_builds_send_identical_bodies(self, client_keypair,
                                              server_keypair):
        """The request is signed, not sealed: one binding always sends
        the same bytes."""
        identity = make_identity(client_keypair, server_keypair)
        body1, _ = client_mod.build_request(identity, 32)
        body2, _ = client_mod.build_request(identity, 32)
        assert body1 == body2
        body3, _ = client_mod.build_request(identity, 48)
        assert body3 != body1


def count_signs(monkeypatch) -> list:
    """Record the message of every crypto.sign call from here on."""
    calls, real_sign = [], crypto.sign

    def counting_sign(secret, domain_tag, msg):
        calls.append(msg)
        return real_sign(secret, domain_tag, msg)

    monkeypatch.setattr(crypto, "sign", counting_sign)
    return calls


def ta_status(ta, body: bytes) -> TaStatus:
    return TaStatus(ta.ta_invoke(
        encode_command(TaCommand.HANDLE_REQUEST, body))[0])


def sent_sigma1(body: bytes) -> bytes:
    return wire.decode_request(body[wire.FINGERPRINT_LEN:]).sigma1


class TestSigma1Memo:
    def test_signed_once_per_delta_s(self, monkeypatch, client_keypair,
                                     server_keypair):
        identity = make_identity(client_keypair, server_keypair)
        calls = count_signs(monkeypatch)
        client_mod.build_request(identity, 32)
        client_mod.build_request(identity, 32)
        assert len(calls) == 1
        client_mod.build_request(identity, 48)
        assert len(calls) == 2

    def test_new_keypair_re_signs(self, monkeypatch, stack, client_keypair,
                                  other_keypair, server_keypair):
        _, _, ta, _ = stack
        identity = make_identity(client_keypair, server_keypair)
        calls = count_signs(monkeypatch)
        old_body, _ = client_mod.build_request(identity, 32)
        identity.keypair = other_keypair
        body, _ = client_mod.build_request(identity, 32)
        assert len(calls) == 2
        assert ta_status(ta, body) is TaStatus.OK
        # What a stale memo would have sent: the old key's sigma1 under
        # the new key.
        stale = (wire.fingerprint(other_keypair.public_der)
                 + wire.encode_request(wire.EntropyRequest(
                     other_keypair.public_der, 32, sent_sigma1(old_body))))
        assert ta_status(ta, stale) is TaStatus.BAD_SIGNATURE

    def test_reused_sigma1_in_identical_bodies(self, monkeypatch, stack,
                                               client_keypair,
                                               server_keypair):
        _, _, ta, _ = stack
        identity = make_identity(client_keypair, server_keypair)
        calls = count_signs(monkeypatch)
        body1, _ = client_mod.build_request(identity, 32)
        body2, _ = client_mod.build_request(identity, 32)
        assert len(calls) == 1
        assert body1 == body2
        assert ta_status(ta, body1) is TaStatus.OK
        assert ta_status(ta, body2) is TaStatus.OK

    def test_threads_sharing_an_identity_get_their_own_binding(
            self, monkeypatch, client_keypair, server_keypair):
        """Threads alternating delta_s on one identity each get the
        signature over their own delta_s, never another thread's."""
        identity = make_identity(client_keypair, server_keypair)
        monkeypatch.setattr(crypto, "sign",
                            lambda secret, tag, msg: tag + msg)
        expected = {d: crypto.REQUEST_TAG + crypto.request_signing_bytes(
            client_keypair.public_der, d) for d in (32, 48)}
        wrong, finished = [], []

        def worker(first: int) -> None:
            for i in range(2_000):
                delta_s = (32, 48)[(first + i) % 2]
                if (client_mod.signed_request(identity, delta_s).sigma1
                        != expected[delta_s]):
                    wrong.append(delta_s)
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
        assert not any(t.is_alive() for t in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert wrong == []


def forge_response(client_keypair, server_keypair, *, t2, entropy,
                   sign=True, tamper=None):
    """White-box server: craft a response envelope directly, optionally
    re-signing after a mutation (models a signer-capable adversary)."""
    payload = wire.encode_response_payload(
        wire.EntropyResponse(t2=t2, entropy=entropy))
    binding_key, session_key = os.urandom(16), os.urandom(16)
    nonce = os.urandom(12)
    ciphertext = (keywrap.aes_key_wrap(binding_key, session_key)
                  + crypto.seal_payload(session_key, nonce, payload))
    wrapped = crypto.wrap_key(client_keypair.public, binding_key)
    if tamper == "wrapped_key":
        wrapped = bytearray(wrapped)
        wrapped[50] ^= 0x01
        wrapped = bytes(wrapped)
    elif tamper == "ciphertext":
        ciphertext = bytearray(ciphertext)
        ciphertext[5] ^= 0x01
        ciphertext = bytes(ciphertext)
    sigma2 = None
    if sign:
        sigma2 = crypto.sign(server_keypair.secret, crypto.RESPONSE_TAG,
                             crypto.envelope_signing_bytes(
                                 wrapped, nonce, ciphertext))
    return wire.encode_envelope(wire.SealedEnvelope(
        wrapped_key=wrapped, nonce=nonce, ciphertext=ciphertext,
        sigma2=sigma2))


class TestVerifyResponse:
    T1 = 1_000_000

    def verify(self, reply, client_keypair, server_keypair, *, t1=None,
               delta_s=32, now=None):
        return client_mod.verify_response(
            reply, t1=self.T1 if t1 is None else t1, delta_s=delta_s,
            server_public=server_keypair.public,
            secret_key=client_keypair.secret,
            now=self.T1 + 10 if now is None else now)

    def test_honest_response_accepted(self, client_keypair, server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 32)
        assert self.verify(reply, client_keypair, server_keypair) \
            == b"\x11" * 32

    def test_t2_equal_t1_is_stale(self, client_keypair, server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1, entropy=b"\x11" * 32)
        with pytest.raises(Stale):
            self.verify(reply, client_keypair, server_keypair)

    def test_t2_before_t1_is_stale(self, client_keypair, server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 - 1, entropy=b"\x11" * 32)
        with pytest.raises(Stale):
            self.verify(reply, client_keypair, server_keypair)

    def test_far_future_t2_rejected(self, client_keypair, server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 60_000, entropy=b"\x11" * 32)
        with pytest.raises(Stale):
            self.verify(reply, client_keypair, server_keypair,
                        now=self.T1 + 10)

    def test_wrong_quantity_with_valid_signature(self, client_keypair,
                                                 server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 31)
        with pytest.raises(WrongQuantity):
            self.verify(reply, client_keypair, server_keypair, delta_s=32)

    def test_unsigned_response_rejected(self, client_keypair,
                                        server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 32,
                               sign=False)
        with pytest.raises(BadServerSignature):
            self.verify(reply, client_keypair, server_keypair)

    def test_signature_checked_before_decryption(self, client_keypair,
                                                 server_keypair):
        """Corrupt ciphertext under a stale signature: the signature
        failure must win (fixed verification order)."""
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 32)
        env = wire.decode_envelope(reply)
        bad_ct = bytearray(env.ciphertext)
        bad_ct[0] ^= 0xFF
        tampered = wire.encode_envelope(replace(env,
                                                ciphertext=bytes(bad_ct)))
        with pytest.raises(BadServerSignature):
            self.verify(tampered, client_keypair, server_keypair)

    def test_resigned_wrapped_key_corruption_unwrap_failure(
            self, client_keypair, server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 32,
                               tamper="wrapped_key")
        with pytest.raises(UnwrapFailure):
            self.verify(reply, client_keypair, server_keypair)

    def test_resigned_ciphertext_corruption_open_failure(
            self, client_keypair, server_keypair):
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 32,
                               tamper="ciphertext")
        with pytest.raises(OpenFailure):
            self.verify(reply, client_keypair, server_keypair)

    def test_every_field_mutation_errors_never_entropy(
            self, client_keypair, server_keypair):
        """Black-box single-field mutations across the envelope: always a
        typed error, never entropy."""
        reply = forge_response(client_keypair, server_keypair,
                               t2=self.T1 + 5, entropy=b"\x11" * 32)
        env = wire.decode_envelope(reply)

        def flip(field: bytes) -> bytes:   # always a change, unlike \x00
            return bytes([field[0] ^ 1]) + field[1:]

        mutations = [
            replace(env, wrapped_key=flip(env.wrapped_key)),
            replace(env, nonce=flip(env.nonce)),
            replace(env, ciphertext=env.ciphertext[:-1]
                    + bytes([env.ciphertext[-1] ^ 1])),
            replace(env, sigma2=flip(env.sigma2)),
        ]
        for mutated in mutations:
            with pytest.raises(BadServerSignature):
                self.verify(wire.encode_envelope(mutated),
                            client_keypair, server_keypair)

    @settings(max_examples=25, deadline=None)
    @given(offset=st.integers(min_value=-1000, max_value=1000))
    def test_freshness_monotonicity(self, client_keypair, server_keypair,
                                    offset):
        """Fixed response: passes for all t1 < t2, fails for t1 >= t2."""
        t2 = self.T1
        reply = forge_response(client_keypair, server_keypair,
                               t2=t2, entropy=b"\x22" * 8)
        t1 = t2 + offset
        if t1 < t2:
            assert self.verify(reply, client_keypair, server_keypair,
                               t1=t1, delta_s=8, now=t2) == b"\x22" * 8
        else:
            with pytest.raises(Stale):
                self.verify(reply, client_keypair, server_keypair,
                            t1=t1, delta_s=8, now=t1)


class TestQuoteVerification:
    def test_reject_reasons(self, server_keypair):
        nonce = b"\x09" * 32
        sm, ta = b"\x0a" * 32, b"\x0b" * 32
        sig = crypto.sign(server_keypair.secret, crypto.QUOTE_TAG,
                          crypto.quote_signing_bytes(nonce, sm, ta, 42))
        quote = wire.AttestationQuote(nonce=nonce, sm_measurement=sm,
                                      ta_measurement=ta, quote_time=42,
                                      signature=sig)
        client_mod.verify_quote(quote, nonce=nonce, expected_sm=sm,
                                expected_ta=ta,
                                attestation_pk=server_keypair.public)
        cases = [
            (replace(quote, signature=b"\x00" * 384), nonce, sm, ta, "sig"),
            (quote, b"\x10" * 32, sm, ta, "nonce"),
            (quote, nonce, b"\x10" * 32, ta, "measurement"),
            (quote, nonce, sm, b"\x10" * 32, "measurement"),
        ]
        from eaas.errors import QuoteRejected
        for q, n, e_sm, e_ta, reason in cases:
            with pytest.raises(QuoteRejected) as exc:
                client_mod.verify_quote(q, nonce=n, expected_sm=e_sm,
                                        expected_ta=e_ta,
                                        attestation_pk=server_keypair.public)
            assert exc.value.reason == reason


class TestRequestEntropy:
    @pytest.fixture
    def live_server(self, tmp_path):
        cfg = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            key_file=tmp_path / "key.der",
            throttle_capacity=Fraction(100),
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        server = TesServer(cfg)
        server.start()
        yield server
        server.shutdown()

    def test_end_to_end(self, live_server, tmp_path):
        identity = client_mod.provision(
            tmp_path / "store",
            client_mod.fetch_server_pubkey(live_server.url))
        entropy = client_mod.request_entropy(identity, live_server.url, 32)
        assert len(entropy) == 32

    def test_server_offline_exhausts_budget(self, tmp_path,
                                            server_keypair,
                                            client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        sleeps = []
        with pytest.raises(TransportError):
            client_mod.request_entropy(
                identity, "http://127.0.0.1:9", 32,
                timeout=0.2, sleep=sleeps.append)
        assert len(sleeps) == client_mod.DEFAULT_RETRIES - 1

    def test_throttle_retry_budget(self, tmp_path):
        cfg = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            key_file=tmp_path / "key.der",
            throttle_capacity=Fraction(1),
            throttle_refill_rate=Fraction(1, 3600),   # ~no refill
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        server = TesServer(cfg)
        server.start()
        try:
            identity = client_mod.provision(
                tmp_path / "store",
                client_mod.fetch_server_pubkey(server.url))
            assert client_mod.request_entropy(identity, server.url, 16)
            sleeps = []
            with pytest.raises(TransportError):
                client_mod.request_entropy(identity, server.url, 16,
                                           sleep=sleeps.append)
            assert len(sleeps) == client_mod.DEFAULT_RETRIES - 1
            assert all(s >= 1 for s in sleeps)   # server-guided delay
        finally:
            server.shutdown()

    def test_no_retry_on_verification_failure(self, monkeypatch,
                                              server_keypair,
                                              client_keypair):
        """An adversarial proxy corrupting the response must surface the
        verification error immediately, with no second request."""
        identity = make_identity(client_keypair, server_keypair)
        calls = []

        def fake_post(url, body, timeout):
            calls.append(url)
            reply = forge_response(client_keypair, server_keypair,
                                   t2=2, entropy=b"\x00" * 32)
            flipped = bytearray(reply)
            flipped[-10] ^= 0x01   # inside sigma2
            return 200, bytes(flipped), {}

        monkeypatch.setattr(client_mod, "_post", fake_post)
        with pytest.raises(BadServerSignature):
            client_mod.request_entropy(identity, "http://unit.test", 32,
                                       clock=lambda: 1,
                                       sleep=lambda s: None)
        assert len(calls) == 1

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1"])
    def test_bad_retry_after_is_transport_error(self, monkeypatch, value,
                                                server_keypair,
                                                client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        monkeypatch.setattr(client_mod, "_post", lambda url, body, timeout:
                            (429, b"throttled", {"Retry-After": value}))
        sleeps = []
        with pytest.raises(TransportError, match="Retry-After"):
            client_mod.request_entropy(identity, "http://unit.test", 32,
                                       sleep=sleeps.append)
        assert sleeps == []

    def test_huge_retry_after_is_capped(self, monkeypatch, server_keypair,
                                        client_keypair):
        identity = make_identity(client_keypair, server_keypair)
        monkeypatch.setattr(client_mod, "_post", lambda url, body, timeout:
                            (429, b"throttled", {"Retry-After": "1e9"}))
        sleeps = []
        with pytest.raises(TransportError, match="retry budget"):
            client_mod.request_entropy(identity, "http://unit.test", 32,
                                       sleep=sleeps.append)
        assert sleeps == [client_mod.MAX_RETRY_AFTER_S] * \
            (client_mod.DEFAULT_RETRIES - 1)


@contextmanager
def hostile_peer(reply: bytes):
    """A raw-socket peer on localhost answering every request with reply,
    then closing; yields its URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn, conn.makefile("rb") as rfile:
                conn.settimeout(5)
                length = 0    # read the whole request, so close sends no RST
                for line in iter(rfile.readline, b"\r\n"):
                    if not line:
                        break
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                rfile.read(length)
                conn.sendall(reply)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


class TestTransportErrors:
    """A peer that breaks HTTP surfaces as TransportError, with the
    underlying error kept as its cause."""

    REPLIES = {
        "short-body": (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n"
                       b"Connection: close\r\n\r\nabc",
                       http.client.IncompleteRead),
        "bad-status": (b"HTTP/1.1 abc\r\n\r\n", http.client.BadStatusLine),
        "no-length": (b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nabc",
                      http.client.HTTPException),
        "bad-length": (b"HTTP/1.1 200 OK\r\nContent-Length: +3\r\n\r\nabc",
                       http.client.HTTPException),
        "huge-length": (b"HTTP/1.1 200 OK\r\n"
                        b"Content-Length: 100000000000000\r\n\r\nabc",
                        http.client.HTTPException),
        "two-lengths": (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
                        b"Content-Length: 4\r\n\r\nabcd",
                        http.client.HTTPException),
        "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    b"3\r\nabc\r\n0\r\n\r\n", http.client.HTTPException),
        "long-header": (b"HTTP/1.1 200 OK\r\nX-Pad: "
                        + b"a" * client_mod._MAX_LINE
                        + b"\r\nContent-Length: 3\r\n\r\nabc",
                        http.client.LineTooLong),
        "many-headers": (b"HTTP/1.1 200 OK\r\n"
                         + b"X-Pad: a\r\n" * client_mod._MAX_HEADERS
                         + b"Content-Length: 3\r\n\r\nabc",
                         http.client.HTTPException),
    }

    @pytest.mark.parametrize("reply", sorted(REPLIES))
    def test_request_entropy_retries_then_raises(self, reply, server_keypair,
                                                 client_keypair):
        raw, cause = self.REPLIES[reply]
        identity = make_identity(client_keypair, server_keypair)
        sleeps = []
        with hostile_peer(raw) as url:
            with pytest.raises(TransportError,
                               match="retry budget") as exc:
                client_mod.request_entropy(identity, url, 32, timeout=2,
                                           sleep=sleeps.append)
        assert isinstance(exc.value.__cause__, TransportError)
        assert isinstance(exc.value.__cause__.__cause__, cause)
        assert sleeps == [0.2, 0.4]

    @pytest.mark.parametrize("reply", sorted(REPLIES))
    def test_request_attestation(self, reply, server_keypair):
        raw, cause = self.REPLIES[reply]
        with hostile_peer(raw) as url:
            with pytest.raises(TransportError) as exc:
                client_mod.request_attestation(
                    url, expected_sm=bytes(32), expected_ta=bytes(32),
                    attestation_pk=server_keypair.public, timeout=2)
        assert isinstance(exc.value.__cause__, cause)

    @pytest.mark.parametrize("reply", sorted(REPLIES))
    def test_fetch_server_pubkey(self, reply):
        raw, cause = self.REPLIES[reply]
        with hostile_peer(raw) as url:
            with pytest.raises(TransportError) as exc:
                client_mod.fetch_server_pubkey(url, timeout=2)
        assert isinstance(exc.value.__cause__, cause)

    def test_request_attestation_closed_port(self, server_keypair):
        with pytest.raises(TransportError) as exc:
            client_mod.request_attestation(
                "http://127.0.0.1:9", expected_sm=bytes(32),
                expected_ta=bytes(32),
                attestation_pk=server_keypair.public, timeout=0.2)
        assert isinstance(exc.value.__cause__, ConnectionRefusedError)


def _served_connections(monkeypatch) -> list:
    """Record every connection a TesServer handler accepts from here on."""
    from eaas.server import _Handler
    accepted, setup = [], _Handler.setup

    def counting_setup(handler):
        accepted.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return accepted


class TestKeptAliveConnection:
    """The SDK keeps one idle HTTP/1.1 connection, to the server it last
    used, and sends once more on a new one only when the server closed
    it while idle."""

    @pytest.fixture
    def server(self, tmp_path):
        cfg = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            key_file=tmp_path / "key.der",
            throttle_capacity=Fraction(100),
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        server = TesServer(cfg)
        server.start()
        yield server
        server.shutdown()

    def test_calls_share_one_connection(self, server, tmp_path,
                                        monkeypatch):
        accepted = _served_connections(monkeypatch)
        identity = client_mod.provision(
            tmp_path / "store", client_mod.fetch_server_pubkey(server.url))
        for _ in range(3):
            assert len(client_mod.request_entropy(identity, server.url,
                                                  16)) == 16
        assert len(accepted) == 1

    def test_idle_close_is_retried_once_on_a_new_connection(
            self, server, tmp_path, monkeypatch):
        """The server closes the idle connection after its timeout; the
        next call, allowed one attempt, still succeeds, and the server
        serves it once."""
        from http.server import ThreadingHTTPServer

        from eaas.server import _Handler
        closed, shutdown_request = (threading.Event(),
                                    ThreadingHTTPServer.shutdown_request)

        def closing(self, request):
            shutdown_request(self, request)
            closed.set()

        monkeypatch.setattr(ThreadingHTTPServer, "shutdown_request", closing)
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        accepted = _served_connections(monkeypatch)
        identity = client_mod.provision(
            tmp_path / "store", client_mod.fetch_server_pubkey(server.url))
        assert client_mod._idle is not None
        stale = client_mod._idle[1]
        assert closed.wait(5)
        allowed = server.service.counters["allowed"]
        entropy = client_mod.request_entropy(identity, server.url, 16,
                                             retries=1)
        assert len(entropy) == 16
        assert server.service.counters["allowed"] == allowed + 1
        assert len(accepted) == 2
        assert client_mod._idle[1] is not stale

    def test_connection_close_reply_is_not_reused(self, monkeypatch):
        class ClosingService:
            def handle_entropy(self, body):
                return 400, b"malformed", {"Connection": "close"}

        accepted = _served_connections(monkeypatch)
        server = TesServer(ServerConfig(listen_host="127.0.0.1",
                                        listen_port=0),
                           service=ClosingService())
        server.start()
        try:
            replies = [client_mod._post(server.url + path, b"x", 5)[:2]
                       for path in ("/nope", "/v1/entropy", "/nope")]
        finally:
            server.shutdown()
        assert replies == [(404, b"not-found"), (400, b"malformed"),
                           (404, b"not-found")]
        assert len(accepted) == 2       # the 404 kept it; the 400 closed it

    @pytest.mark.parametrize("url", ["https://127.0.0.1:9",
                                     "file:///dev/null", "127.0.0.1:9"])
    def test_only_http_urls(self, url):
        with pytest.raises(TransportError, match="only http://"):
            client_mod._post(url + "/v1/attest", b"", 1)

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:9/v1/a b", "http://127.0.0.1:9/v1/a\x00",
        "http://127.0.0.1:9/v1/\x7f", "http://127.0.0.1:9/v1/\xe9",
        "http://[::1/v1/attest", "http://127.0.0.1:99999/v1/attest"])
    def test_malformed_urls_are_transport_errors(self, url):
        with pytest.raises(TransportError) as exc:
            client_mod._post(url, b"", 1)
        assert isinstance(exc.value.__cause__, ValueError)


_ONE_FETCH = """
import sys
from fractions import Fraction
from pathlib import Path

from eaas import client
from eaas.config import ServerConfig
from eaas.server import TesServer
from eaas.sources import SourceSpec

server = TesServer(ServerConfig(
    listen_host="127.0.0.1", listen_port=0, key_file=Path(sys.argv[1]),
    sources=[SourceSpec("o", "os-random", Fraction(1), Fraction(1 << 20))]))
server.start()
try:
    identity = client.provision(sys.argv[2],
                                client.fetch_server_pubkey(server.url))
    assert len(client.request_entropy(identity, server.url, 32)) == 32
finally:
    server.shutdown()
"""


def test_idle_connection_is_closed_at_exit(tmp_path, server_keypair,
                                           client_keypair):
    """One fetch under python -X dev, which reports every socket left
    open: the SDK's kept connection is closed at exit."""
    crypto.write_private_key(tmp_path / "server.der", server_keypair)
    (tmp_path / "store").mkdir()
    crypto.write_private_key(tmp_path / "store" / client_mod.CLIENT_KEY_FILE,
                             client_keypair)
    src = Path(client_mod.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _ONE_FETCH,
         str(tmp_path / "server.der"), str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning: unclosed" not in result.stderr


def test_one_http_path():
    """eaas.client imports no urllib.request, and opens connections in
    one place: the one call in _exchange."""
    import ast
    tree = ast.parse(Path(client_mod.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(name.startswith("urllib.request") for name in imported)

    def opens(node) -> bool:
        return isinstance(node, ast.Call) and bool({
            getattr(node.func, "attr", None), getattr(node.func, "id", None)}
            & {"create_connection", "HTTPConnection", "HTTPSConnection",
               "socket", "connect", "connect_ex", "urlopen"})

    assert sum(map(opens, ast.walk(tree))) == 1
    assert [fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and any(map(opens, ast.walk(fn)))] == ["_exchange"]


def test_one_seal_path():
    """Only the TA seals, and only crypto.open_message unwraps: the
    client calls none of wrap_key, seal_payload or seal_message, the
    package calls seal_message only from trusted.py, unwrap_key only
    from crypto._binding_key, and that only from crypto.open_message."""
    import ast

    def calls(node, where):
        """(innermost enclosing function or None, called name)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from calls(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                yield where, getattr(func, "id", getattr(func, "attr", None))
            yield from calls(child, where)

    sealing = {"wrap_key", "seal_payload", "seal_message", "unwrap_key",
               "_binding_key"}
    found = {(path.stem, where, name)
             for path in Path(client_mod.__file__).parent.glob("*.py")
             for where, name in calls(ast.parse(path.read_text()), None)
             if name in sealing}
    assert not {c for c in found if c[0] == "client"}
    assert {c[0] for c in found if c[2] == "seal_message"} == {"trusted"}
    assert {c[:2] for c in found if c[2] == "unwrap_key"} == {
        ("crypto", "_binding_key")}
    assert {c[:2] for c in found if c[2] == "_binding_key"} == {
        ("crypto", "open_message")}


def test_only_crypto_imports_keywrap():
    """AES-KW is reached through crypto.seal_message and
    crypto.open_message alone: no other eaas module imports keywrap."""
    import ast

    def imports_keywrap(tree) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "keywrap" or ".keywrap." in name
                   for name in names):
                return True
        return False

    assert {path.stem for path in Path(client_mod.__file__).parent.glob(
        "*.py") if imports_keywrap(ast.parse(path.read_text()))} == {"crypto"}


class TestCli:
    def test_provision_fetch_attest(self, tmp_path, capsys):
        from eaas.config import DEFAULT_PLATFORM_MEASUREMENT
        from eaas.trusted import module_measurement
        cfg = ServerConfig(
            listen_host="127.0.0.1", listen_port=0,
            key_file=tmp_path / "key.der",
            throttle_capacity=Fraction(100),
            sources=[SourceSpec("o", "os-random", Fraction(1),
                                Fraction(1 << 20))])
        server = TesServer(cfg)
        server.start()
        try:
            pub_path = tmp_path / "server.der"
            pub_path.write_bytes(client_mod.fetch_server_pubkey(server.url))
            store = tmp_path / "store"

            assert client_mod.main(["provision", "--store", str(store),
                                    "--server-key", str(pub_path)]) == 0
            out = capsys.readouterr().out
            assert "identity fingerprint:" in out

            out_file = tmp_path / "entropy.bin"
            assert client_mod.main(["fetch", "--store", str(store),
                                    "--url", server.url,
                                    "--bytes", "24",
                                    "--out", str(out_file)]) == 0
            assert len(out_file.read_bytes()) == 24

            assert client_mod.main([
                "attest", "--store", str(store), "--url", server.url,
                "--expect-ta", module_measurement().hex(),
                "--expect-sm", DEFAULT_PLATFORM_MEASUREMENT.hex()]) == 0
            assert "quote accepted" in capsys.readouterr().out
        finally:
            server.shutdown()
