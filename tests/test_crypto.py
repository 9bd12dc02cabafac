"""Crypto primitive tests: signatures, wrapping, sealing, hybrid claims."""

from __future__ import annotations

import os

import pytest
from cryptography.hazmat.primitives import hashes, keywrap
from cryptography.hazmat.primitives.asymmetric import padding

from eaas import crypto, wire
from eaas.errors import InvalidKey, OpenFailure, UnwrapFailure
from hypothesis import given, settings
from hypothesis import strategies as st


class TestKeyPair:
    def test_modulus_is_3072_bits(self, server_keypair):
        assert server_keypair.secret.key_size == 3072
        assert server_keypair.public.key_size == 3072

    def test_consecutive_keys_distinct(self, server_keypair, client_keypair):
        assert (server_keypair.public.public_numbers().n
                != client_keypair.public.public_numbers().n)

    def test_export_import_roundtrip_verifies(self, server_keypair):
        sig = crypto.sign(server_keypair.secret, b"TAG", b"hello")
        reloaded = crypto.load_public_key(server_keypair.public_der)
        assert crypto.verify(reloaded, b"TAG", b"hello", sig)

    def test_pem_armor_accepted(self, server_keypair):
        from cryptography.hazmat.primitives import serialization
        pem = server_keypair.public.public_bytes(
            serialization.Encoding.PEM,
            serialization.PublicFormat.SubjectPublicKeyInfo)
        assert crypto.load_public_key(pem).public_numbers() \
            == server_keypair.public.public_numbers()

    def test_private_key_pem_accepted(self, server_keypair):
        from cryptography.hazmat.primitives import serialization
        pem = server_keypair.secret.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption())
        reloaded = crypto.load_private_key(pem)
        assert reloaded.public_der == server_keypair.public_der

    def test_garbage_key_rejected(self):
        with pytest.raises(InvalidKey):
            crypto.load_public_key(b"not a key")

    def test_write_private_key_refuses_existing_file(self, tmp_path,
                                                     server_keypair):
        path = tmp_path / "key.der"
        crypto.write_private_key(path, server_keypair)
        reloaded = crypto.load_private_key(path.read_bytes())
        assert reloaded.public_der == server_keypair.public_der
        with pytest.raises(FileExistsError):
            crypto.write_private_key(path, server_keypair)

    def test_wrong_size_key_rejected(self):
        from cryptography.hazmat.primitives.asymmetric import rsa
        small = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        der = crypto.public_key_der(small.public_key())
        with pytest.raises(InvalidKey):
            crypto.load_public_key(der)


class TestSignatures:
    def test_sign_verify_roundtrip(self, server_keypair):
        sig = crypto.sign(server_keypair.secret, crypto.REQUEST_TAG, b"msg")
        assert len(sig) == 384
        assert crypto.verify(server_keypair.public, crypto.REQUEST_TAG,
                             b"msg", sig)

    def test_domain_separation(self, server_keypair):
        sig = crypto.sign(server_keypair.secret, crypto.REQUEST_TAG, b"msg")
        assert not crypto.verify(server_keypair.public, crypto.RESPONSE_TAG,
                                 b"msg", sig)

    def test_wrong_key_rejected(self, server_keypair, client_keypair):
        sig = crypto.sign(server_keypair.secret, b"T", b"msg")
        assert not crypto.verify(client_keypair.public, b"T", b"msg", sig)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_message_bit_flip_rejected(self, server_keypair, data):
        msg = data.draw(st.binary(min_size=1, max_size=64))
        sig = crypto.sign(server_keypair.secret, b"T", msg)
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(msg) - 1))
        bad = bytearray(msg)
        bad[bit // 8] ^= 1 << (bit % 8)
        assert not crypto.verify(server_keypair.public, b"T", bytes(bad), sig)

    @settings(max_examples=30, deadline=None)
    @given(bit=st.integers(min_value=0, max_value=384 * 8 - 1))
    def test_any_signature_bit_flip_rejected(self, server_keypair, bit):
        sig = bytearray(crypto.sign(server_keypair.secret, b"T", b"fixed"))
        sig[bit // 8] ^= 1 << (bit % 8)
        assert not crypto.verify(server_keypair.public, b"T", b"fixed",
                                 bytes(sig))


class TestKeyWrap:
    def test_roundtrip(self, client_keypair):
        key = os.urandom(16)
        wrapped = crypto.wrap_key(client_keypair.public, key)
        assert len(wrapped) == 384
        assert crypto.unwrap_key(client_keypair.secret, wrapped) == key

    def test_wrap_is_randomized(self, client_keypair):
        key = os.urandom(16)
        assert (crypto.wrap_key(client_keypair.public, key)
                != crypto.wrap_key(client_keypair.public, key))

    def test_wrong_key_unwrap_fails(self, client_keypair, other_keypair):
        wrapped = crypto.wrap_key(client_keypair.public, os.urandom(16))
        with pytest.raises(UnwrapFailure):
            crypto.unwrap_key(other_keypair.secret, wrapped)

    def test_corrupted_wrap_fails(self, client_keypair):
        wrapped = bytearray(crypto.wrap_key(client_keypair.public,
                                            os.urandom(16)))
        wrapped[100] ^= 0x01
        with pytest.raises(UnwrapFailure):
            crypto.unwrap_key(client_keypair.secret, bytes(wrapped))

    def test_bad_session_key_length(self, client_keypair):
        with pytest.raises(ValueError):
            crypto.wrap_key(client_keypair.public, b"short")


class TestSealOpen:
    def test_tag_overhead_is_16(self):
        key, nonce = os.urandom(16), os.urandom(12)
        for size in (0, 1, 32, 4105):
            ct = crypto.seal_payload(key, nonce, b"\x55" * size)
            assert len(ct) - size == 16

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=512))
    def test_roundtrip_random_plaintexts(self, plaintext):
        key, nonce = os.urandom(16), os.urandom(12)
        ct = crypto.seal_payload(key, nonce, plaintext)
        assert crypto.open_payload(key, nonce, ct) == plaintext

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_any_ciphertext_bit_flip_fails(self, data):
        key, nonce = os.urandom(16), os.urandom(12)
        ct = crypto.seal_payload(key, nonce, b"payload under test")
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(ct) - 1))
        bad = bytearray(ct)
        bad[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(OpenFailure):
            crypto.open_payload(key, nonce, bytes(bad))


def binding_for(recipient) -> crypto.BindingKey:
    key = os.urandom(16)
    return crypto.BindingKey(key, crypto.wrap_key(recipient, key))


class TestHybrid:
    def test_full_roundtrip_max_payload(self, client_keypair,
                                        server_keypair):
        payload = os.urandom(4105)
        env = crypto.seal_message(binding_for(client_keypair.public),
                                  payload, signer=server_keypair.secret,
                                  session_key=os.urandom(16))
        assert crypto.open_message(client_keypair.secret, env) == payload

    def test_signed_envelope_verifies(self, client_keypair, server_keypair):
        env = crypto.seal_message(binding_for(client_keypair.public),
                                  b"data", signer=server_keypair.secret,
                                  session_key=os.urandom(16))
        assert crypto.verify(
            server_keypair.public, crypto.RESPONSE_TAG,
            crypto.envelope_signing_bytes(env.wrapped_key, env.nonce,
                                          env.ciphertext),
            env.sigma2)

    def test_supplied_session_key_used(self, client_keypair,
                                       server_keypair):
        """A caller-supplied session key is AES-KW-wrapped as given under
        the binding key, whose wrap is the envelope's wrapped_key; rng
        supplies only the nonce."""
        session_key = bytes(range(16))
        binding = binding_for(client_keypair.public)
        draws = []

        def rng(n):
            draws.append(n)
            return b"\x07" * n

        env = crypto.seal_message(binding, b"payload", rng,
                                  signer=server_keypair.secret,
                                  session_key=session_key)
        assert draws == [wire.NONCE_LEN]
        assert env.wrapped_key == binding.wrapped
        assert crypto.unwrap_key(client_keypair.secret,
                                 env.wrapped_key) == binding.key
        assert keywrap.aes_key_unwrap(
            binding.key, env.ciphertext[:crypto.KW_LEN]) == session_key
        assert crypto.open_payload(session_key, env.nonce,
                                   env.ciphertext[crypto.KW_LEN:]) \
            == b"payload"

    def test_oaep_capacity_is_318(self):
        assert crypto.OAEP_CAPACITY == 384 - 66 == 318

    def test_direct_rsa_cannot_carry_response_payload(self, client_keypair):
        """The rationale for the session key: 4105 > 318, and OAEP
        refuses anything over its capacity while the envelope carries it
        in one message."""
        oaep = padding.OAEP(mgf=padding.MGF1(hashes.SHA256()),
                            algorithm=hashes.SHA256(), label=None)
        assert client_keypair.public.encrypt(b"x" * 318, oaep)
        with pytest.raises(ValueError):
            client_keypair.public.encrypt(b"x" * 319, oaep)
        assert 4105 > crypto.OAEP_CAPACITY

    def test_no_session_key_nonce_reuse(self, client_keypair,
                                        server_keypair):
        """Instrumented generation: fresh (key, nonce) per envelope."""
        binding = binding_for(client_keypair.public)
        seen = set()
        for _ in range(50):
            env = crypto.seal_message(binding, b"x",
                                      signer=server_keypair.secret,
                                      session_key=os.urandom(16))
            key = keywrap.aes_key_unwrap(binding.key,
                                         env.ciphertext[:crypto.KW_LEN])
            assert (key, env.nonce) not in seen
            seen.add((key, env.nonce))

    def test_envelope_lengths_match_wire_invariants(self, client_keypair,
                                                    server_keypair):
        env = crypto.seal_message(binding_for(client_keypair.public),
                                  b"q" * 41, signer=server_keypair.secret,
                                  session_key=os.urandom(16))
        assert len(env.wrapped_key) == wire.WRAPPED_KEY_LEN
        assert len(env.nonce) == wire.NONCE_LEN
        assert len(env.ciphertext) == crypto.KW_LEN + 41 + wire.GCM_TAG_LEN
