"""Typed error hierarchy shared across the stack.

Every failure a peer can trigger maps to one of these classes; nothing in
the protocol path raises a bare ValueError for attacker-controlled input.
"""

from __future__ import annotations


class EaasError(Exception):
    """Base class for all errors raised by this package."""


# --- wire / codec ---------------------------------------------------------

class MalformedMessage(EaasError):
    """Byte string does not parse as the claimed message type."""


class FieldOutOfRange(EaasError):
    """A decoded or supplied field violates its allowed range."""


# --- crypto ---------------------------------------------------------------

class RngFailure(EaasError):
    """The randomness backend failed while generating key material."""


class InvalidKey(EaasError):
    """Key bytes do not parse as an RSA-3072 key of the expected type."""


class UnwrapFailure(EaasError):
    """RSA key unwrap failed (wrong key and corruption look alike)."""


class OpenFailure(EaasError):
    """Authenticated decryption of a sealed payload failed."""


# --- entropy pool ---------------------------------------------------------

class DuplicateSourceId(EaasError):
    """A source with this id is already registered."""


class NoSources(EaasError):
    """No healthy entropy source is available to harvest from."""


class EntropyDepleted(EaasError):
    """Harvest could not reach the requested credit before its deadline."""


class InsufficientCredit(EaasError):
    """Extraction was requested beyond the pool's credited entropy."""


class BlockTooShort(EaasError):
    """Health testing needs at least the minimum block length."""


# --- trusted core ---------------------------------------------------------

class BadSignature(EaasError):
    """A client request signature failed verification."""


class HintMismatch(EaasError):
    """Cleartext fingerprint hint does not match the signed public key."""


# --- server ---------------------------------------------------------------

class ConfigError(EaasError):
    """Server configuration file is invalid."""


class BindFailure(EaasError):
    """The server could not bind its listen address."""


class KeyLoadFailure(EaasError):
    """Configured key material could not be loaded."""


# --- client ---------------------------------------------------------------

class StoreCorrupt(EaasError):
    """Identity store exists but its key material does not parse."""


class MissingServerKey(EaasError):
    """No pinned server public key is available for this identity."""


class BadServerSignature(EaasError):
    """Server response signature failed verification."""


class WrongQuantity(EaasError):
    """Response carried a different number of entropy bytes than requested."""


class Stale(EaasError):
    """Response timestamp fails the freshness checks."""


class QuoteRejected(EaasError):
    """Attestation quote verification failed.

    ``reason`` is one of ``"sig"``, ``"nonce"``, ``"measurement"``.
    """

    def __init__(self, reason: str, message: str | None = None):
        super().__init__(message or f"quote rejected: {reason}")
        self.reason = reason


class TransportError(EaasError):
    """Network-level failure after the retry budget was exhausted."""


# --- statistics -----------------------------------------------------------

class InputTooShort(EaasError):
    """The statistical suite needs at least 1 MiB of input."""
