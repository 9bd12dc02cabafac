"""Entropy pool: pluggable sources, min-entropy accounting, hash-based
conditioning, and per-source health monitoring.

Accounting is conservative. Each health-tested block of raw source bytes
is appended to the pool buffer and credited floor(bits * declared_density)
bits of min-entropy, so credited_bits <= 8 * len(buffer) always holds and
the pool compresses entropy, never stretches it.

Extraction hashes the whole buffer: output block i is
SHA-256(be32(i) || buffer), concatenated and truncated to the requested
length. Afterwards the buffer is replaced by a ratchet rehash
(SHA-256(RATCHET || be32(i) || buffer) blocks) sized to the remaining
credit, which makes already-extracted output unrecoverable from the new
state and keeps the credit invariant tight.

Health thresholds (4-sigma monobit, 20-byte repetition run, 3 consecutive
failures to degrade) are deliberately plain and are constructor-tunable.
"""

from __future__ import annotations

import enum
import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import (
    BlockTooShort,
    DuplicateSourceId,
    EntropyDepleted,
    InsufficientCredit,
    NoSources,
)

MIN_HEALTH_BLOCK = 64
DEFAULT_BLOCK_BYTES = 64
RATCHET_TAG = b"EAAS-RATCHET-V1"

Generator = Callable[[int], bytes]
Clock = Callable[[], int]


def system_clock_ms() -> int:
    """Milliseconds since the Unix epoch, UTC."""
    return time.time_ns() // 1_000_000


class HealthState(str, enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DISABLED = "disabled"


@dataclass(frozen=True)
class SourceDescriptor:
    """Registration record for one entropy source.

    declared_density is the claimed min-entropy in bits per output bit;
    max_rate is the bytes per second the source can supply.
    """

    source_id: str
    declared_density: Fraction
    max_rate: Fraction

    def __post_init__(self):
        if not 0 < self.declared_density <= 1:
            raise ValueError("declared_density must be in (0, 1]")
        if self.max_rate <= 0:
            raise ValueError("max_rate must be positive")


@dataclass
class PoolState:
    """Snapshot of the pool: buffer, credit, and per-source health."""

    buffered: bytes
    credited_bits: int
    per_source_health: dict[str, HealthState] = field(default_factory=dict)


def health_test(block: bytes, *, monobit_sigmas: float = 4.0,
                max_repeat: int = 20) -> bool:
    """Cheap per-block sanity check run before any crediting.

    Fails when the bit balance drifts more than monobit_sigmas standard
    deviations from half, or when any byte value repeats more than
    max_repeat times consecutively.
    """
    n = len(block)
    if n < MIN_HEALTH_BLOCK:
        raise BlockTooShort(f"health test needs >= {MIN_HEALTH_BLOCK} bytes")
    ones = int.from_bytes(block, "big").bit_count()
    if abs(ones - 4 * n) > monobit_sigmas * math.sqrt(2 * n):
        return False
    run = 1
    for i in range(1, n):
        if block[i] == block[i - 1]:
            run += 1
            if run > max_repeat:
                return False
        else:
            run = 1
    return True


class _Source:
    """Internal per-source record: descriptor, generator, rate allowance."""

    def __init__(self, desc: SourceDescriptor, generator: Generator,
                 now_ms: int):
        self.desc = desc
        self.generator = generator
        self.health = HealthState.HEALTHY
        self.consecutive_failures = 0
        # Allowance starts at a one-second burst and refills at max_rate.
        self.allowance = Fraction(desc.max_rate)
        self.last_refill_ms = now_ms

    def refill(self, now_ms: int) -> None:
        elapsed = now_ms - self.last_refill_ms
        if elapsed > 0:
            self.allowance = min(
                Fraction(self.desc.max_rate),
                self.allowance + self.desc.max_rate * Fraction(elapsed, 1000))
        self.last_refill_ms = now_ms


class EntropyPool:
    """Serialized pool of conditioned entropy with min-entropy credit."""

    def __init__(self, clock: Clock = system_clock_ms, *,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 monobit_sigmas: float = 4.0,
                 max_repeat: int = 20,
                 degrade_after: int = 3):
        if block_bytes < MIN_HEALTH_BLOCK:
            raise ValueError(f"block_bytes must be >= {MIN_HEALTH_BLOCK}")
        self._clock = clock
        self._block_bytes = block_bytes
        self._monobit_sigmas = monobit_sigmas
        self._max_repeat = max_repeat
        self._degrade_after = degrade_after
        self._sources: dict[str, _Source] = {}
        self._buffered = b""
        self._credited_bits = 0
        self._lock = threading.Lock()
        # Lifetime counters for the conservation invariant.
        self.total_credited_bits = 0
        self.total_extracted_bytes = 0

    # -- registration -------------------------------------------------------

    def register_source(self, desc: SourceDescriptor,
                        generator: Generator) -> str:
        with self._lock:
            if desc.source_id in self._sources:
                raise DuplicateSourceId(desc.source_id)
            self._sources[desc.source_id] = _Source(desc, generator,
                                                    self._clock())
            return desc.source_id

    def disable_source(self, source_id: str) -> None:
        with self._lock:
            self._sources[source_id].health = HealthState.DISABLED

    # -- harvesting ----------------------------------------------------------

    def harvest(self, needed_bits: int, deadline_ms: int) -> None:
        """Pull from healthy sources round-robin until the pool holds
        needed_bits of credit or the deadline (a duration) passes.
        Returns nothing; ``status()`` reports the resulting state.

        The pool never blocks waiting for source allowance: a full pass
        that credits nothing raises EntropyDepleted, so callers in
        simulated time terminate deterministically.
        """
        with self._lock:
            start = self._clock()
            while self._credited_bits < needed_bits:
                healthy = [s for s in self._sources.values()
                           if s.health is HealthState.HEALTHY]
                if not healthy:
                    raise NoSources("no healthy entropy source registered")
                if self._clock() - start > deadline_ms:
                    raise EntropyDepleted(
                        f"deadline after {deadline_ms} ms with "
                        f"{self._credited_bits}/{needed_bits} bits")
                progress = 0
                for source in healthy:
                    progress += self._pull_block(source)
                    if self._credited_bits >= needed_bits:
                        break
                if progress == 0:
                    raise EntropyDepleted(
                        f"sources exhausted with "
                        f"{self._credited_bits}/{needed_bits} bits")

    def _pull_block(self, source: _Source) -> int:
        """Pull one block if allowance permits; returns bits credited."""
        now = self._clock()
        source.refill(now)
        if source.allowance < self._block_bytes:
            return 0
        block = source.generator(self._block_bytes)
        if len(block) != self._block_bytes:
            return 0
        source.allowance -= self._block_bytes
        if not health_test(block, monobit_sigmas=self._monobit_sigmas,
                           max_repeat=self._max_repeat):
            source.consecutive_failures += 1
            if source.consecutive_failures >= self._degrade_after:
                source.health = HealthState.DEGRADED
            return 0
        source.consecutive_failures = 0
        credit = int(len(block) * 8 * source.desc.declared_density)
        self._buffered += block
        self._credited_bits += credit
        self.total_credited_bits += credit
        return credit

    # -- extraction ----------------------------------------------------------

    def extract(self, n_bytes: int) -> bytes:
        """Produce n_bytes of conditioned output, consuming 8*n_bytes of
        credit and ratcheting the buffer forward."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes == 0:
            return b""
        with self._lock:
            needed = 8 * n_bytes
            if self._credited_bits < needed:
                raise InsufficientCredit(
                    f"requested {needed} bits, credited "
                    f"{self._credited_bits}")
            out = self._hash_expand(b"", self._buffered, n_bytes)
            self._credited_bits -= needed
            self.total_extracted_bytes += n_bytes
            keep = max(32, -(-self._credited_bits // 8))
            self._buffered = self._hash_expand(RATCHET_TAG, self._buffered,
                                               keep)
            return out

    @staticmethod
    def _hash_expand(tag: bytes, buffered: bytes, n_bytes: int) -> bytes:
        blocks = []
        for counter in range(-(-n_bytes // 32)):
            blocks.append(hashlib.sha256(
                tag + counter.to_bytes(4, "big") + buffered).digest())
        return b"".join(blocks)[:n_bytes]

    # -- inspection ----------------------------------------------------------

    def status(self) -> PoolState:
        with self._lock:
            return PoolState(
                buffered=self._buffered,
                credited_bits=self._credited_bits,
                per_source_health={sid: s.health
                                   for sid, s in self._sources.items()})

    @property
    def credited_bits(self) -> int:
        return self._credited_bits
