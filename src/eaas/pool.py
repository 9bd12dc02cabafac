"""Entropy pool: pluggable sources, min-entropy accounting, hash-based
conditioning, and per-source health monitoring.

Accounting is conservative. Each health-tested block of raw source bytes
is appended to the pool buffer as one record credited
floor(bits * declared_density) bits of min-entropy, so credited_bits <=
8 * len(buffer) always holds and the pool compresses entropy, never
stretches it.

Extraction is linear in the buffer and the output. The whole buffer is
hashed once into G = SHA-256(OUT_TAG || buffer), so every output byte
depends on every source. Each output block then gets its own slice of
the buffer. A record's credit is spread evenly over its bytes, and
cut(x) is the largest byte offset at which the cumulative credit,
rounded down, is at most x. For n output bytes, block i owns the credit
interval [256*i, min(256*(i+1), 8*n)) and is

    SHA-256(OUT_TAG || be32(i) || G || buffer[cut(lo):cut(hi)])

for its interval [lo, hi), truncated to (hi - lo) / 8 bytes; the first
slice starts at byte 0. The slices are disjoint, so no block is
conditioned on credit another block used, and n bytes consume exactly
8*n bits of credit. Rounding every cut down loses no credit: it only
moves bytes to the next slice.

The ratchet works the same way over the remaining credit interval
[8*n, C): block j = SHA-256(RATCHET_TAG || be32(j) || G || slice_j),
where the last slice ends at the end of the buffer, and
max(32, ceil((C - 8*n) / 8)) bytes of it become the new buffer, one
record carrying C - 8*n bits. Output is unrecoverable from the new
state, and the credit invariant stays tight.

Domain tags: OUT_TAG marks G and the output blocks, RATCHET_TAG the
next state. Two slices can hold the same bytes (a constant source), and
without distinct tags ratchet block j would then equal output block j,
leaving extracted output in the new state. Both end in -V2 so that no
hash input here reads as one of the earlier construction, which hashed
the whole buffer for every block (output SHA-256(be32(i) || buffer),
state under EAAS-RATCHET-V1).

Health thresholds (4-sigma monobit, 20-byte repetition run, 3 consecutive
failures to degrade) are deliberately plain and are constructor-tunable.
"""

from __future__ import annotations

import bisect
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
OUT_TAG = b"EAAS-OUT-V2"
RATCHET_TAG = b"EAAS-RATCHET-V2"
BLOCK_BITS = 256      # credit behind one SHA-256 output block

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
    value = int.from_bytes(block, "big")
    if abs(value.bit_count() - 4 * n) > monobit_sigmas * math.sqrt(2 * n):
        return False
    # Byte j >= 1 of value ^ (value >> 8) is block[j] ^ block[j - 1], so a
    # run of more than max_repeat equal bytes is max_repeat zero bytes.
    steps = (value ^ (value >> 8)).to_bytes(n, "big")[1:]
    return bytes(max(max_repeat, 1)) not in steps


class _Source:
    """Internal per-source record: descriptor, generator, rate allowance.

    With max_rate = p/q bytes per second, the allowance is an integer in
    units of 1/(1000*q) byte: a millisecond refills exactly p units, and
    the one-second burst it starts at and is capped to is 1000*p units.
    """

    def __init__(self, desc: SourceDescriptor, generator: Generator,
                 now_ms: int):
        self.desc = desc
        self.generator = generator
        self.health = HealthState.HEALTHY
        self.consecutive_failures = 0
        rate = Fraction(desc.max_rate)
        self.density = Fraction(desc.declared_density)
        self.unit = 1000 * rate.denominator     # allowance units per byte
        self.refill_per_ms = rate.numerator
        self.allowance = self.burst = 1000 * rate.numerator
        self.last_refill_ms = now_ms

    def refill(self, now_ms: int) -> None:
        elapsed = now_ms - self.last_refill_ms
        if elapsed > 0:
            self.allowance = min(self.burst,
                                 self.allowance + self.refill_per_ms * elapsed)
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
        self._buffered = bytearray()
        self._credited_bits = 0
        # One entry per appended record: its end offset in the buffer and
        # the cumulative credit up to that end.
        self._ends: list[int] = []
        self._cum: list[int] = []
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
        source.refill(self._clock())
        cost = self._block_bytes * source.unit
        if source.allowance < cost:
            return 0
        block = source.generator(self._block_bytes)
        if len(block) != self._block_bytes:
            return 0
        source.allowance -= cost
        if not health_test(block, monobit_sigmas=self._monobit_sigmas,
                           max_repeat=self._max_repeat):
            source.consecutive_failures += 1
            if source.consecutive_failures >= self._degrade_after:
                source.health = HealthState.DEGRADED
            return 0
        source.consecutive_failures = 0
        credit = (len(block) * 8 * source.density.numerator
                  // source.density.denominator)
        self._append(block, credit)
        self.total_credited_bits += credit
        return credit

    def _append(self, data: bytes, credit: int) -> None:
        """Add one record of data carrying credit bits to the buffer."""
        self._buffered += data
        self._credited_bits += credit
        self._ends.append(len(self._buffered))
        self._cum.append(self._credited_bits)

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
            mix = hashlib.sha256(OUT_TAG + self._buffered).digest()
            split = self._cut(needed)
            out = self._condition(OUT_TAG, mix, n_bytes, 0, 0, split)
            rest = self._credited_bits - needed
            keep = max(32, -(-rest // 8))
            state = self._condition(RATCHET_TAG, mix, keep, needed, split,
                                    len(self._buffered))
            self._buffered = bytearray(state)
            self._ends, self._cum = [keep], [rest]
            self._credited_bits = rest
            self.total_extracted_bytes += n_bytes
            return out

    def _cut(self, bits: int) -> int:
        """Largest buffer offset whose cumulative credit, each record's
        credit spread evenly over its bytes and rounded down, is <= bits."""
        k = bisect.bisect_right(self._cum, bits)
        if k == len(self._cum):
            return len(self._buffered)
        start, before = (self._ends[k - 1], self._cum[k - 1]) if k else (0, 0)
        # cum[k] > bits >= before, so the record carries credit.
        return start + (((bits - before + 1) * (self._ends[k] - start) - 1)
                        // (self._cum[k] - before))

    def _condition(self, tag: bytes, mix: bytes, n_bytes: int,
                   lo_bits: int, first: int, last: int) -> bytes:
        """n_bytes of SHA-256(tag || be32(j) || mix || slice_j), block j
        over the credit interval from lo_bits + 256*j; the first slice
        starts at offset first and the last ends at offset last."""
        n_blocks = -(-n_bytes // 32)
        bounds = [first]
        bounds += [self._cut(lo_bits + BLOCK_BITS * j)
                   for j in range(1, n_blocks)]
        bounds.append(last)
        buf = self._buffered
        return b"".join(
            hashlib.sha256(tag + j.to_bytes(4, "big") + mix
                           + buf[bounds[j]:bounds[j + 1]]).digest()
            for j in range(n_blocks))[:n_bytes]

    # -- inspection ----------------------------------------------------------

    def status(self) -> PoolState:
        with self._lock:
            return PoolState(
                buffered=bytes(self._buffered),
                credited_bits=self._credited_bits,
                per_source_health={sid: s.health
                                   for sid, s in self._sources.items()})

    @property
    def credited_bits(self) -> int:
        return self._credited_bits
