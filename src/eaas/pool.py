"""Entropy pool: pluggable sources, min-entropy accounting, hash-based
conditioning, and per-source health monitoring.

Accounting is conservative. Each health-tested block of raw source bytes
is appended to the pool buffer as one record credited
floor(bits * declared_density) bits of min-entropy, so credited_bits <=
8 * len(buffer) always holds and the pool compresses entropy, never
stretches it.

Harvesting is the plain round-robin loop: each pass takes one block
from each healthy source while its rate allowance lasts (a source that
degrades gives none after that), and a pass that credits nothing
raises. The blocks come from a read-ahead built for each harvest: a
counts-only plan finds how many blocks each source gives in the passes
that would reach the request if every block passed, and each count is
pulled with one generator call and tested in one pass that gives every
block its own verdict (``failing_blocks``; ``health_test`` is its
one-block case). A source whose read-ahead runs out, which takes a
failing block or a degrade, gets one block per pull. So the buffer holds
the records of pulling, testing and crediting one block at a time. The
one difference: read-ahead blocks are dropped unused when their source
degrades, when a pass raises, or when the deadline passes.

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
A pull whose generator raises or returns the wrong length counts as one
failure, so a dead source degrades instead of failing every harvest.
"""

from __future__ import annotations

import enum
import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from struct import iter_unpack
from typing import Callable, Iterable, Iterator

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


def system_clock_ceil_ms() -> int:
    """Milliseconds since the Unix epoch, UTC, rounded up: the stamp for
    t2 and quote times. A client takes t1 rounded down, so a reply
    stamped later inside t1's own millisecond still reads t2 > t1."""
    return -(-time.time_ns() // 1_000_000)


def monotonic_clock_ms() -> int:
    """Milliseconds on a clock that never steps, for rate and work
    bounds: a wall-clock step would refill them all at once or freeze
    them."""
    return time.monotonic_ns() // 1_000_000


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


def failing_blocks(data: bytes, block_bytes: int, *,
                   monobit_sigmas: float = 4.0,
                   max_repeat: int = 20) -> set[int]:
    """Indices of the block_bytes-long blocks of data that fail the
    health test, each judged on its own bytes alone.

    A block fails when its bit balance drifts more than monobit_sigmas
    standard deviations from half, or when any byte value repeats more
    than max_repeat times consecutively within it.
    """
    if block_bytes < MIN_HEALTH_BLOCK:
        raise BlockTooShort(f"health test needs >= {MIN_HEALTH_BLOCK} bytes")
    half = 4 * block_bytes
    limit = monobit_sigmas * math.sqrt(2 * block_bytes)
    blocks = map(itemgetter(0), iter_unpack(f"{block_bytes}s", data))
    ones = list(map(int.bit_count,
                    map(int.from_bytes, blocks, repeat("big"))))
    # The passing counts form an interval, so when its ends pass, all do.
    failed = (set() if not ones or max(abs(min(ones) - half),
                                       abs(max(ones) - half)) <= limit
              else {i for i, c in enumerate(ones) if abs(c - half) > limit})
    # Byte j of value ^ (value >> 8) is data[j] ^ data[j - 1], so a run
    # of more than max_repeat equal bytes is max_repeat zero bytes. The
    # step at each block's first byte is set nonzero: no run continues
    # into the next block.
    value = int.from_bytes(data, "big")
    steps = bytearray((value ^ (value >> 8)).to_bytes(len(data), "big"))
    steps[::block_bytes] = b"\x01" * len(ones)
    run = bytes(max(max_repeat, 1))
    at = steps.find(run)
    while at >= 0:
        failed.add(at // block_bytes)
        at = steps.find(run, (at // block_bytes + 1) * block_bytes)
    return failed


def health_test(block: bytes, *, monobit_sigmas: float = 4.0,
                max_repeat: int = 20) -> bool:
    """Cheap per-block sanity check run before any crediting: the
    one-block case of ``failing_blocks``."""
    return not failing_blocks(block, len(block),
                              monobit_sigmas=monobit_sigmas,
                              max_repeat=max_repeat)


class _Source:
    """Internal per-source record: descriptor, generator, rate allowance.

    With max_rate = p/q bytes per second, the allowance is an integer in
    units of 1/(1000*q) byte: a millisecond refills exactly p units, and
    the one-second burst it starts at and is capped to is 1000*p units.
    """

    def __init__(self, desc: SourceDescriptor, generator: Generator,
                 now_ms: int, block_bytes: int):
        self.desc = desc
        self.generator = generator
        self.health = HealthState.HEALTHY
        self.consecutive_failures = 0
        rate = Fraction(desc.max_rate)
        self.density = Fraction(desc.declared_density)
        self.credit = (block_bytes * 8 * self.density.numerator
                       // self.density.denominator)  # bits per block
        self.unit = 1000 * rate.denominator     # allowance units per byte
        self.refill_per_ms = rate.numerator
        self.allowance = self.burst = 1000 * rate.numerator
        self.last_refill_ms = now_ms

    def refill(self, now_ms: int) -> int:
        """Refill the allowance up to now_ms and return it."""
        elapsed = now_ms - self.last_refill_ms
        if elapsed > 0:
            self.allowance = min(self.burst,
                                 self.allowance + self.refill_per_ms * elapsed)
        self.last_refill_ms = now_ms
        return self.allowance


class EntropyPool:
    """Serialized pool of conditioned entropy with min-entropy credit."""

    def __init__(self, clock: Clock = monotonic_clock_ms, *,
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
            self._sources[desc.source_id] = _Source(
                desc, generator, self._clock(), self._block_bytes)
            return desc.source_id

    def disable_source(self, source_id: str) -> None:
        with self._lock:
            self._sources[source_id].health = HealthState.DISABLED

    # -- harvesting ----------------------------------------------------------

    def harvest(self, needed_bits: int, deadline_ms: int) -> None:
        """Pull from healthy sources round-robin until the pool holds
        needed_bits of credit or the deadline (a duration) passes.
        Returns nothing; ``status()`` reports the resulting state.

        Each pass checks the deadline and takes one block from each
        healthy source; a pass that credits nothing raises
        EntropyDepleted, so the pool never waits for allowance. Blocks
        come from the read-ahead the module docstring describes. Credit
        earned before a raise is kept.
        """
        with self._lock:
            start = self._clock()
            have = self._credited_bits
            if have >= needed_bits:
                return
            healthy = [s for s in self._sources.values()
                       if s.health is HealthState.HEALTHY]
            if not healthy:
                raise NoSources("no healthy entropy source registered")
            ahead = self._read_ahead(healthy, needed_bits - have)
            pieces, gains = [], []
            try:
                while have < needed_bits:
                    if self._clock() - start > deadline_ms:
                        raise EntropyDepleted(
                            f"deadline after {deadline_ms} ms with "
                            f"{have}/{needed_bits} bits")
                    before = have
                    for source, blocks in ahead:
                        block = next(blocks)
                        if block:
                            pieces.append(block)
                            gains.append(source.credit)
                            have += source.credit
                            if have >= needed_bits:
                                break
                    if have == before:
                        raise EntropyDepleted(
                            f"sources exhausted with "
                            f"{have}/{needed_bits} bits")
            finally:
                if pieces:
                    self._append(b"".join(pieces), *gains)
                    self.total_credited_bits += sum(gains)

    def _read_ahead(self, sources: list[_Source], short: int
                    ) -> list[tuple[_Source, Iterator[bytes]]]:
        """Each source with its block stream: a first pull of the blocks
        (at least one) it gives, within its allowance, in the passes that
        would credit `short` bits if every block passed, stopping after a
        pass that would credit nothing, then one block per pull."""
        now = self._clock()
        allowed = [s.refill(now) // (self._block_bytes * s.unit)
                   for s in sources]
        taken, before = [0] * len(sources), None
        while short > 0 and short != before:
            before = short
            for i, source in enumerate(sources):
                if taken[i] < allowed[i]:
                    taken[i] += 1
                    short -= source.credit
                    if short <= 0:
                        break
        return [(s, self._blocks(s, max(n, 1)))
                for s, n in zip(sources, taken)]

    def _blocks(self, source: _Source, count: int) -> Iterator[bytes]:
        """source's blocks in stream order, `count` from the first pull
        and one from each later pull. A block that fails its health
        test, and a pull that yields nothing, give b"". Each verdict
        counts when its block is taken, a failing pull's when it is made;
        once the source degrades it gives b"" for good."""
        bb = self._block_bytes
        while source.health is HealthState.HEALTHY:
            chunk = self._pull(source, count)
            count = 1
            if not chunk:
                yield b""
                continue
            failed = failing_blocks(chunk, bb,
                                    monobit_sigmas=self._monobit_sigmas,
                                    max_repeat=self._max_repeat)
            for j in range(len(chunk) // bb):
                if j not in failed:
                    source.consecutive_failures = 0
                    yield chunk[j * bb:(j + 1) * bb]
                    continue
                if self._fail(source):
                    break
                yield b""
        yield from repeat(b"")

    def _pull(self, source: _Source, blocks: int) -> bytes:
        """`blocks` blocks from one generator call, debited at once, if
        the allowance covers them all. Returns b"" otherwise. A generator
        that raises an Exception or returns the wrong length gives b"" too;
        that pull debits nothing and counts as one failing block."""
        size = blocks * self._block_bytes
        if source.refill(self._clock()) < size * source.unit:
            return b""
        try:
            chunk = source.generator(size)
            whole = len(chunk) == size
        except Exception:
            whole = False
        if not whole:
            self._fail(source)
            return b""
        source.allowance -= size * source.unit
        return chunk

    def _fail(self, source: _Source) -> bool:
        """Count one failing block against source; True once it has
        degraded."""
        source.consecutive_failures += 1
        if source.consecutive_failures >= self._degrade_after:
            source.health = HealthState.DEGRADED
        return source.health is HealthState.DEGRADED

    def _append(self, data: bytes, *credits: int) -> None:
        """Add len(credits) records of equal length, together data, to
        the buffer; record k carries credits[k] bits."""
        size = len(data) // len(credits)
        start = len(self._buffered)
        self._buffered += data
        self._ends.extend(range(start + size, len(self._buffered) + 1, size))
        self._cum.extend(islice(
            accumulate(credits, initial=self._credited_bits), 1, None))
        self._credited_bits = self._cum[-1]

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
            rest = self._credited_bits - needed
            keep = max(32, -(-rest // 8))
            # Output block i ends where the credit reaches 256*(i+1), the
            # last at the split; the ratchet blocks follow on from there.
            cuts = self._cuts(chain(range(BLOCK_BITS, needed, BLOCK_BITS),
                                    range(needed, needed + 8 * keep,
                                          BLOCK_BITS)))
            n_out = -(-n_bytes // 32)
            out = self._condition(OUT_TAG, mix, n_bytes,
                                  [0, *cuts[:n_out]])
            state = self._condition(RATCHET_TAG, mix, keep,
                                    [*cuts[n_out - 1:], len(self._buffered)])
            self._buffered = bytearray(state)
            self._ends, self._cum = [keep], [rest]
            self._credited_bits = rest
            self.total_extracted_bytes += n_bytes
            return out

    def _cuts(self, targets: Iterable[int]) -> list[int]:
        """For each of the ascending credit targets, in one sweep over the
        records: the largest buffer offset whose cumulative credit, each
        record's credit spread evenly over its bytes and rounded down, is
        <= the target."""
        ends, cum = self._ends, self._cum
        size, count = len(self._buffered), len(cum)
        cuts, k = [], 0
        for bits in targets:
            while k < count and cum[k] <= bits:
                k += 1
            if k == count:
                cuts.append(size)
                continue
            start, before = (ends[k - 1], cum[k - 1]) if k else (0, 0)
            # cum[k] > bits >= before, so the record carries credit.
            cuts.append(start + ((bits - before + 1) * (ends[k] - start) - 1)
                        // (cum[k] - before))
        return cuts

    def _condition(self, tag: bytes, mix: bytes, n_bytes: int,
                   bounds: list[int]) -> bytes:
        """n_bytes of SHA-256(tag || be32(j) || mix || slice_j), where
        slice j is the buffer between bounds[j] and bounds[j + 1]."""
        buf = self._buffered
        return b"".join(
            hashlib.sha256(tag + j.to_bytes(4, "big") + mix
                           + buf[bounds[j]:bounds[j + 1]]).digest()
            for j in range(len(bounds) - 1))[:n_bytes]

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
