"""Entropy pool: pluggable sources, min-entropy accounting, hash-based
conditioning, and per-source health monitoring.

Accounting is conservative. Each health-tested block of raw source bytes
is appended to the pool buffer as one record credited
floor(bits * declared_density) bits of min-entropy, so credited_bits <=
8 * len(buffer) always holds and the pool compresses entropy, never
stretches it.

Harvesting visits the healthy sources round-robin, one block per source
per pass while its rate allowance lasts, and runs in rounds. A round
plans the steps that would reach the requested credit if every block
passed, pulls each source's planned blocks with one generator call and
one allowance debit, and tests each chunk in one pass that gives every
block its own verdict (``failing_blocks``; ``health_test`` is its
one-block case). It then credits the passing blocks in step order, and
the next round goes on from where the plan stopped. So the buffer holds
the same records in the same order as pulling, testing and crediting
one block at a time: a failing block changes nothing but its own
record. Only blocks that a round pulled for a source after it degraded,
or for passes after one that raised, go unused.

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
from typing import Callable, Iterable

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


def _plan(first: list[int], allowed: list[int], credit: list[int],
          short: int, gained: int
          ) -> tuple[list[int | None], list[int], list[int]]:
    """Round-robin steps over source indices: the pass in progress
    visits `first` and has credited `gained` bits so far; later passes
    visit every source. Source i takes a block while allowed[i] lasts,
    worth credit[i] bits. The plan stops at the step where the credit
    would reach `short` if every block passed, or after a pass that
    would credit nothing, since that pass raises.

    Returns the steps (None ends a pass), the sources the last pass has
    yet to visit, and the number of blocks planned for each source.
    """
    taken = [0] * len(allowed)
    steps: list[int | None] = []
    order, everyone = first, list(range(len(allowed)))
    while True:
        for k, i in enumerate(order):
            if taken[i] < allowed[i]:
                taken[i] += 1
                steps.append(i)
                short -= credit[i]
                gained += credit[i]
                if short <= 0:
                    return steps, order[k + 1:], taken
        steps.append(None)
        if not gained:
            return steps, [], taken
        order, gained = everyone, 0


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
        simulated time terminate deterministically. The deadline is
        checked before each round; the request and the sources'
        allowances bound the work within one.
        """
        with self._lock:
            start = self._clock()
            rest: list[_Source] = []    # sources left in the current pass
            pass_credit = 0             # credit the current pass has added
            while self._credited_bits < needed_bits:
                if not rest:
                    rest, pass_credit = self._healthy(), 0
                if self._clock() - start > deadline_ms:
                    raise EntropyDepleted(
                        f"deadline after {deadline_ms} ms with "
                        f"{self._credited_bits}/{needed_bits} bits")
                rest, pass_credit = self._round(rest, pass_credit,
                                                needed_bits)

    def _healthy(self) -> list[_Source]:
        healthy = [s for s in self._sources.values()
                   if s.health is HealthState.HEALTHY]
        if not healthy:
            raise NoSources("no healthy entropy source registered")
        return healthy

    def _round(self, rest: list[_Source], pass_credit: int,
               needed_bits: int) -> tuple[list[_Source], int]:
        """Plan the round-robin steps, from the rest of the current pass
        on, that would reach needed_bits if every block passed; pull each
        source's planned blocks in one call and test them in one pass;
        credit the passing blocks in step order. Returns the sources the
        pass the plan stopped in has yet to visit, and its credit."""
        bb = self._block_bytes
        sources = self._healthy()
        now = self._clock()
        allowed, credit = [], []
        for source in sources:
            source.refill(now)
            allowed.append(source.allowance // (bb * source.unit))
            credit.append(bb * 8 * source.density.numerator
                          // source.density.denominator)
        first = [i for i, source in enumerate(sources) if source in rest]
        steps, tail, taken = _plan(first, allowed, credit,
                                   needed_bits - self._credited_bits,
                                   pass_credit)
        chunks = [self._pull(s, n) if n else b""
                  for s, n in zip(sources, taken)]
        failed = [failing_blocks(chunk, bb,
                                 monobit_sigmas=self._monobit_sigmas,
                                 max_repeat=self._max_repeat)
                  if chunk else set() for chunk in chunks]
        # A chunk of the wrong length credits nothing; blocks a source
        # yields after it degrades are dropped.
        live = [bool(chunk) for chunk in chunks]
        streak = [s.consecutive_failures for s in sources]
        used = [0] * len(sources)
        pieces, gains = [], []
        exhausted = False
        for i in steps:
            if i is None:
                if not pass_credit:
                    exhausted = True
                    break
                pass_credit = 0
                continue
            j = used[i]
            used[i] = j + 1
            if not live[i] or j in failed[i]:
                if live[i]:
                    streak[i] += 1
                    if streak[i] >= self._degrade_after:
                        sources[i].health = HealthState.DEGRADED
                        live[i] = False
                continue
            streak[i] = 0
            pieces.append(chunks[i][j * bb:(j + 1) * bb])
            gains.append(credit[i])
            pass_credit += credit[i]
        for source, failures in zip(sources, streak):
            source.consecutive_failures = failures
        if gains:
            self._append(b"".join(pieces), *gains)
            self.total_credited_bits += sum(gains)
        rest = [sources[i] for i in tail
                if sources[i].health is HealthState.HEALTHY]
        if exhausted or (not rest and not pass_credit
                         and self._credited_bits < needed_bits):
            raise EntropyDepleted(
                f"sources exhausted with "
                f"{self._credited_bits}/{needed_bits} bits")
        return rest, pass_credit

    def _pull(self, source: _Source, blocks: int) -> bytes:
        """`blocks` blocks from one generator call, debited at once, if
        the allowance covers them all. Returns b"" otherwise, or when the
        generator returns the wrong length (nothing is debited then)."""
        source.refill(self._clock())
        size = blocks * self._block_bytes
        if source.allowance < size * source.unit:
            return b""
        chunk = source.generator(size)
        if len(chunk) != size:
            return b""
        source.allowance -= size * source.unit
        return chunk

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
