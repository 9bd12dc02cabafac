"""Entropy source kinds and their pull-based generators.

A generator is a callable taking a byte count and returning exactly that
many bytes. Four kinds are supported in server configuration:

    os-random         OS CSPRNG (os.urandom)
    simulated-sensor  deterministic PRNG stream from a seed (simulation)
    file-replay       cycles through a file's bytes
    constant          a single repeated byte value (test source)
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .pool import EntropyPool, Generator, SourceDescriptor

SOURCE_KINDS = ("os-random", "simulated-sensor", "file-replay", "constant")
SOURCE_PARAMS = ("seed", "value", "path")


@dataclass(frozen=True)
class SourceSpec:
    """Config-level description of one source."""

    source_id: str
    kind: str
    density: Fraction
    max_rate: Fraction
    params: dict[str, str] = field(default_factory=dict)


def read_param(spec: SourceSpec, name: str) -> int | bytes:
    """Generator parameter name of spec, as make_generator reads it: seed
    an integer (default 0), value an integer in any base int() reads, 0 to
    255 (default 0), and path the bytes of a non-empty regular file.
    Anything else is a ConfigError naming the source."""
    text = spec.params.get(name, None if name == "path" else "0")
    if text is None:
        raise ConfigError(f"source {spec.source_id}: {spec.kind} needs a path")
    try:
        if name == "seed":
            return int(text)
        if name == "value":
            value = int(text, 0)
            if not 0 <= value <= 255:
                raise ValueError(f"{value} is not a byte")
            return value
        path = Path(text)
        if not path.is_file():
            raise ValueError(f"{text!r} is not a regular file")
        data = path.read_bytes()
        if not data:
            raise ValueError(f"{text!r} is empty")
        return data
    except (ValueError, OSError) as exc:
        raise ConfigError(f"source {spec.source_id} {name}: {exc}") from exc


def make_generator(spec: SourceSpec) -> Generator:
    if spec.kind == "os-random":
        return os.urandom
    if spec.kind == "simulated-sensor":
        return random.Random(read_param(spec, "seed")).randbytes
    if spec.kind == "constant":
        pattern = bytes([read_param(spec, "value")])
        return lambda n: pattern * n
    if spec.kind == "file-replay":
        data = read_param(spec, "path")
        offset = 0

        def replay(n: int) -> bytes:
            nonlocal offset
            out = bytearray()
            while len(out) < n:
                take = min(n - len(out), len(data) - offset)
                out += data[offset:offset + take]
                offset = (offset + take) % len(data)
            return bytes(out)

        return replay
    raise ConfigError(f"source {spec.source_id}: unknown kind {spec.kind!r}")


def register_sources(pool: EntropyPool, specs: list[SourceSpec]) -> None:
    for spec in specs:
        pool.register_source(
            SourceDescriptor(source_id=spec.source_id,
                             declared_density=spec.density,
                             max_rate=spec.max_rate),
            make_generator(spec))
