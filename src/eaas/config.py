"""Server configuration: a flat ``key = value`` text format.

Example::

    listen = 127.0.0.1:8639
    max_delta_s = 4096
    throttle_capacity = 5
    throttle_refill_rate = 1
    key_file = tes_key.der
    sm_measurement = <64 hex chars>          # optional
    harvest_deadline_ms = 2000
    clock = system

    source.osrng.kind = os-random
    source.osrng.density = 0.5
    source.osrng.max_rate = 1048576

Lines starting with ``#`` and blank lines are ignored. Environment
variables EAAS_LISTEN and EAAS_MAX_DELTA_S override the file.

Each value is checked as it is read, by the code that uses it
(ServerConfig.validate, SourceDescriptor, sources.read_param). A bad
file is a ConfigError naming the first line after which the text read
so far is invalid, so a range error names the line that set the value.
A source with no kind, or a file-replay source with no path, is only
known at the end of the file; those errors name the source.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from . import wire
from .errors import ConfigError
from .pool import SourceDescriptor
from .sources import (SOURCE_KINDS, SOURCE_PARAMS, SourceSpec, make_generator,
                      read_param)

DEFAULT_PLATFORM_MEASUREMENT = hashlib.sha256(
    b"eaas-reference-platform-v1").digest()

_SOURCE_FIELDS = ("kind", "density", "max_rate") + SOURCE_PARAMS


@dataclass
class ServerConfig:
    listen_host: str = "127.0.0.1"
    listen_port: int = 8639
    max_delta_s: int = 4096
    throttle_capacity: Fraction = Fraction(5)
    throttle_refill_rate: Fraction = Fraction(1)   # tokens per second
    key_file: Path | None = None
    sources: list[SourceSpec] = field(default_factory=list)
    clock_mode: str = "system"
    harvest_deadline_ms: int = 2000
    sm_measurement: bytes = DEFAULT_PLATFORM_MEASUREMENT

    def validate(self) -> None:
        for name in ("max_delta_s", "throttle_capacity",
                     "throttle_refill_rate", "harvest_deadline_ms"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 < self.listen_port < 65536:
            raise ConfigError("listen port out of range")
        if self.clock_mode not in ("system", "injected"):
            raise ConfigError("clock must be 'system' or 'injected'")
        if len(self.sm_measurement) != wire.MEASUREMENT_LEN:
            raise ConfigError("sm_measurement must be 32 bytes")


# Longest text, and largest decimal exponent either way, of a number an
# operator sets. A rational is read exactly, and Fraction expands
# 10**exponent in full: Fraction("1e10000000") alone takes seconds.
_NUMBER_MAX = 100


def read_fraction(text: str) -> Fraction:
    """An operator-set number, read exactly, with its text bounded."""
    exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if len(text) > _NUMBER_MAX or (exponent.isdecimal()
                                   and int(exponent) > _NUMBER_MAX):
        raise ValueError(f"a number is at most {_NUMBER_MAX} characters "
                         f"with an exponent of at most {_NUMBER_MAX}")
    return Fraction(text)


@contextmanager
def reading(where: str) -> Iterator[None]:
    """Raise an error of reading one operator-set value as a ConfigError
    prefixed with where it was set ("line 3", "EAAS_LISTEN")."""
    try:
        yield
    except (ValueError, ZeroDivisionError, OSError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def read_key_values(text: str) -> Iterator[tuple[int, str, str]]:
    """Yield (lineno, key, value) per ``key = value`` line of a config or
    scenario file; ``#`` starts a comment, blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_config(text: str, base_dir: Path | None = None) -> ServerConfig:
    cfg = ServerConfig()
    sources: dict[str, SourceSpec] = {}
    for lineno, key, value in read_key_values(text):
        with reading(f"line {lineno}"):
            if key.startswith("source."):
                _read_source_line(sources, key, value, base_dir)
            else:
                _read_scalar(cfg, key, value, base_dir)
                cfg.validate()
    for spec in sources.values():
        if not spec.kind:
            raise ConfigError(f"source {spec.source_id}: missing kind")
        make_generator(spec)        # a file-replay source needs a path
    cfg.sources = list(sources.values())
    return cfg


def _read_scalar(cfg: ServerConfig, key: str, value: str,
                 base_dir: Path | None) -> None:
    if key == "listen":
        host, sep, port = value.rpartition(":")
        if not sep:
            raise ConfigError(f"listen must be host:port, got {value!r}")
        cfg.listen_host, cfg.listen_port = host, int(port)
    elif key == "max_delta_s":
        cfg.max_delta_s = int(value)
    elif key == "throttle_capacity":
        cfg.throttle_capacity = read_fraction(value)
    elif key == "throttle_refill_rate":
        cfg.throttle_refill_rate = read_fraction(value)
    elif key == "key_file":
        cfg.key_file = (base_dir or Path()) / value
    elif key == "clock":
        cfg.clock_mode = value
    elif key == "harvest_deadline_ms":
        cfg.harvest_deadline_ms = int(value)
    elif key == "sm_measurement":
        cfg.sm_measurement = bytes.fromhex(value)
    else:
        raise ConfigError(f"unknown key {key!r}")


def _read_source_line(sources: dict[str, SourceSpec], key: str, value: str,
                      base_dir: Path | None) -> None:
    """Apply one source.<id>.<field> line to that source, and check it."""
    parts = key.split(".")
    if len(parts) != 3 or parts[2] not in _SOURCE_FIELDS:
        raise ConfigError(f"bad source key {key!r}")
    _, source_id, name = parts
    spec = sources.get(source_id) or SourceSpec(
        source_id, kind="", density=Fraction(1), max_rate=Fraction(1 << 20))
    if name == "kind":
        if value not in SOURCE_KINDS:
            raise ConfigError(f"source {source_id}: unknown kind {value!r}")
        spec = replace(spec, kind=value)
    elif name in SOURCE_PARAMS:
        if name == "path":
            value = str((base_dir or Path()) / value)
        spec = replace(spec, params={**spec.params, name: value})
        read_param(spec, name)
    else:                                   # density or max_rate
        spec = replace(spec, **{name: read_fraction(value)})
        SourceDescriptor(source_id, spec.density, spec.max_rate)
    sources[source_id] = spec


def load_config(path: Path | str) -> ServerConfig:
    path = Path(path)
    cfg = parse_config(path.read_text(), base_dir=path.parent)
    return apply_env_overrides(cfg)


def apply_env_overrides(cfg: ServerConfig,
                        environ: dict[str, str] | None = None) -> ServerConfig:
    env = os.environ if environ is None else environ
    for name, key in (("EAAS_LISTEN", "listen"),
                      ("EAAS_MAX_DELTA_S", "max_delta_s")):
        if name in env:
            with reading(name):
                _read_scalar(cfg, key, env[name], None)
                cfg.validate()
    return cfg
