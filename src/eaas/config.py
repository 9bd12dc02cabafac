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
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .errors import ConfigError
from .sources import SOURCE_KINDS, SourceSpec

DEFAULT_PLATFORM_MEASUREMENT = hashlib.sha256(
    b"eaas-reference-platform-v1").digest()

_SOURCE_FIELDS = ("kind", "density", "max_rate", "seed", "value", "path")


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
        if self.max_delta_s <= 0:
            raise ConfigError("max_delta_s must be positive")
        if self.throttle_capacity <= 0:
            raise ConfigError("throttle_capacity must be positive")
        if self.throttle_refill_rate <= 0:
            raise ConfigError("throttle_refill_rate must be positive")
        if self.harvest_deadline_ms <= 0:
            raise ConfigError("harvest_deadline_ms must be positive")
        if not 0 < self.listen_port < 65536:
            raise ConfigError("listen port out of range")
        if self.clock_mode not in ("system", "injected"):
            raise ConfigError("clock must be 'system' or 'injected'")
        for spec in self.sources:
            if spec.kind not in SOURCE_KINDS:
                raise ConfigError(f"unknown source kind {spec.kind!r}")
            if not 0 < spec.density <= 1:
                raise ConfigError(
                    f"source {spec.source_id}: density must be in (0, 1]")
            if spec.max_rate <= 0:
                raise ConfigError(
                    f"source {spec.source_id}: max_rate must be positive")


def _parse_fraction(value: str, key: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: {value!r} is not a number") from exc


def _parse_int(value: str, key: str, base: int = 10) -> int:
    try:
        return int(value, base)
    except ValueError as exc:
        raise ConfigError(f"{key}: {value!r} is not an integer") from exc


def _parse_listen(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep:
        raise ConfigError(f"listen must be host:port, got {value!r}")
    return host, _parse_int(port, "listen port")


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
    raw_sources: dict[str, dict[str, tuple[int, str]]] = {}
    for lineno, key, value in read_key_values(text):
        if key.startswith("source."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _SOURCE_FIELDS:
                raise ConfigError(f"line {lineno}: bad source key {key!r}")
            raw_sources.setdefault(parts[1], {})[parts[2]] = (lineno, value)
        elif key == "listen":
            cfg.listen_host, cfg.listen_port = _parse_listen(value)
        elif key == "max_delta_s":
            cfg.max_delta_s = _parse_int(value, key)
        elif key == "throttle_capacity":
            cfg.throttle_capacity = _parse_fraction(value, key)
        elif key == "throttle_refill_rate":
            cfg.throttle_refill_rate = _parse_fraction(value, key)
        elif key == "key_file":
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            cfg.key_file = path
        elif key == "clock":
            cfg.clock_mode = value
        elif key == "harvest_deadline_ms":
            cfg.harvest_deadline_ms = _parse_int(value, key)
        elif key == "sm_measurement":
            try:
                cfg.sm_measurement = bytes.fromhex(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad hex digest") from exc
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    for source_id, fields in raw_sources.items():
        cfg.sources.append(_parse_source(source_id, fields, base_dir))

    cfg.validate()
    return cfg


def _parse_source(source_id: str, fields: dict[str, tuple[int, str]],
                  base_dir: Path | None) -> SourceSpec:
    """One source's SourceSpec from its (lineno, value) fields. Generator
    parameters are checked here, so that a bad one names its line rather
    than failing later in make_generator."""
    if "kind" not in fields:
        raise ConfigError(f"source {source_id}: missing kind")
    params = {}
    for name in ("seed", "value", "path"):
        if name not in fields:
            continue
        lineno, value = fields[name]
        where = f"line {lineno}: source {source_id} {name}"
        if name == "seed":
            _parse_int(value, where)
        elif name == "value":
            byte = _parse_int(value, where, 0)      # as make_generator reads it
            if not 0 <= byte <= 255:
                raise ConfigError(f"{where}: {byte} is not a byte")
        else:
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not (path.is_file() and os.access(path, os.R_OK)):
                raise ConfigError(f"{where}: {str(path)!r} is not a "
                                  "readable file")
            value = str(path)
        params[name] = value
    values = {name: value for name, (_, value) in fields.items()}
    return SourceSpec(
        source_id=source_id, kind=values["kind"],
        density=_parse_fraction(values.get("density", "1"),
                                f"source {source_id} density"),
        max_rate=_parse_fraction(values.get("max_rate", "1048576"),
                                 f"source {source_id} max_rate"),
        params=params)


def load_config(path: Path | str) -> ServerConfig:
    path = Path(path)
    cfg = parse_config(path.read_text(), base_dir=path.parent)
    return apply_env_overrides(cfg)


def apply_env_overrides(cfg: ServerConfig,
                        environ: dict[str, str] | None = None) -> ServerConfig:
    env = os.environ if environ is None else environ
    if "EAAS_LISTEN" in env:
        cfg.listen_host, cfg.listen_port = _parse_listen(env["EAAS_LISTEN"])
    if "EAAS_MAX_DELTA_S" in env:
        cfg.max_delta_s = _parse_int(env["EAAS_MAX_DELTA_S"],
                                     "EAAS_MAX_DELTA_S")
    cfg.validate()
    return cfg
