"""Deterministic fleet simulation and adversarial channel.

run_scenario(spec, seed) runs a ScenarioSpec, written in code or read by
parse_scenario: a ``fleet`` of honest clients, the same schedule through
the channel actions of an ``adversary`` spec, or a ``depletion`` flood
beside honest clients. Client identities talk to an in-process server
(no sockets) built by server.build_stack, on a manually advanced clock,
so freshness and throttling outcomes are exact and a (scenario, seed)
pair always yields a byte-identical report. An adversary interposes on
whole encoded messages; request-field tampering rewrites one field of
the cleartext request and re-encodes it, with the hint following the
key it carries.

Reports are line-oriented text followed by a machine-readable JSON
summary block. Key material never appears in a report, which is what
keeps reports reproducible across runs.
"""

from __future__ import annotations

import argparse
import enum
import json
import logging
import random
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from . import client as client_mod
from . import crypto, wire
from .config import ServerConfig, read_fraction, read_key_values, reading
from .errors import (
    BadServerSignature,
    ConfigError,
    MalformedMessage,
    OpenFailure,
    Stale,
    UnwrapFailure,
    WrongQuantity,
)
from .pool import SourceDescriptor
from .server import build_stack
from .sources import SourceSpec
from .stats import MIN_INPUT_BYTES, stats_suite

__all__ = [
    "AdversaryAction",
    "AdversaryKind",
    "ScenarioReport",
    "ScenarioSpec",
    "SimClock",
    "check_scenario",
    "parse_scenario",
    "run_scenario",
]

SIM_EPOCH_MS = 1_750_000_000_000


class SimClock:
    """Manually advanced millisecond clock."""

    def __init__(self, start_ms: int = SIM_EPOCH_MS):
        self._now = start_ms

    def now(self) -> int:
        return self._now

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("simulated time cannot move backwards")
        self._now += ms

    def set(self, ms: int) -> None:
        if ms < self._now:
            raise ValueError("simulated time cannot move backwards")
        self._now = ms


class AdversaryKind(str, enum.Enum):
    DROP = "drop"
    DELAY = "delay"
    REPLAY_RESPONSE = "replay-response"
    TAMPER_PK = "tamper-pk"
    TAMPER_DELTA_S = "tamper-delta-s"
    TAMPER_SIGMA1 = "tamper-sigma1"
    TAMPER_HINT = "tamper-hint"
    TAMPER_CIPHERTEXT = "tamper-ciphertext"        # response envelope
    TAMPER_WRAPPED_KEY = "tamper-wrapped-key"
    TAMPER_NONCE = "tamper-nonce"
    TAMPER_SIG2 = "tamper-sig2"


@dataclass(frozen=True)
class AdversaryAction:
    """One channel manipulation aimed at a message index."""

    kind: AdversaryKind
    target: int
    parameter: int | None = None   # delay ms; 1000 when None

    def __post_init__(self):
        if self.parameter is not None and (
                self.kind is not AdversaryKind.DELAY or self.parameter < 0):
            raise ValueError("only delay takes a parameter, and it must "
                             "not be negative")


@dataclass
class ScenarioSpec:
    kind: str = "fleet"
    n_clients: int = 1
    requests_per_client: int = 1
    delta_s: int = 32
    max_delta_s: int = wire.DEFAULT_MAX_DELTA_S
    throttle_capacity: Fraction = Fraction(5)
    throttle_refill_rate: Fraction = Fraction(1)
    step_ms: int = 0
    n_sources: int = 2
    source_density: Fraction = Fraction(1)
    source_max_rate: Fraction = Fraction(1 << 20)
    harvest_deadline_ms: int = 2000
    collect_entropy: bool = False
    actions: list[AdversaryAction] = field(default_factory=list)
    # depletion-only knobs
    flood_rate: int = 1000
    duration_s: int = 10
    honest_clients: int = 3
    throttle_enabled: bool = True


@dataclass(frozen=True)
class RequestOutcome:
    client: int
    request_index: int
    outcome: str


@dataclass
class ScenarioReport:
    kind: str
    seed: int
    outcomes: list[RequestOutcome]
    counters: dict[str, int]
    pool_credited_bits: int
    pool_extracted_bits: int
    pool_credit_floor_bits: int
    source_health: dict[str, str]
    stats: dict[str, dict] | None = None

    def outcome_counts(self) -> dict[str, int]:
        return dict(sorted(Counter(o.outcome for o in self.outcomes).items()))

    def to_text(self) -> str:
        lines = ["# eaas-sim report v1",
                 f"scenario kind={self.kind} seed={self.seed}"]
        for o in self.outcomes:
            lines.append(f"outcome client={o.client} "
                         f"request={o.request_index} result={o.outcome}")
        counters = " ".join(f"{k}={v}" for k, v in sorted(
            self.counters.items()))
        lines.append(f"counters {counters}")
        lines.append(f"pool credited_bits={self.pool_credited_bits} "
                     f"extracted_bits={self.pool_extracted_bits} "
                     f"credit_floor_bits={self.pool_credit_floor_bits}")
        for sid, health in sorted(self.source_health.items()):
            lines.append(f"source id={sid} health={health}")
        if self.stats is not None:
            for name, result in sorted(self.stats.items()):
                lines.append(f"stat {name} statistic="
                             f"{result['statistic']:.6f} "
                             f"pass={str(result['passed']).lower()}")
        summary = {
            "kind": self.kind,
            "seed": self.seed,
            "outcome_counts": self.outcome_counts(),
            "counters": self.counters,
            "pool": {
                "credited_bits": self.pool_credited_bits,
                "extracted_bits": self.pool_extracted_bits,
                "credit_floor_bits": self.pool_credit_floor_bits,
            },
            "source_health": self.source_health,
            "stats": self.stats,
        }
        lines.append("--- summary ---")
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"


_CLIENT_ERRORS = {
    BadServerSignature: "bad-server-signature",
    UnwrapFailure: "unwrap-failure",
    OpenFailure: "open-failure",
    WrongQuantity: "wrong-quantity",
    Stale: "stale",
    MalformedMessage: "malformed-response",
}


_KINDS = ("fleet", "adversary", "depletion")
_COUNTS = ("n_clients", "requests_per_client", "delta_s", "max_delta_s",
           "step_ms", "n_sources", "harvest_deadline_ms", "flood_rate",
           "duration_s", "honest_clients")
# The most client identities a run makes (one RSA-3072 keygen each), the
# most sources it registers, and the most requests it schedules up front
# for each of its request products.
_MAX_IDENTITIES = 256
_MAX_SOURCES = 1024
_MAX_REQUESTS = 100_000


class _PairError(ConfigError):
    """A rule broken between two values, which a scenario file may set in
    either order."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


def check_scenario(spec: ScenarioSpec) -> None:
    """Refuse a spec run_scenario cannot run, as a ConfigError, before
    anything is built. run_scenario calls it on every spec, and
    parse_scenario on the spec a file describes."""
    _check_values(spec)
    if not 1 <= spec.delta_s <= spec.max_delta_s:
        raise _PairError(f"delta_s {spec.delta_s} outside "
                         f"[1, {spec.max_delta_s}]", "delta_s", "max_delta_s")
    for a, b in (("n_clients", "requests_per_client"),
                 ("flood_rate", "duration_s")):
        if getattr(spec, a) * getattr(spec, b) > _MAX_REQUESTS:
            raise _PairError(f"{a} * {b} above {_MAX_REQUESTS}", a, b)


def _check_values(spec: ScenarioSpec) -> None:
    """check_scenario but for its rules between two values, which
    parse_scenario checks once the whole file is read; it runs this
    after each line."""
    if spec.kind not in _KINDS:
        raise ConfigError(f"unknown scenario kind {spec.kind!r}")
    if spec.actions and spec.kind != "adversary":
        raise ConfigError("action.* only applies to kind = adversary")
    for name in _COUNTS:
        if getattr(spec, name) < 0:
            raise ConfigError(f"{name} must not be negative")
    for name, most in (("n_clients", _MAX_IDENTITIES),
                       ("honest_clients", _MAX_IDENTITIES),
                       ("n_sources", _MAX_SOURCES)):
        if getattr(spec, name) > most:
            raise ConfigError(f"{name} above {most}")
    try:        # every source is built from these two
        SourceDescriptor("scenario", spec.source_density,
                         spec.source_max_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _server_config(spec)


def _server_config(spec: ScenarioSpec) -> ServerConfig:
    """The server config a scenario runs under, checked as a file's is."""
    config = ServerConfig(
        max_delta_s=spec.max_delta_s,
        throttle_capacity=(spec.throttle_capacity if spec.throttle_enabled
                           else Fraction(10 ** 12)),
        throttle_refill_rate=spec.throttle_refill_rate,
        harvest_deadline_ms=spec.harvest_deadline_ms, clock_mode="injected")
    config.validate()
    return config


class _Simulation:
    """In-process server plus provisioned identities on a shared clock.
    A depletion run has one attacker identity before its honest ones."""

    def __init__(self, spec: ScenarioSpec, seed: int,
                 keypairs: list[crypto.KeyPair] | None = None):
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = SimClock()
        config = _server_config(spec)
        config.sources = [
            SourceSpec(f"sensor{i}", "simulated-sensor", spec.source_density,
                       spec.source_max_rate, {"seed": str(seed * 1009 + i)})
            for i in range(spec.n_sources)]
        self.pool, _, self.service = build_stack(
            config, self.clock.now, rng=self.rng.randbytes)
        self.server_public = crypto.load_public_key(
            self.service.pubkey_der())

        n = (spec.honest_clients + 1 if spec.kind == "depletion"
             else spec.n_clients)
        if keypairs is None:
            keypairs = [crypto.generate_keypair() for _ in range(n)]
        self.identities = [
            client_mod.ClientIdentity(keypair=kp,
                                      server_public=self.server_public,
                                      store_path=Path("<sim>"))
            for kp in keypairs[:n]
        ]
        self.credit_floor: int | None = None
        # Only a fleet run reports statistics on what it delivered.
        self.collect = spec.kind == "fleet" and spec.collect_entropy
        self.delivered = bytearray()
        # Channel adversary: actions by target request index, and the
        # replies kept for a replay into the request after their own.
        self.actions: dict[int, list[AdversaryAction]] = {}
        for action in spec.actions:
            self.actions.setdefault(action.target, []).append(action)
        self.replay_cache: dict[int, bytes] = {}

    def note_credit(self) -> None:
        credit = self.pool.credited_bits
        if self.credit_floor is None or credit < self.credit_floor:
            self.credit_floor = credit

    def round_trip(self, identity: client_mod.ClientIdentity,
                   index: int) -> str:
        """Build request index, apply the adversary actions aimed at it,
        serve and verify it; returns the outcome. With no actions this is
        an honest round trip."""
        spec = self.spec
        todays = self.actions.get(index, [])
        kinds = [a.kind for a in todays]
        body, t1 = client_mod.build_request(
            identity, spec.delta_s, clock=self.clock.now,
            max_delta_s=spec.max_delta_s)

        request_tamper = next(
            (k for k in kinds if k in _REQUEST_TAMPERS), None)
        if request_tamper is not None:
            body = _tampered_request_body(
                identity, spec.delta_s, spec.max_delta_s, request_tamper,
                self.rng)
        if AdversaryKind.TAMPER_HINT in kinds:
            body = _flip_byte(
                body, self.rng.randrange(wire.FINGERPRINT_LEN), self.rng)

        self.clock.advance(1)
        if AdversaryKind.DROP in kinds:
            return "transport-failure"
        if any(a.kind is AdversaryKind.REPLAY_RESPONSE
               for a in self.actions.get(index - 1, [])):
            # Adversary answers with the previous request's response
            # instead of forwarding to the server; if that request never
            # produced one, the client sees nothing.
            reply = self.replay_cache.get(index - 1)
            if reply is None:
                return "transport-failure"
            return self.verify(identity, reply, t1)

        status, reply, _ = self.service.handle_entropy(body)
        self.note_credit()
        if status != 200:
            return reply.decode("ascii", "replace")
        if AdversaryKind.REPLAY_RESPONSE in kinds:
            self.replay_cache[index] = reply
        for kind in kinds:
            if kind in _RESPONSE_TAMPERS:
                reply = _tamper_envelope_field(reply, kind, self.rng)
        for action in todays:
            if action.kind is AdversaryKind.DELAY:
                self.clock.advance(1000 if action.parameter is None
                                   else action.parameter)
        return self.verify(identity, reply, t1)

    def verify(self, identity: client_mod.ClientIdentity, reply: bytes,
               t1: int) -> str:
        try:
            entropy = client_mod.verify_response(
                reply, t1=t1, delta_s=self.spec.delta_s,
                server_public=self.server_public,
                secret_key=identity.keypair.secret,
                now=self.clock.now())
        except tuple(_CLIENT_ERRORS) as exc:
            return _CLIENT_ERRORS[type(exc)]
        if self.collect:
            self.delivered += entropy
        return "success"

    def report(self, outcomes: list[RequestOutcome]) -> ScenarioReport:
        stats = None
        if self.collect and len(self.delivered) >= MIN_INPUT_BYTES:
            stats = {name: {"statistic": r.statistic, "passed": r.passed}
                     for name, r in stats_suite(bytes(self.delivered)).items()}
        return ScenarioReport(
            kind=self.spec.kind,
            seed=self.seed,
            outcomes=outcomes,
            counters=dict(self.service.counters),
            pool_credited_bits=self.pool.total_credited_bits,
            pool_extracted_bits=8 * self.pool.total_extracted_bytes,
            pool_credit_floor_bits=self.credit_floor or 0,
            source_health={sid: h.value for sid, h in
                           self.pool.status().per_source_health.items()},
            stats=stats)


def _run_schedule(spec: ScenarioSpec, seed: int,
                  keypairs: list[crypto.KeyPair] | None) -> ScenarioReport:
    """The fleet schedule: every client issues its requests in
    round-robin order, through the channel adversary of spec.actions
    (none for an honest fleet); failures are data, not exceptions."""
    sim = _Simulation(spec, seed, keypairs=keypairs)
    outcomes = []
    index = 0
    for _ in range(spec.requests_per_client):
        for ci, identity in enumerate(sim.identities):
            outcome = sim.round_trip(identity, index)
            outcomes.append(RequestOutcome(ci, index, outcome))
            index += 1
            sim.clock.advance(spec.step_ms)
    return sim.report(outcomes)


# --- adversary -------------------------------------------------------------


def _flip_byte(data: bytes, pos: int, rng: random.Random) -> bytes:
    out = bytearray(data)
    out[pos] ^= rng.randrange(1, 256)
    return bytes(out)


def _tampered_request_body(identity: client_mod.ClientIdentity,
                           delta_s: int, max_delta_s: int,
                           kind: AdversaryKind, rng: random.Random) -> bytes:
    """Request tamper: mutate one signed field of the identity's request
    and re-encode it. The hint follows the (possibly mutated) key, so the
    signature binding is what must fail."""
    request = client_mod.signed_request(identity, delta_s)
    pub_der, sigma1 = request.client_pub_key, request.sigma1
    if kind is AdversaryKind.TAMPER_PK:
        # Flip deep inside the modulus so the key still parses.
        pos = rng.randrange(len(pub_der) - 120, len(pub_der) - 10)
        pub_der = _flip_byte(pub_der, pos, rng)
    elif kind is AdversaryKind.TAMPER_DELTA_S:
        delta_s = delta_s + 1 if delta_s < max_delta_s else delta_s - 1
    elif kind is AdversaryKind.TAMPER_SIGMA1:
        sigma1 = _flip_byte(sigma1, rng.randrange(len(sigma1)), rng)
    else:
        raise ValueError(f"not a request tamper kind: {kind}")
    return wire.fingerprint(pub_der) + wire.encode_request(
        wire.EntropyRequest(pub_der, delta_s, sigma1), max_delta_s)


def _tamper_envelope_field(encoded: bytes, kind: AdversaryKind,
                           rng: random.Random) -> bytes:
    env = wire.decode_envelope(encoded)
    if kind is AdversaryKind.TAMPER_WRAPPED_KEY:
        env = replace(env, wrapped_key=_flip_byte(
            env.wrapped_key, rng.randrange(len(env.wrapped_key)), rng))
    elif kind is AdversaryKind.TAMPER_NONCE:
        env = replace(env, nonce=_flip_byte(
            env.nonce, rng.randrange(len(env.nonce)), rng))
    elif kind is AdversaryKind.TAMPER_CIPHERTEXT:
        env = replace(env, ciphertext=_flip_byte(
            env.ciphertext, rng.randrange(len(env.ciphertext)), rng))
    elif kind is AdversaryKind.TAMPER_SIG2:
        if env.sigma2 is None:
            raise ValueError("envelope has no sigma2 to tamper")
        env = replace(env, sigma2=_flip_byte(
            env.sigma2, rng.randrange(len(env.sigma2)), rng))
    else:
        raise ValueError(f"not an envelope tamper kind: {kind}")
    return wire.encode_envelope(env)


_REQUEST_TAMPERS = (AdversaryKind.TAMPER_PK, AdversaryKind.TAMPER_DELTA_S,
                    AdversaryKind.TAMPER_SIGMA1)
_RESPONSE_TAMPERS = (AdversaryKind.TAMPER_WRAPPED_KEY,
                     AdversaryKind.TAMPER_NONCE,
                     AdversaryKind.TAMPER_CIPHERTEXT,
                     AdversaryKind.TAMPER_SIG2)


# --- depletion --------------------------------------------------------------


def _run_depletion(spec: ScenarioSpec, seed: int,
                   keypairs: list[crypto.KeyPair] | None) -> ScenarioReport:
    """One attacker fingerprint floods valid requests while honest
    clients make one request each, spread across the run."""
    sim = _Simulation(spec, seed, keypairs=keypairs)
    attacker, honest = sim.identities[0], sim.identities[1:]

    # The attacker replays one prebuilt valid request; nothing in the
    # protocol stops request replay, and it keeps the flood cheap.
    attack_body, _ = client_mod.build_request(
        attacker, spec.delta_s, clock=sim.clock.now,
        max_delta_s=spec.max_delta_s)

    duration_ms = spec.duration_s * 1000
    events: list[tuple[int, int, str]] = []
    n_attacks = spec.flood_rate * spec.duration_s
    for k in range(n_attacks):
        events.append((k * duration_ms // n_attacks, 0, "attack"))
    for j in range(spec.honest_clients):
        events.append(((j + 1) * duration_ms // (spec.honest_clients + 1),
                       j, "honest"))
    events.sort(key=lambda e: (e[0], e[2] == "honest", e[1]))

    outcomes = []
    base = sim.clock.now()
    for index, (t, who, role) in enumerate(events):
        if base + t > sim.clock.now():
            sim.clock.set(base + t)
        if role == "attack":
            status, reply, _ = sim.service.handle_entropy(attack_body)
            sim.note_credit()
            outcome = ("granted" if status == 200
                       else reply.decode("ascii", "replace"))
            outcomes.append(RequestOutcome(-1, index, f"attacker-{outcome}"))
        else:
            outcome = sim.round_trip(honest[who], index)
            outcomes.append(RequestOutcome(who, index, outcome))
    report = sim.report(outcomes)
    report.counters["attacker_granted"] = report.outcome_counts().get(
        "attacker-granted", 0)
    return report


# --- scenario files and CLI --------------------------------------------------


def parse_scenario(text: str) -> ScenarioSpec:
    """Flat key = value scenario description; see sample files. Lines are
    read and named in errors as in parse_config: each line is checked
    with what was read before it, and a rule between two values (delta_s
    within max_delta_s, a bound on a product) at the end, naming the
    later of their lines."""
    spec = ScenarioSpec()
    orders: list[tuple[int, int]] = []   # (N of action.N, line) per action
    set_at: dict[str, int] = {}          # key -> the last line setting it
    for lineno, key, value in read_key_values(text):
        with reading(f"line {lineno}"):
            if key.startswith("action."):
                order = int(key.split(".", 1)[1])
                kind_name, _, rest = value.partition(":")
                target_str, _, param = rest.partition(":")
                spec.actions.append(AdversaryAction(
                    kind=AdversaryKind(kind_name),
                    target=int(target_str),
                    parameter=int(param) if param else None))
                orders.append((order, lineno))
            elif key == "kind":
                spec.kind = value
            elif key in _COUNTS:
                setattr(spec, key, int(value))
            elif key in ("throttle_capacity", "throttle_refill_rate",
                         "source_density", "source_max_rate"):
                setattr(spec, key, read_fraction(value))
            elif key in ("throttle_enabled", "collect_entropy"):
                if value.lower() not in ("1", "true", "yes", "0", "false",
                                         "no"):
                    raise ConfigError(f"{key} must be true or false")
                setattr(spec, key, value.lower() in ("1", "true", "yes"))
            else:
                raise ConfigError(f"unknown key {key!r}")
            _check_values(spec)
        set_at[key] = lineno
    spec.actions = [a for _, a in sorted(zip(orders, spec.actions))]
    try:
        check_scenario(spec)
    except _PairError as exc:
        line = max(set_at.get(name, 0) for name in exc.names)
        raise ConfigError(f"line {line}: {exc}") from exc
    return spec


def run_scenario(spec: ScenarioSpec, seed: int, *,
                 keypairs: list[crypto.KeyPair] | None = None,
                 ) -> ScenarioReport:
    """Run spec under seed: a depletion flood, or the fleet schedule
    (through spec.actions for kind = adversary). keypairs, if given, are
    the client identities' keys, in order. A spec check_scenario refuses
    raises its ConfigError before anything is built."""
    check_scenario(spec)
    if spec.kind == "depletion":
        return _run_depletion(spec, seed, keypairs)
    return _run_schedule(spec, seed, keypairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="eaas-sim",
                                     description="EaaS fleet simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True, type=Path)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--report", type=Path,
                       help="write the report here (default stdout)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)

    spec = parse_scenario(args.scenario.read_text())
    report = run_scenario(spec, args.seed)
    text = report.to_text()
    if args.report:
        args.report.write_text(text)
        print(f"report written to {args.report}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
