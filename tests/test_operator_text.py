"""Generated config and scenario text: every outcome is a value or a
ConfigError, and whatever parses builds.

Lines are drawn from the known keys with valid and garbage values, plus
unknown keys and lines with no '='. An accepted server config must
build through server.build_stack and throttle; an accepted scenario
must hold the values its run relies on. No socket is bound and no RSA
key is generated per example."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eaas import harness
from eaas.config import parse_config
from eaas.errors import ConfigError
from eaas.harness import AdversaryKind, SimClock, parse_scenario
from eaas.pool import SourceDescriptor
from eaas.server import ThrottleTable, build_stack

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

GARBAGE = st.text(alphabet="0123456789abcx-+./:_ e", max_size=6)
INTS = st.integers(-3, 70_000).map(str)
FRACTIONS = st.sampled_from(["0", "1", "1/2", "0.75", "2", "-1", "1/0",
                             "1e3", "65536", "1e1000000", "1e-1000000",
                             "7" * 5000])


def lines(keys: dict[str, st.SearchStrategy[str]]) -> st.SearchStrategy[str]:
    """Text of up to 8 lines: known keys with their own values or
    garbage, unknown keys, comments and lines with no '='."""
    known = st.sampled_from(sorted(keys)).flatmap(
        lambda key: st.one_of(keys[key], keys[key], keys[key],
                              GARBAGE).map(lambda value: f"{key} = {value}"))
    other = st.one_of(
        GARBAGE.map(lambda value: f"bogus = {value}"),
        st.just("# a comment"), st.just(""), GARBAGE)
    return st.lists(st.one_of(*[known] * 8, other),
                    max_size=8).map("\n".join)


def source_keys() -> dict[str, st.SearchStrategy[str]]:
    keys = {}
    for sid in ("a", "b"):
        keys[f"source.{sid}.kind"] = st.sampled_from(
            ["os-random", "simulated-sensor", "file-replay", "constant",
             "warp"])
        keys[f"source.{sid}.density"] = FRACTIONS
        keys[f"source.{sid}.max_rate"] = FRACTIONS
        keys[f"source.{sid}.seed"] = INTS
        keys[f"source.{sid}.value"] = st.sampled_from(
            ["0", "255", "256", "0x5a", "-1"])
        keys[f"source.{sid}.path"] = st.sampled_from(
            ["tape.bin", "empty.bin", "missing.bin", "."])
    return keys


CONFIG_KEYS = {
    "listen": st.sampled_from(["127.0.0.1:8639", "h:0", "h:99999",
                               ":80", "nocolon", "h:x"]),
    "max_delta_s": INTS,
    "throttle_capacity": FRACTIONS,
    "throttle_refill_rate": FRACTIONS,
    "harvest_deadline_ms": INTS,
    "key_file": st.just("tes_key.der"),
    "clock": st.sampled_from(["system", "injected", "lunar"]),
    "sm_measurement": st.sampled_from(["ab" * 32, "abcd", "zz", ""]),
    **source_keys(),
}

SCENARIO_KEYS = {
    "kind": st.sampled_from(["fleet", "adversary", "depletion", "chaos"]),
    **{key: INTS for key in (
        "n_clients", "requests_per_client", "delta_s", "max_delta_s",
        "step_ms", "n_sources", "harvest_deadline_ms", "flood_rate",
        "duration_s", "honest_clients")},
    **{key: FRACTIONS for key in (
        "throttle_capacity", "throttle_refill_rate", "source_density",
        "source_max_rate")},
    "throttle_enabled": st.sampled_from(["true", "false", "0", "ture"]),
    "collect_entropy": st.sampled_from(["yes", "no", "1"]),
    "action.0": st.sampled_from(
        [f"{kind.value}:1" for kind in AdversaryKind] + ["drop", "warp:1"]),
}


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("operator-text")
    (base / "tape.bin").write_bytes(b"\x01\x02\x03")
    (base / "empty.bin").write_bytes(b"")
    return base


@SETTINGS
@given(head=st.sampled_from(["", "source.a.kind = simulated-sensor\n"
                                 "source.b.kind = file-replay\n"
                                 "source.b.path = tape.bin\n"]),
       text=lines(CONFIG_KEYS))
def test_config_text_parses_and_builds_or_is_refused(server_keypair,
                                                     base_dir, head, text):
    try:
        cfg = parse_config(head + text, base_dir=base_dir)
    except ConfigError:
        return
    build_stack(cfg, SimClock().now, keypair=server_keypair)
    ThrottleTable(cfg.throttle_capacity,
                  cfg.throttle_refill_rate).check(b"\x00" * 8, 0)


@SETTINGS
@given(text=lines(SCENARIO_KEYS))
def test_scenario_text_parses_or_is_refused(text):
    try:
        spec = parse_scenario(text)
    except ConfigError:
        return
    config = harness._server_config(spec)
    ThrottleTable(config.throttle_capacity,
                  config.throttle_refill_rate).check(b"\x00" * 8, 0)
    SourceDescriptor("s", spec.source_density, spec.source_max_rate)
    assert 1 <= spec.delta_s <= spec.max_delta_s
    assert min(spec.n_clients, spec.requests_per_client, spec.n_sources,
               spec.honest_clients, spec.flood_rate, spec.duration_s,
               spec.step_ms) >= 0
    assert not spec.actions or spec.kind == "adversary"


@pytest.mark.parametrize("number", ["1e1000000", "1e-1000000", "7" * 5000],
                         ids=["1e1000000", "1e-1000000", "5000-digits"])
@pytest.mark.parametrize("parse, key", [
    (parse_config, "throttle_capacity"),
    (parse_config, "source.a.max_rate"),
    (parse_scenario, "source_max_rate"),
])
def test_number_text_is_bounded(parse, key, number):
    """A number is read exactly, so its text is bounded: Fraction would
    expand 1e10000000 for seconds before any range check ran."""
    with pytest.raises(ConfigError, match="^line 2: a number is at most"):
        parse(f"# operator text\n{key} = {number}\n")
