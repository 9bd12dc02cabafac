"""Fleet harness tests: determinism, adversary matrix, depletion, and
scenario files."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eaas import crypto, harness
from eaas.config import parse_config
from eaas.errors import ConfigError
from eaas.harness import (
    AdversaryAction,
    AdversaryKind,
    ScenarioSpec,
    SimClock,
    parse_scenario,
    run_scenario,
)


@pytest.fixture(scope="module")
def fleet_keypairs():
    return [crypto.generate_keypair() for _ in range(4)]


class TestRunFleet:
    def test_generous_throttle_all_succeed(self, fleet_keypairs):
        spec = ScenarioSpec(n_clients=4, requests_per_client=3, delta_s=32,
                            throttle_capacity=Fraction(1000))
        report = run_scenario(spec, seed=5, keypairs=fleet_keypairs)
        assert report.outcome_counts() == {"success": 12}
        assert report.counters["allowed"] == 12

    def test_same_seed_identical_reports(self, fleet_keypairs):
        spec = ScenarioSpec(n_clients=2, requests_per_client=2, delta_s=16,
                            throttle_capacity=Fraction(100))
        texts = [
            run_scenario(spec, seed=9, keypairs=fleet_keypairs[:2]).to_text()
            for _ in range(2)
        ]
        assert texts[0] == texts[1]

    def test_burst_of_twenty_throttles_fifteen(self, fleet_keypairs):
        """One client, 20 requests in (near) zero simulated time, C=5."""
        report = run_scenario(
            ScenarioSpec(n_clients=1, requests_per_client=20, delta_s=32),
            seed=2, keypairs=fleet_keypairs[:1])
        counts = report.outcome_counts()
        assert counts["success"] == 5
        assert counts["throttled"] == 15

    def test_outcome_count_matches_schedule(self, fleet_keypairs):
        report = run_scenario(
            ScenarioSpec(n_clients=3, requests_per_client=4, delta_s=8,
                         throttle_capacity=Fraction(100)),
            seed=1, keypairs=fleet_keypairs[:3])
        assert len(report.outcomes) == 12

    def test_report_contains_summary_block(self, fleet_keypairs):
        report = run_scenario(
            ScenarioSpec(n_clients=1, requests_per_client=1, delta_s=8),
            seed=3, keypairs=fleet_keypairs[:1])
        text = report.to_text()
        assert "--- summary ---" in text
        import json
        summary = json.loads(text.split("--- summary ---\n", 1)[1])
        assert summary["counters"]["allowed"] == 1


ADVERSARY_EXPECTATIONS = [
    (AdversaryKind.TAMPER_PK, "bad-signature"),
    (AdversaryKind.TAMPER_DELTA_S, "bad-signature"),
    (AdversaryKind.TAMPER_SIGMA1, "bad-signature"),
    (AdversaryKind.TAMPER_HINT, "hint-mismatch"),
    (AdversaryKind.TAMPER_WRAPPED_KEY, "bad-server-signature"),
    (AdversaryKind.TAMPER_NONCE, "bad-server-signature"),
    (AdversaryKind.TAMPER_CIPHERTEXT, "bad-server-signature"),
    (AdversaryKind.TAMPER_SIG2, "bad-server-signature"),
    (AdversaryKind.DROP, "transport-failure"),
]


@pytest.fixture(scope="module")
def matrix_report(fleet_keypairs):
    """One run applying every tamper kind to its own request."""
    n = len(ADVERSARY_EXPECTATIONS)
    actions = [AdversaryAction(kind, target=i)
               for i, (kind, _) in enumerate(ADVERSARY_EXPECTATIONS)]
    spec = ScenarioSpec(kind="adversary", n_clients=1,
                        requests_per_client=n + 1,
                        throttle_capacity=Fraction(1000), actions=actions)
    return run_scenario(spec, seed=11, keypairs=fleet_keypairs[:1])


class TestRunAdversary:
    def test_every_action_yields_designated_error(self, matrix_report):
        for i, (kind, expected) in enumerate(ADVERSARY_EXPECTATIONS):
            assert matrix_report.outcomes[i].outcome == expected, kind

    def test_untouched_request_succeeds(self, matrix_report):
        assert matrix_report.outcomes[-1].outcome == "success"

    def test_replay_is_stale(self, fleet_keypairs):
        spec = ScenarioSpec(
            kind="adversary", n_clients=1, requests_per_client=3,
            throttle_capacity=Fraction(100),
            actions=[AdversaryAction(AdversaryKind.REPLAY_RESPONSE, 0)])
        report = run_scenario(spec, seed=4, keypairs=fleet_keypairs[:1])
        outcomes = [o.outcome for o in report.outcomes]
        assert outcomes == ["success", "stale", "success"]

    def test_delay_does_not_break_freshness(self, fleet_keypairs):
        spec = ScenarioSpec(
            kind="adversary", n_clients=1, requests_per_client=1,
            throttle_capacity=Fraction(100),
            actions=[AdversaryAction(AdversaryKind.DELAY, 0, parameter=5000)])
        report = run_scenario(spec, seed=4, keypairs=fleet_keypairs[:1])
        assert report.outcomes[0].outcome == "success"

    @pytest.mark.parametrize("action, outcomes", [
        ("delay:0:0", ["success", "throttled"]),
        ("delay:0:1000", ["success", "success"]),
        ("delay:0", ["success", "success"]),
    ])
    def test_delay_parameter_is_the_wait(self, fleet_keypairs, action,
                                         outcomes):
        """With C = 1 and r = 1/s, request 1 is served only if request
        0's delay moved the clock a second; delay:0:0 waits for nothing."""
        spec = parse_scenario(
            "kind = adversary\nrequests_per_client = 2\n"
            f"throttle_capacity = 1\naction.0 = {action}\n")
        report = run_scenario(spec, seed=4, keypairs=fleet_keypairs[:1])
        assert [o.outcome for o in report.outcomes] == outcomes

    def test_deterministic(self, fleet_keypairs):
        actions = [AdversaryAction(AdversaryKind.TAMPER_CIPHERTEXT, 1),
                   AdversaryAction(AdversaryKind.DROP, 2)]
        spec = ScenarioSpec(kind="adversary", n_clients=1,
                            requests_per_client=4,
                            throttle_capacity=Fraction(100), actions=actions)
        texts = [run_scenario(spec, seed=8,
                              keypairs=fleet_keypairs[:1]).to_text()
                 for _ in range(2)]
        assert texts[0] == texts[1]

    def test_tamper_matrix_covers_all_message_fields(self):
        """Every mutable field of both protocol messages appears in at
        least one adversary action kind."""
        covered_by = {
            "pk_iot": AdversaryKind.TAMPER_PK,
            "delta_s": AdversaryKind.TAMPER_DELTA_S,
            "sigma1": AdversaryKind.TAMPER_SIGMA1,
            "fingerprint_hint": AdversaryKind.TAMPER_HINT,
            "wrapped_key": AdversaryKind.TAMPER_WRAPPED_KEY,
            "nonce": AdversaryKind.TAMPER_NONCE,
            "response_ciphertext": AdversaryKind.TAMPER_CIPHERTEXT,
            "sigma2": AdversaryKind.TAMPER_SIG2,
        }
        assert set(covered_by.values()) <= set(AdversaryKind)


class TestDepletion:
    def test_no_attacker_baseline(self, fleet_keypairs):
        spec = ScenarioSpec(kind="depletion", flood_rate=0, duration_s=2,
                            honest_clients=3, source_max_rate=Fraction(256))
        report = run_scenario(spec, seed=6, keypairs=fleet_keypairs)
        honest = [o for o in report.outcomes if o.client >= 0]
        assert all(o.outcome == "success" for o in honest)

    def test_throttled_flood_bounded_by_bucket(self, fleet_keypairs):
        spec = ScenarioSpec(kind="depletion", flood_rate=100, duration_s=3,
                            honest_clients=2, source_max_rate=Fraction(256))
        report = run_scenario(spec, seed=6, keypairs=fleet_keypairs[:3])
        # C=5 plus 3 seconds of refill at r=1
        assert report.counters["attacker_granted"] <= 5 + 3
        honest = [o for o in report.outcomes if o.client >= 0]
        assert all(o.outcome == "success" for o in honest)
        # pool work is bounded by grants: delta_s plus the 16-byte
        # session key per served request, and the 16-byte binding key of
        # each of the three identities' one binding
        assert report.pool_extracted_bits \
            == report.counters["allowed"] * 8 * (32 + 16) + 3 * 8 * 16

    def test_unthrottled_flood_depletes_honest(self, fleet_keypairs):
        spec = ScenarioSpec(kind="depletion", flood_rate=200, duration_s=2,
                            honest_clients=3, source_max_rate=Fraction(256),
                            source_density=Fraction(3, 4),
                            throttle_enabled=False)
        report = run_scenario(spec, seed=6, keypairs=fleet_keypairs)
        honest = [o.outcome for o in report.outcomes if o.client >= 0]
        assert "entropy-depleted" in honest
        assert report.counters["attacker_granted"] > 15


SCENARIO_TEXT = """
kind = adversary
n_clients = 1
requests_per_client = 3
delta_s = 16
throttle_capacity = 50
action.0 = tamper-ciphertext:1
action.1 = drop:2
"""


class TestScenarioCheck:
    """check_scenario refuses, before anything is built, a spec that
    run_scenario cannot run, however the spec was made."""

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(kind="chaos"),
        ScenarioSpec(delta_s=0),
        ScenarioSpec(delta_s=64, max_delta_s=32),
        ScenarioSpec(step_ms=-1),
        ScenarioSpec(n_clients=257),
        ScenarioSpec(kind="depletion", honest_clients=257),
        ScenarioSpec(n_sources=1025),
        ScenarioSpec(n_clients=200, requests_per_client=1000),
        ScenarioSpec(kind="depletion", flood_rate=10 ** 6, duration_s=10),
        ScenarioSpec(actions=[AdversaryAction(AdversaryKind.DROP, 0)]),
        ScenarioSpec(source_density=Fraction(2)),
        ScenarioSpec(throttle_refill_rate=Fraction(0)),
    ], ids=["kind", "delta_s-0", "delta_s-above-max", "step_ms",
            "n_clients", "honest_clients", "n_sources", "fleet-requests",
            "flood-requests", "action-outside-adversary", "density",
            "refill"])
    def test_run_refuses_before_building(self, monkeypatch, spec):
        def build_stack(*args, **kwargs):
            raise AssertionError("built a server for a refused spec")

        monkeypatch.setattr(harness, "build_stack", build_stack)
        with pytest.raises(ConfigError):
            run_scenario(spec, seed=1)

    @pytest.mark.parametrize("line, message", [
        ("n_sources = 1000000000", "n_sources above 1024"),
        ("n_clients = 257", "n_clients above 256"),
        ("honest_clients = 257", "honest_clients above 256"),
        ("requests_per_client = 100001",
         "n_clients \\* requests_per_client above 100000"),
        ("duration_s = 101", "flood_rate \\* duration_s above 100000"),
    ])
    def test_sizes_refused_at_their_line(self, line, message):
        with pytest.raises(ConfigError, match=f"^line 2: {message}$"):
            parse_scenario(f"kind = depletion\n{line}\n")

    def test_products_are_checked_once_the_file_is_read(self):
        """A product is bounded whichever of its two lines comes first,
        and its error names the later line."""
        text = "kind = depletion\nflood_rate = 20000\nduration_s = {}\n"
        assert parse_scenario(text.format(5)).flood_rate == 20000
        with pytest.raises(ConfigError, match="^line 3: flood_rate \\* "):
            parse_scenario(text.format(6))

    def test_largest_sizes_parse(self):
        spec = parse_scenario("n_clients = 256\nhonest_clients = 256\n"
                              "n_sources = 1024\nrequests_per_client = 390\n"
                              "flood_rate = 10000\n")
        assert (spec.n_clients * spec.requests_per_client,
                spec.flood_rate * spec.duration_s) == (99_840, 100_000)


class TestScenarioFiles:
    def test_parse(self):
        spec = parse_scenario(SCENARIO_TEXT)
        assert spec.kind == "adversary"
        assert spec.delta_s == 16
        assert spec.actions == [
            AdversaryAction(AdversaryKind.TAMPER_CIPHERTEXT, 1),
            AdversaryAction(AdversaryKind.DROP, 2),
        ]

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("kind = chaos\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario("frobnicate = 9\n")

    @pytest.mark.parametrize("kind", ["fleet", "depletion"])
    def test_action_outside_adversary_rejected(self, kind):
        """An action line a fleet or depletion run would ignore is an
        error, whether it comes before or after the kind."""
        with pytest.raises(ConfigError, match="^line 3: action.* only "
                                              "applies to kind = adversary$"):
            parse_scenario(f"kind = {kind}\n\naction.0 = drop:0\n")
        with pytest.raises(ConfigError, match="^line 1: "):
            parse_scenario(f"action.0 = drop:0\nkind = {kind}\n")

    @pytest.mark.parametrize("value", [
        "delay:0:-5000", "drop:0:5", "tamper-sig2:1:0"])
    def test_bad_action_parameter_names_its_line(self, value):
        """Only a delay takes a parameter, and time never runs back."""
        with pytest.raises(ConfigError, match="^line 2: only delay "):
            parse_scenario(f"kind = adversary\naction.0 = {value}\n")

    @pytest.mark.parametrize("line", [
        "source_density = 2",
        "source_density = 0",
        "source_max_rate = 0",
    ])
    def test_bad_source_values_name_their_line(self, line):
        """Rejected here, not as a ValueError from SourceDescriptor once
        run_scenario builds the sources."""
        with pytest.raises(ConfigError, match="^line 2: "):
            parse_scenario(f"kind = fleet\n{line}\n")

    @pytest.mark.parametrize("line", [
        "throttle_refill_rate = 0",
        "throttle_capacity = 0",
        "harvest_deadline_ms = 0",
        "max_delta_s = 0",
        "honest_clients = -1",
        "delta_s = 0",
        "throttle_enabled = ture",
    ])
    def test_bad_value_names_its_line(self, line):
        """Refused here as a server config refuses it, not as a
        ZeroDivisionError, IndexError or FieldOutOfRange mid-run."""
        with pytest.raises(ConfigError, match="^line 2: "):
            parse_scenario(f"kind = depletion\n{line}\n")

    def test_delta_s_range_names_the_later_line(self):
        spec = parse_scenario("max_delta_s = 16\ndelta_s = 16\n")
        assert (spec.delta_s, spec.max_delta_s) == (16, 16)
        with pytest.raises(ConfigError, match="^line 3: delta_s 32 "):
            parse_scenario("kind = fleet\ndelta_s = 32\nmax_delta_s = 16\n")
        with pytest.raises(ConfigError, match="^line 1: delta_s 32 "):
            parse_scenario("max_delta_s = 16\n")

    @pytest.mark.parametrize("parse", [parse_config, parse_scenario])
    def test_missing_equals_same_error_in_both_formats(self, parse):
        with pytest.raises(ConfigError,
                           match="^line 2: expected key = value$"):
            parse("# max_delta_s = 16\nmax_delta_s 16\n")

    def test_shipped_sample_parses(self):
        sample = Path(__file__).parents[1] / "scripts/sample-scenario.conf"
        spec = parse_scenario(sample.read_text())
        assert spec.kind == "adversary"
        assert [a.kind for a in spec.actions] == [
            AdversaryKind.TAMPER_DELTA_S, AdversaryKind.TAMPER_CIPHERTEXT,
            AdversaryKind.REPLAY_RESPONSE, AdversaryKind.DROP]

    def test_run_scenario_dispatch(self):
        spec = parse_scenario(SCENARIO_TEXT)
        report = run_scenario(spec, seed=13)
        outcomes = [o.outcome for o in report.outcomes]
        assert outcomes == ["success", "bad-server-signature",
                            "transport-failure"]

    def test_cli_writes_report(self, tmp_path, capsys):
        scenario = tmp_path / "s.conf"
        scenario.write_text("kind = fleet\nn_clients = 1\n"
                            "requests_per_client = 2\ndelta_s = 8\n"
                            "throttle_capacity = 10\n")
        out = tmp_path / "report.txt"
        assert harness.main(["run", "--scenario", str(scenario),
                             "--seed", "3", "--report", str(out)]) == 0
        text = out.read_text()
        assert "result=success" in text
        assert "--- summary ---" in text


def test_sim_clock_never_moves_backwards():
    clock = SimClock(10)
    with pytest.raises(ValueError, match="backwards"):
        clock.advance(-1)
    with pytest.raises(ValueError, match="backwards"):
        clock.set(9)
    assert clock.now() == 10


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, digest", [
    (["-m", "eaas.harness", "run", "--scenario",
      "scripts/sample-scenario.conf", "--seed", "4"],
     "d6530857c083b0beb7f2590478e36184b9715d3c990798cd534eed2d9c82f1d1"),
    (["scripts/attack_matrix.py", "--seed", "1"],
     "955a2b995fd40ec4a870bf2a52efb8a90db8e88ec3fe22ebe0b668f578194ec8"),
    (["scripts/depletion_experiment.py", "--seed", "1"],
     "89fff206ce7eaa30e3d21b8ec546c70a785c4da95c2d1ae1b3525672442309ee"),
    (["scripts/entropy_quality.py", "--mib", "1", "--seed", "0"],
     "daaa370ebb41f16115189f489108b309de34cd37e8bcbfaf18b36adf8fd40618"),
], ids=["sample-scenario", "attack-matrix", "depletion", "entropy-quality"])
def test_report_is_pinned(argv, digest):
    """Each shipped report, run with fresh keys, prints the same bytes:
    the pool, protocol and report format all feed these digests."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                            capture_output=True, timeout=300, check=True)
    assert hashlib.sha256(result.stdout).hexdigest() == digest
