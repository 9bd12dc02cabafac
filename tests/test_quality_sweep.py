"""The multi-seed quality sweep (scripts/quality_sweep.py): its pool-only
replica gives criterion 7's bytes, and its chi-square tail is right."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from test_acceptance import deliver_mib

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "quality_sweep.py"
_SPEC = importlib.util.spec_from_file_location("quality_sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_replica_equals_deliver_mib(server_keypair, client_keypair):
    assert sweep.replica_mib(5) == deliver_mib(server_keypair,
                                                client_keypair, 5)


@pytest.mark.parametrize("x", [0.01, 0.3, 1.0, 2.5, 7.0, 30.0])
def test_igamc_closed_forms(x):
    """Q(1, x) = exp(-x) and Q(1/2, x) = erfc(sqrt(x)), on both sides of
    the series/continued-fraction switch."""
    assert sweep.igamc(1, x) == pytest.approx(math.exp(-x), rel=1e-12)
    assert sweep.igamc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)),
                                                rel=1e-12)


def test_chi2_tail_at_known_quantiles():
    """Upper 5% points of chi-square (NIST/SEMATECH table): 16.919 for
    9 dof, 293.248 for 255 dof."""
    assert sweep.chi2_tail(16.919, 9) == pytest.approx(0.05, abs=1e-4)
    assert sweep.chi2_tail(293.248, 255) == pytest.approx(0.05, abs=1e-4)
