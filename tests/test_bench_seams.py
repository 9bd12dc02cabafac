"""The benchmark's tracer wraps eaas functions by name, from outside the
package. A rename or deletion of one of them breaks only the traced
benchmark, so this checks the seams here, reading perfbench/spans.py and
changing nothing under perfbench/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_seam_and_puts_each_back():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        wrapped = {(owner, attr): owner.__dict__[attr]
                   for owner, attr, _ in saved}
    finally:
        tracer.uninstall()
    assert len(saved) == len(wrapped) == 33
    for owner, attr, original in saved:
        assert callable(original), (owner, attr)
        assert wrapped[owner, attr] is not original, (owner, attr)
        assert owner.__dict__[attr] is original, (owner, attr)
