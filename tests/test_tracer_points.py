"""Every wrap point of the benchmark tracer still names an attribute of sqrw.

``perfbench/spans.py`` looks each ``(module, attribute)`` of ``POINTS`` up
with ``getattr``, so ``run.py --trace 1`` fails on a name the library no
longer binds.  The file is only loaded here; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.POINTS]


@pytest.mark.parametrize("module,attr", _points())
def test_tracer_point_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
