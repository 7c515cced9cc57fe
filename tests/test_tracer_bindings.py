"""Every import kept only for the benchmark tracer still names a wrap point.

A ``src/sqrw`` import marked ``# noqa: F401  (perfbench/spans.py wraps ...)``
is unused by the program; it exists so that ``perfbench/spans.py`` can wrap
the name where that module binds it.  Once ``spans.POINTS`` stops naming
the binding, this test fails and the import should go.  The reverse check,
that every wrap point resolves, is ``test_tracer_points.py``.
"""

import re
from pathlib import Path

import pytest

from test_tracer_points import _points

import sqrw

TRACER_ONLY = re.compile(r"^from \.\w+ import (\w+)\s+# noqa: F401\s+\(perfbench/spans\.py wraps")


def _tracer_only_bindings():
    found = []
    for path in sorted(Path(sqrw.__file__).parent.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            match = TRACER_ONLY.match(line)
            if match:
                found.append((f"sqrw.{path.stem}", match.group(1)))
    return found


def test_tracer_only_bindings_are_found():
    assert _tracer_only_bindings()


@pytest.mark.parametrize("module,attr", _tracer_only_bindings())
def test_tracer_only_binding_is_wrapped(module, attr):
    assert (module, attr) in _points()
