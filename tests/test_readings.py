"""The layer readings as array expressions, against the per-element Python readings.

``run_search`` reads |z| with ``np.hypot`` on the real and imaginary parts,
and the detection series reads |z|**2 with ``np.float_power(x, 2)``: libm
``hypot`` and ``pow``, which are also what Python's ``abs(complex)`` and
``float ** 2`` call.  numpy's own ``abs`` and ``square`` round some values
differently.  The oracles of ``oracles.py`` read the walk's states one
Python scalar at a time, as the library did before, so these tests pin the
array readings to those bits.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import walk_states
from oracles import scalar_abs, scalar_detection_series, scalar_search_series, scalar_square

import sqrw
from sqrw.errors import ValidationError
from sqrw.layers import _abs, _layer_factors, zero_layer_state
from sqrw.multiport import MultiportCoeffs, grover_coeffs, phase_coeffs, symmetric_coeffs
from sqrw.scattering import boundary_coeffs, detection_probability_series, initial_tail_photon
from sqrw.search import SearchConfig, run_search

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

# 0 and 1 step, one and two full blocks of the walk, and three blocks
STEP_COUNTS = [0, 1, 256, 257, 600]

# numpy's dispatch levels above x86-64-v2
ABOVE_X86_64_V2 = ["AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"]


def sweep_coins(d: int) -> list[MultiportCoeffs]:
    """grover, grover times a phase, and the symmetric family at p = 1, 0.8 and 1.3 where it exists."""
    g = grover_coeffs(d)
    phase = cmath.exp(0.9j)
    coins = [g, MultiportCoeffs(g.r * phase, g.t * phase, d)]
    for p in (1.0, 0.8, 1.3):
        try:
            coins.append(symmetric_coeffs(d, p))
        except ValidationError:  # d = 1, or no phase at this (d, p)
            pass
    return coins


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 14, 30, 100])
def test_series_read_as_the_per_element_python_readings(d):
    mark = phase_coeffs(d, cmath.exp(2.1j))
    start = zero_layer_state(d)  # run_search's uniform start, with the mark moved to layer 0
    start.up[:d] = start.down[1:] = 1.0 / math.sqrt(d * (1 << d))
    photon = initial_tail_photon(d).line
    b = boundary_coeffs(d)
    for c in sweep_coins(d):
        r, t = np.full(d + 1, c.r, np.complex128), np.full(d + 1, c.t, np.complex128)
        r[0], t[0] = mark.r, mark.t
        search_states = walk_states(start.line, max(STEP_COUNTS), _layer_factors(d, r, t))
        tail_states = walk_states(photon, max(STEP_COUNTS), _layer_factors(d, c.r, c.t, b))
        for steps in STEP_COUNTS:
            for metric, col in (("out", 1), ("in", d + 3)):
                got = run_search(SearchConfig(d, 0, steps, mark, c, metric))
                want = scalar_search_series(search_states[: steps + 1], col)
                assert np.array_equal(got, want), (c, steps, metric)
            got = detection_probability_series(d, c, b, steps)
            assert np.array_equal(got, scalar_detection_series(tail_states[: steps + 1])), (c, steps)


def reading_mismatches(n: int = 100_000, seed: int = 27) -> list[int]:
    """Values where ``_abs`` differs from ``abs(complex)`` and ``np.float_power(x, 2)`` from ``x ** 2``.

    Real and imaginary parts are standard normal times 2**e, e in -150..150,
    so the squares neither overflow nor leave the normal range.
    """
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, n)) * np.exp2(rng.integers(-150, 151, size=(2, n)))
    z = parts[0] + 1j * parts[1]
    h = scalar_abs(z)
    return [int(np.count_nonzero(_abs(z) != h)), int(np.count_nonzero(np.float_power(h, 2) != scalar_square(h)))]


def test_array_readings_round_as_python_scalars():
    assert reading_mismatches() == [0, 0]


def test_array_readings_round_as_python_scalars_on_x86_64_v2():
    disabled = [f for f in ABOVE_X86_64_V2 if __cpu_features__.get(f)]
    if not disabled:
        pytest.skip("numpy dispatches nothing above x86-64-v2 on this machine")
    tests = Path(__file__).parent
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
        PYTHONPATH=os.pathsep.join([str(Path(sqrw.__file__).parents[1]), str(tests)]),
    )
    code = (
        "import json, test_readings as t; "
        "print(json.dumps([t.reading_mismatches(), [f for f in t.ABOVE_X86_64_V2 if t.__cpu_features__.get(f)]]))"
    )
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, cwd=tests)
    assert child.returncode == 0, child.stderr
    mismatches, still_enabled = json.loads(child.stdout)
    assert still_enabled == []  # the child runs numpy's x86-64-v2 loops
    assert mismatches == [0, 0]
