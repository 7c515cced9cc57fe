"""The readings as array expressions, against per-element Python readings, on every dispatch level.

Every probability ``sqrw`` writes is read as re * re + im * im
(``sqrw.layers._abs2``): IEEE products and a sum, which round alike on any
CPU and in any numpy loop.  The oracles of ``oracles.py`` read the walk's
states one Python scalar at a time, so these tests pin the array readings to
those bits.  The real-coin goldens are then rerun under each numpy dispatch
level above x86-64-v2 that the machine has, and must keep their hashes.  The
complex-coin goldens are left out: the walk's complex multiply is numpy's,
which fuses multiply and add where the CPU can.
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
from oracles import scalar_abs2, scalar_detection_series, scalar_search_series
from test_goldens import FULL_GOLDENS, REPRO_SHA256, SCATTER_GOLDENS, SEAM_GOLDENS, SEARCH_GOLDENS, SPECTRUM_GOLDENS

import sqrw
from sqrw.cli import _FIG_PRESETS
from sqrw.errors import ValidationError
from sqrw.layers import _abs2, _layer_factors, zero_layer_state
from sqrw.multiport import MultiportCoeffs, grover_coeffs, phase_coeffs, symmetric_coeffs
from sqrw.scattering import boundary_coeffs, detection_probability_series, initial_tail_photon
from sqrw.search import SearchConfig, run_search

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

# 0 and 1 step, one and two full blocks of the walk, and three blocks
STEP_COUNTS = [0, 1, 256, 257, 600]

# numpy's dispatch levels above x86-64-v2, highest first
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


def test_array_readings_round_as_python_scalars():
    # parts are standard normal times 2**e, e in -150..150, so the squares neither overflow nor leave
    # the normal range; the scalars of a Python complex and of numpy read alike
    rng = np.random.default_rng(27)
    parts = rng.normal(size=(2, 100_000)) * np.exp2(rng.integers(-150, 151, size=(2, 100_000)))
    z = parts[0] + 1j * parts[1]
    want = scalar_abs2(z)
    assert np.array_equal(_abs2(z), want)
    assert all(_abs2(x) == w for x, w in zip(z[:1000], want[:1000]))
    assert np.array_equal(_abs2(z.real), z.real * z.real)


def _real_coin(argv: list[str]) -> bool:
    spec = argv[argv.index("--multiport") + 1] if "--multiport" in argv else "grover"
    return not spec.startswith("symmetric")


def real_coin_goldens() -> list[tuple[list[str], str]]:
    """(argv, CSV hash) of every golden whose coin is real: grover or a real ``custom:`` pair."""
    goldens = [(list(_FIG_PRESETS[name]), h) for name, h in REPRO_SHA256.items()]
    goldens += [(["search", *flags], h) for flags, h, _ in SEARCH_GOLDENS]
    goldens += [(["scatter", *flags], h) for flags, h in SCATTER_GOLDENS]
    goldens += [(["full", *flags], h) for flags, h in FULL_GOLDENS]
    goldens += [(["spectrum", *flags], h) for flags, h in SPECTRUM_GOLDENS]
    goldens += [(argv, h) for argv, h in SEAM_GOLDENS]
    return [(argv, h) for argv, h in goldens if _real_coin(argv)]


CHILD = """
import hashlib, json, sys
from pathlib import Path
from sqrw.cli import main
import test_readings as t
argvs, out = json.loads(sys.argv[1]), Path(sys.argv[2])
hashes = []
for i, argv in enumerate(argvs):
    path = out / f"{i}.csv"
    assert main([*argv, "--out", str(path)]) == 0, argv
    hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
print(json.dumps([hashes, [f for f in t.ABOVE_X86_64_V2 if t.__cpu_features__.get(f)]]))
"""


def test_real_coin_goldens_keep_their_bytes_on_every_dispatch_level(tmp_path):
    present = [f for f in ABOVE_X86_64_V2 if __cpu_features__.get(f)]
    if not present:
        pytest.skip("numpy dispatches nothing above x86-64-v2 on this machine")
    goldens = real_coin_goldens()
    assert len(goldens) == 18
    tests = Path(__file__).parent
    for k, level in enumerate(present):  # each child runs the loops just below ``level``
        env = dict(
            os.environ,
            NPY_DISABLE_CPU_FEATURES=" ".join(present[: k + 1]),
            PYTHONPATH=os.pathsep.join([str(Path(sqrw.__file__).parents[1]), str(tests)]),
        )
        argvs = json.dumps([argv for argv, _ in goldens])
        child = subprocess.run(
            [sys.executable, "-c", CHILD, argvs, str(tmp_path)], env=env, capture_output=True, text=True, cwd=tests
        )
        assert child.returncode == 0, child.stderr
        hashes, enabled = json.loads(child.stdout.splitlines()[-1])  # after search's peak lines
        assert enabled == present[k + 1 :], level
        assert hashes == [h for _, h in goldens], level
