"""Every paper figure and golden command against the 50-digit reference of ``oracles.py``.

The reference walks the layer line vertex by vertex in ``decimal`` at 50
digits, with the paper's coins, starts and readings, and the hitting table
is exact in ``fractions``; neither shares code or arithmetic with ``sqrw``.
The walks' bound is absolute, since the relative error of a tiny probability
says nothing; the hitting table's is in units in the last place of each value.
The spectra are the library's weight-class closed forms evaluated at 50
digits, so they bound its rounding; ``test_spectral.py`` checks the forms
against eigensolvers.  The d = 30 search of 47,314 steps, several seconds of
reference, is measured outside the suite.
"""

import math
from fractions import Fraction

import pytest

from oracles import (
    decimal_detection_series,
    decimal_layer_series,
    decimal_search_series,
    decimal_weight_class_spectra,
    fraction_hitting_table,
)
from test_goldens import FULL_GOLDENS, SCATTER_GOLDENS, SEAM_GOLDENS, SEARCH_GOLDENS, SPECTRUM_GOLDENS

from sqrw.cli import _FIG_PRESETS, _build_parser, main


def reference_columns(argv: list[str]) -> list[list]:
    """The value columns of the CSV that ``argv`` writes, from the reference."""
    a = _build_parser(argv[:1]).parse_args([*argv, "--out", "unused.csv"])
    if a.command == "hitting":
        return [list(col) for col in zip(*fraction_hitting_table(a.dmax))]
    if a.command in ("layers", "full"):
        return [[p for row in decimal_layer_series(a.dim, a.multiport, a.init, a.steps) for p in row]]
    if a.command == "scatter":
        series = decimal_detection_series(a.dim, a.multiport, a.steps)
        cumulative = [sum(series[: n + 1]) for n in range(len(series))]
        return [series, cumulative] if a.cumulative else [series]
    return [decimal_search_series(a.dim, a.multiport, a.steps, a.metric)]


def csv_columns(path) -> list[list[float]]:
    """The value columns of a CSV: all but ``step,w`` or the first."""
    lines = path.read_text().splitlines()
    skip = 2 if lines[0].startswith("step,w,") else 1
    return [list(col) for col in zip(*([float(x) for x in line.split(",")[skip:]] for line in lines[1:]))]


def errors(argv: list[str], tmp_path, in_ulps: bool = False) -> list[float]:
    """max |csv - reference| of each value column, or with ``in_ulps`` in units in the last place of each value."""
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    got, want = csv_columns(out), reference_columns(argv)
    assert [len(c) for c in got] == [len(c) for c in want]
    unit = (lambda y: math.ulp(float(y))) if in_ulps else (lambda y: 1.0)
    return [max(float(abs(Fraction(x) - Fraction(y))) / unit(y) for x, y in zip(g, w)) for g, w in zip(got, want)]


def spectrum_error(argv: list[str], tmp_path) -> float:
    """max |csv - reference| over the real and imaginary parts of a ``spectrum`` CSV.

    A class can hold values with equal real parts, which the CSV orders by their
    rounded real parts, so each block's d rows are matched to the nearest unused
    values of its class.
    """
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    a = _build_parser(argv[:1]).parse_args([*argv, "--out", str(out)])
    classes = decimal_weight_class_spectra(a.dim, a.multiport)
    rows = [tuple(Fraction(float(x)) for x in line.split(",")[1:]) for line in out.read_text().splitlines()[1:]]
    assert len(rows) == a.dim << a.dim
    worst, seen = Fraction(0), set()
    for k in range(1 << a.dim):
        block = tuple(rows[k * a.dim : (k + 1) * a.dim])
        if (k.bit_count(), block) in seen:  # the blocks of one weight class share their rows
            continue
        seen.add((k.bit_count(), block))
        ref = [(Fraction(z.re), Fraction(z.im)) for z in classes[k.bit_count()]]
        for x, y in block:
            i = min(range(len(ref)), key=lambda i: abs(x - ref[i][0]) + abs(y - ref[i][1]))
            worst = max(worst, abs(x - ref[i][0]), abs(y - ref[i][1]))
            ref.pop(i)
    return float(worst)


# (argv, bound on max |csv - reference| over the CSV's values): about twice each measured maximum, rounded up
WALK_BOUNDS = [
    (list(_FIG_PRESETS["fig3"]), 5e-15),
    (list(_FIG_PRESETS["fig4"]), 2e-14),
    (list(_FIG_PRESETS["fig5"]), 2e-14),
    (list(_FIG_PRESETS["fig6"]), 6e-15),
    (list(_FIG_PRESETS["fig7"]), 1e-14),
    (list(_FIG_PRESETS["fig9"]), 7e-18),
    *[(["search", *flags], bound) for (flags, _, _), bound in zip(SEARCH_GOLDENS[:4], [3e-15, 4e-16, 3e-16, 3e-16])],
    (["scatter", *SCATTER_GOLDENS[0][0]], 1e-15),
    *[
        (["full", *flags], bound)
        for (flags, _), bound in zip(FULL_GOLDENS, [4e-15, 4e-15, 5e-13, 6e-15, 3e-14, 3e-16, 1e-16, 3e-16])
    ],
    *[(argv, bound) for (argv, _), bound in zip(SEAM_GOLDENS[1:], [7e-18, 2e-13, 5e-13])],
]


@pytest.mark.parametrize("argv,bound", WALK_BOUNDS, ids=[" ".join(a) for a, _ in WALK_BOUNDS])
def test_walk_csv_is_within_its_bound_of_the_50_digit_reference(tmp_path, argv, bound):
    assert max(errors(argv, tmp_path)) <= bound


SPECTRA = [["spectrum", *flags] for flags, _ in SPECTRUM_GOLDENS] + [a for a, _ in SEAM_GOLDENS if a[0] == "spectrum"]


@pytest.mark.parametrize("argv", SPECTRA, ids=[" ".join(a) for a in SPECTRA])
def test_spectrum_csv_is_within_a_unit_of_the_50_digit_reference(tmp_path, argv):
    # the eigenvalues have modulus 1, so half a unit in the last place is 1.1e-16; measured at most that
    assert spectrum_error(argv, tmp_path) <= 2.5e-16


def test_hitting_table_is_within_ulps_of_the_exact_fractions(tmp_path):
    # fig2: p_c, p_q and their ratio for d = 2..30, each to a few units in the last place
    p_c, p_q, ratio = errors(list(_FIG_PRESETS["fig2"]), tmp_path, in_ulps=True)
    assert p_c <= 32 and p_q <= 64 and ratio <= 32
