"""The benchmark's workloads: sqrw command lists and the checks on their outputs.

Each workload is a list of ``Command``s, run in order by one child
interpreter.  A command names its argv (output paths relative to the
child's working directory) and a check that reads the command's exit code,
captured stdout and output file, and returns a failure reason or None.

The checks use independent oracles and tolerances, never byte hashes, so a
reordered floating-point sum does not count as a failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
SEARCH_DIM = 14
SEARCH_STEPS = 300
SEARCH_PEAK_STEP = 149
FULL_DIM = 20
FULL_STEPS = 2
TOL = 1e-12

WHY = {
    "paper_cli": "the seven repro presets plus scatter, spectrum and verify-circuit: "
    "small-state modules and CSV output, no full step past d = 7",
    "full_walk": "full --dim 20: the exponential step on a 320 MiB state, about 3x L3, "
    "so it is memory-bound; the only workload that moves peak RSS",
    "marked_search": "search --dim 14 for 300 steps past the peak at 149: a cache-resident "
    "full step with a per-vertex override, called hundreds of times",
}
NAMES = tuple(WHY)
# Exponents of the interpreter-loop and memory-copy times of
# ``child.Calibration`` in the gauge that scales a workload's command times
# to the reference host speed (see ``run.at_reference``): the kind of work
# each workload spends its time on.  ``paper_cli`` is mostly interpreter
# work (CLI formatting, the layer walk's loops), ``full_walk`` streams a
# state three times the L3, and ``marked_search`` runs numpy on a
# cache-resident state, which is neither.  Set-up (the import) is scaled by
# the loop time alone.
GAUGE = {
    "paper_cli": (1.0, 0.0),
    "full_walk": (0.0, 1.0),
    "marked_search": (0.5, 0.5),
}
SETUP_GAUGE = (1.0, 0.0)

Check = Callable[[Path, str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str | None
    check: Check


def commands(workload: str, seed: int) -> list[Command]:
    """Command list of a workload; the seed picks the marked vertex of ``marked_search``."""
    if workload == "paper_cli":
        cmds = [Command(("repro", "fig2", "--out", "fig2.csv"), "fig2.csv", _check_hitting(30))]
        for fig, steps in (("fig3", 100), ("fig4", 250), ("fig5", 250), ("fig6", 250), ("fig7", 250)):
            cmds.append(Command(("repro", fig, "--out", f"{fig}.csv"), f"{fig}.csv", _check_layers(50, steps)))
        cmds.append(Command(("repro", "fig9", "--out", "fig9.csv"), "fig9.csv", _check_scatter(10, 400, False)))
        cmds.append(
            Command(
                ("scatter", "--dim", "10", "--steps", "4000", "--cumulative", "--out", "scatter.csv"),
                "scatter.csv",
                _check_scatter(10, 4000, True),
            )
        )
        cmds.append(
            Command(
                ("spectrum", "--dim", "12", "--multiport", "grover", "--out", "spectrum.csv"),
                "spectrum.csv",
                _check_spectrum(12),
            )
        )
        cmds.append(Command(("verify-circuit", "--dim", "7", "--multiport", "grover"), None, _check_pass))
        return cmds
    if workload == "full_walk":
        argv = ("full", "--dim", str(FULL_DIM), "--steps", str(FULL_STEPS), "--init", "origin-symmetric",
                "--multiport", "grover", "--out", "full.csv")
        return [Command(argv, "full.csv", _check_full(FULL_DIM, FULL_STEPS))]
    if workload == "marked_search":
        marked = format(random.Random(seed).randrange(1 << SEARCH_DIM), f"0{SEARCH_DIM}b")
        argv = ("search", "--dim", str(SEARCH_DIM), "--marked", marked, "--steps", str(SEARCH_STEPS),
                "--multiport", "grover", "--out", "search.csv")
        return [Command(argv, "search.csv", _check_search)]
    raise ValueError(f"unknown workload {workload!r} (choose from: {', '.join(NAMES)})")


def _table(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().rstrip("\n")
    if got != header:
        raise ValueError(f"header {got!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _surface_error(rows: np.ndarray, d: int, steps: int) -> str | None:
    """Shape and index columns of a ``step,w,probability`` surface."""
    if rows.shape != ((steps + 1) * (d + 1), 3):
        return f"surface has shape {rows.shape}, expected {((steps + 1) * (d + 1), 3)}"
    n, w = np.divmod(np.arange(rows.shape[0]), d + 1)
    if not (np.array_equal(rows[:, 0], n) and np.array_equal(rows[:, 1], w)):
        return "step,w columns out of order"
    return None


def _check_layers(d: int, steps: int) -> Check:
    def check(path: Path, stdout: str) -> str | None:
        rows = _table(path, "step,w,probability")
        err = _surface_error(rows, d, steps)
        if err:
            return err
        p = rows[:, 2].reshape(steps + 1, d + 1)
        if p.min() < -TOL:
            return f"negative probability {p.min()}"
        worst = np.max(np.abs(p.sum(axis=1) - 1.0))
        return f"layer rows sum to 1 +- {worst:.3g}" if worst > TOL else None

    return check


def _check_full(d: int, steps: int) -> Check:
    def check(path: Path, stdout: str) -> str | None:
        from sqrw.layers import layer_distribution_series, origin_state
        from sqrw.multiport import grover_coeffs

        rows = _table(path, "step,w,probability")
        err = _surface_error(rows, d, steps)
        if err:
            return err
        ref = layer_distribution_series(d, grover_coeffs(d), origin_state(d), steps)
        worst = np.max(np.abs(rows[:, 2] - ref.ravel()))
        return f"full rows differ from the layer walk by {worst:.3g}" if worst > TOL else None

    return check


def _check_hitting(dmax: int) -> Check:
    def check(path: Path, stdout: str) -> str | None:
        rows = _table(path, "d,p_c,p_q,ratio")
        d = np.arange(2, dmax + 1)
        if rows.shape != (dmax - 1, 4) or not np.array_equal(rows[:, 0], d):
            return f"hitting table has shape {rows.shape} or wrong d column"
        # Grover coefficients: t(d-1) + r = 1, so the amplitude is (d-1)! t^(d-1) / sqrt(d).
        p_c = np.array([math.exp(math.lgamma(k + 1) - k * math.log(k)) for k in d])
        p_q = np.array([math.exp(2 * math.lgamma(k) + 2 * (k - 1) * math.log(2 / k) - math.log(k)) for k in d])
        for col, ref in ((1, p_c), (2, p_q), (3, p_q / p_c)):
            worst = np.max(np.abs(rows[:, col] / ref - 1.0))
            if worst > 1e-9:
                return f"hitting column {col} off by relative {worst:.3g}"
        return None

    return check


def _check_scatter(d: int, steps: int, cumulative: bool) -> Check:
    def check(path: Path, stdout: str) -> str | None:
        header = "step,detection_probability" + (",cumulative_probability" if cumulative else "")
        rows = _table(path, header)
        if rows.shape[0] != steps + 1 or not np.array_equal(rows[:, 0], np.arange(steps + 1)):
            return f"scatter series has {rows.shape[0]} rows, expected {steps + 1}"
        p = rows[:, 1]
        if np.any(p[: d + 1] != 0.0):
            return "detection before step d + 1"
        if p.min() < 0.0:
            return "negative detection probability"
        cum = np.cumsum(p)
        if cum[-1] > 1.0 + TOL:
            return f"cumulative detection {cum[-1]} exceeds 1"
        if cumulative and np.max(np.abs(rows[:, 2] - cum)) > TOL:
            return "cumulative column is not the running sum"
        return None

    return check


def _check_spectrum(d: int) -> Check:
    def check(path: Path, stdout: str) -> str | None:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = [line.rstrip("\n").split(",") for line in fh]
        if header != "k_bits,eigenvalue_re,eigenvalue_im" or len(rows) != d << d:
            return f"spectrum has {len(rows)} rows, expected {d << d}"
        bits = [format(k, f"0{d}b") for k in range(1 << d) for _ in range(d)]
        if [r[0] for r in rows] != bits:
            return "k_bits column out of order"
        lam = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        worst = np.max(np.abs(np.abs(lam) - 1.0))
        return f"eigenvalue modulus off 1 by {worst:.3g}" if worst > TOL else None

    return check


def _check_pass(path: Path, stdout: str) -> str | None:
    return None if stdout.splitlines()[-1:] == ["PASS"] else "verify-circuit did not print PASS"


def _check_search(path: Path, stdout: str) -> str | None:
    rows = _table(path, "step,success_probability")
    ref = np.loadtxt(HERE / f"search_d{SEARCH_DIM}.csv", delimiter=",", skiprows=1)
    if rows.shape != ref.shape or not np.array_equal(rows[:, 0], ref[:, 0]):
        return f"search series has shape {rows.shape}, expected {ref.shape}"
    worst = np.max(np.abs(rows[:, 1] - ref[:, 1]))
    if worst > TOL:
        return f"search series differs from the reference by {worst:.3g}"
    if f"peak_step={SEARCH_PEAK_STEP} " not in stdout:
        return f"peak step is not {SEARCH_PEAK_STEP}"
    return None


def check(cmd: Command, workdir: Path, code: int, stdout: str) -> str | None:
    """Run one command's check; exit code 0 and a readable output are required."""
    if code != 0:
        return f"exit code {code}"
    try:
        return cmd.check(workdir / cmd.out if cmd.out else workdir, stdout)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
