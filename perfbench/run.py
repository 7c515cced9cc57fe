"""Run one sqrw workload the way users run the CLI, and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any working directory works; paths are taken
from this file).  Every repetition starts a fresh interpreter (``child.py``),
one at a time, with the BLAS thread count fixed.  The child times
``import sqrw.cli`` and then calls ``sqrw.cli.main(argv)`` for each command
of the workload.  After each repetition every output is checked
(``workloads.py``); a command fails if its exit code is wrong or its output
fails its check.  Repetitions continue until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import of
``sqrw.cli``, also sampled by extra import-only starts) and ``wall_s`` (the
whole command list), each the median of the run's samples after scaling
every time to the reference host speed (``at_reference``), and
``peak_rss_mib`` from a first repetition that runs without the calibration.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-module metrics from the spans of ``spans.py``; the untraced ones give
``trace.overhead_frac``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Before it come an
``env`` line (the recorded environment, as JSON), a table for people, and an
``n/a`` line: the JSON list of metrics that are undefined in this run and
carry 0 in the result line.  Exit code 2, with no result, if the run cannot
be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_STARTS = 4  # import-only starts per untraced run, on top of one per repetition
COPY_MIB = 512  # bandwidth array: more than 4x the 105 MiB L3 it was chosen for
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# The loop and copy times of ``child.Calibration.run`` at the reference speed:
# about the fastest state of the 2-vCPU Xeon VM the benchmark was tuned on.
CAL_REF_S = (0.0065, 0.0070)
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
sys.path.insert(0, str(SRC))  # the full_walk check uses the layer walk as its oracle


class BenchError(Exception):
    """The run cannot be made or measured; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec: dict, cwd: Path, deadline: float) -> dict:
    """Start ``child.py`` with ``spec``, wait for it, and return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a child could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=cwd,
            env=child_env(),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    if "module" in rec and not Path(rec["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"child imported sqrw from {rec['module']}, not from {SRC}")
    return rec


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = "unknown"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if (index / "level").read_text().strip() == "3":
            l3 = (index / "size").read_text().strip()
    return {
        "workload": workload,
        "seed": seed,
        "why": workloads.WHY[workload],
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run repetitions for ``seconds`` and return the raw records and check counts."""
    deadline = time.monotonic() + RUN_LIMIT_S
    cmds = workloads.commands(workload, seed)
    spec = {"argv": [list(c.argv) for c in cmds]}
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = {"setup": [], "reps": [], "attempted": 0, "failures": [], "copy_gbps": None}
    try:
        run_child({"argv": []}, workdir, deadline)  # warm-up: bytecode and file cache
        if trace:
            out["copy_gbps"] = run_child({"copy_mib": COPY_MIB}, workdir, deadline)["copy_gbps"]
        else:
            out["setup"] = [run_child({"argv": [], "calibrate": True}, workdir, deadline)
                            for _ in range(SETUP_STARTS)]
        stop = time.monotonic() + seconds
        longest = 0.0
        while True:
            # Traced runs alternate plain and traced repetitions; untraced runs
            # calibrate every repetition but the first, which gives peak RSS.
            traced = trace and len(out["reps"]) % 2 == 1
            calibrated = not trace and len(out["reps"]) > 0
            started = time.monotonic()
            rec = run_child({**spec, "trace": traced, "calibrate": calibrated}, workdir, deadline)
            rec["traced"] = traced
            for cmd, res in zip(cmds, rec["results"], strict=True):
                out["attempted"] += 1
                why = workloads.check(cmd, workdir, res["code"], res["stdout"])
                if why:
                    out["failures"].append(f"{' '.join(cmd.argv)}: {why}")
            out["reps"].append(rec)
            for path in workdir.iterdir():
                path.unlink()
            longest = max(longest, time.monotonic() - started)
            enough = len(out["reps"]) >= 2
            if enough and (time.monotonic() >= stop or deadline - time.monotonic() < 1.5 * longest):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def at_reference(seconds: float, cal: list[list[float]], gauge: tuple[float, float]) -> float:
    """``seconds`` scaled to the reference host speed.

    ``cal`` holds the calibration times taken around the interval (their
    mean is used), and ``gauge`` the exponent of each calibration time in
    the host's speed for this kind of work.
    """
    scale = 1.0
    for k, weight in enumerate(gauge):
        scale *= (CAL_REF_S[k] / statistics.fmean(c[k] for c in cal)) ** weight
    return seconds * scale


def end_to_end(m: dict, workload: str) -> dict[str, tuple[float, str, int]]:
    """(value, unit, samples) per end-to-end metric.

    The host's CPU moves between faster and slower states every few seconds
    to minutes, by up to half, and both wall and CPU time follow it
    (``paper_cli`` repetitions take from 0.6 s to 1.3 s).  So every time is
    scaled to the reference speed by the calibration the child runs right
    around it: the import by the one just after it, each command by the
    ones just before and after it, with the workload's gauge.  ``setup_s``
    and ``wall_s`` are the medians of the scaled samples.  Peak RSS does not
    follow the host; it comes from the repetitions without calibration, whose
    copy buffers would add to it.
    """
    calibrated = [r for r in m["reps"] if r["cal_s"]]
    plain = [r for r in m["reps"] if not r["cal_s"]]
    gauge = workloads.GAUGE[workload]
    setup = [at_reference(r["setup_s"], r["cal_s"][:1], workloads.SETUP_GAUGE) for r in m["setup"] + calibrated]
    wall = [sum(at_reference(t, r["cal_s"][i:i + 2], gauge) for i, t in enumerate(r["cmd_s"])) for r in calibrated]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(wall), "s", len(wall)),
        "peak_rss_mib": (statistics.fmean([r["peak_rss_mib"] for r in plain]), "MiB", len(plain)),
    }


def per_layer(m: dict) -> dict[str, tuple[float | None, str, int]]:
    """(value, unit, samples) per per-module metric, from the traced repetitions.

    The value is None where it is undefined: a per-call statistic or ratio of a
    layer the workload never calls, or a p90 with fewer than ten samples beyond
    it.  Call counts and total times of such a layer are measured as 0.
    """
    traced = [r for r in m["reps"] if r["traced"]]
    plain = [r for r in m["reps"] if not r["traced"]]
    n = len(traced)

    def span(r: dict, name: str) -> dict:
        return r["spans"].get(name, {"dur_ns": [], "self_ns": [], "parents": {}})

    def count(r: dict, name: str) -> int:
        return len(span(r, name)["dur_ns"])

    def secs(r: dict, name: str, key: str = "dur_ns") -> float:
        return sum(span(r, name)[key]) / 1e9

    def per_rep(fn, unit: str) -> tuple[float | None, str, int]:
        values = [v for v in map(fn, traced) if v is not None]
        return _median(values), unit, len(values)

    def pooled(name: str, key: str = "dur_ns", scale: float = 1e3) -> list[float]:
        return [v / scale for r in traced for v in span(r, name)[key]]

    def p50(name: str, unit: str, key: str = "dur_ns") -> tuple[float | None, str, int]:
        values = pooled(name, key, 1e3 if unit == "us" else 1e6)
        return _median(values), unit, len(values)

    def p90(name: str, unit: str) -> tuple[float | None, str, int]:
        values = pooled(name, "dur_ns", 1e3 if unit == "us" else 1e6)
        return _p90(values), unit, len(values)

    def notes(name: str) -> list:
        return [v for r in traced for v in span(r, name).get("notes", [])]

    def written(r: dict, col: int) -> int:
        return sum(v[col] for v in span(r, "cli.write").get("notes", []))

    def format_rate(r: dict) -> float | None:
        busy = secs(r, "cli.write", "self_ns")
        return written(r, 1) / busy / 1e6 if busy else None

    def validations(r: dict) -> float | None:
        steps = sum(count(r, s) for s in ("layers.reduced_step", "scattering.scatter_step", "evolution.step"))
        return count(r, "multiport.require_valid") / steps if steps else None

    step_ms = pooled("evolution.step", scale=1e6)
    d = max(notes("evolution.step"), default=0)
    state_bytes = 16 * d * (1 << d)
    step_gbps = 2 * state_bytes / (_median(step_ms) / 1e3) / 1e9 if step_ms else None
    copy = m["copy_gbps"]
    tails = notes("scattering.scatter_step")
    peaks = [int(hit.group(1)) for r in traced for res in r["results"]
             if (hit := re.search(r"peak_step=(\d+)", res["stdout"]))]
    wall_plain = _median([r["wall_s"] for r in plain])
    return {
        "cli.self_s": per_rep(lambda r: secs(r, "cli.main", "self_ns") + secs(r, "cli.write", "self_ns"), "s"),
        "cli.validate_s": per_rep(lambda r: secs(r, "cli.validate"), "s"),
        "cli.rows_written": per_rep(lambda r: written(r, 0), "count"),
        "cli.bytes_written": per_rep(lambda r: written(r, 1), "count"),
        "cli.format_mb_per_s": per_rep(format_rate, "MB/s"),
        "layers.reduced_step_calls": per_rep(lambda r: count(r, "layers.reduced_step"), "count"),
        "layers.reduced_step_us_p50": p50("layers.reduced_step", "us"),
        "layers.reduced_step_us_p90": p90("layers.reduced_step", "us"),
        "layers.distribution_us_p50": p50("layers.distribution", "us"),
        "scattering.scatter_step_calls": per_rep(lambda r: count(r, "scattering.scatter_step"), "count"),
        "scattering.scatter_step_us_p50": p50("scattering.scatter_step", "us"),
        "scattering.scatter_step_us_p90": p90("scattering.scatter_step", "us"),
        "scattering.tail_sites_per_step": (statistics.fmean(tails) if tails else None, "count", len(tails)),
        "multiport.validations_per_step": per_rep(validations, "ratio"),
        "spectral.blocks_built": per_rep(lambda r: count(r, "spectral.block_matrix"), "count"),
        "spectral.block_matrix_us_p50": p50("spectral.block_matrix", "us"),
        "spectral.eig_s": per_rep(lambda r: secs(r, "spectral.eig"), "s"),
        "circuit.circuit_step_calls": per_rep(lambda r: count(r, "circuit.circuit_step"), "count"),
        "circuit.operator_deviation_s": per_rep(lambda r: secs(r, "circuit.operator_deviation"), "s"),
        "evolution.step_calls": per_rep(lambda r: count(r, "evolution.step"), "count"),
        "evolution.step_ms_p50": p50("evolution.step", "ms"),
        "evolution.step_ms_p90": p90("evolution.step", "ms"),
        "evolution.gather_ms_p50": p50("evolution.gather", "ms"),
        "evolution.combine_ms_p50": p50("evolution.step", "ms", "self_ns"),
        "evolution.distribution_ms_p50": p50("evolution.distribution", "ms"),
        "evolution.step_gbps_computed": (step_gbps, "GB/s", len(step_ms)),
        "evolution.bw_fraction": (step_gbps / copy if step_gbps else None, "ratio", len(step_ms)),
        "evolution.live_states_at_peak": per_rep(
            lambda r: (r["peak_rss_mib"] - r["rss_import_mib"]) * 2**20 / state_bytes if d else None, "ratio"),
        "hypercube.init_state_s": per_rep(lambda r: secs(r, "hypercube.init_state"), "s"),
        "search.full_steps": per_rep(lambda r: span(r, "evolution.step")["parents"].get("search.run", 0), "count"),
        "search.success_probability_us_p50": p50("search.success_probability", "us"),
        "search.peak_step": (_median(peaks), "step", len(peaks)),
        "machine.copy_gbps": (copy, "GB/s", 1),
        "process.cpu_s": (_median([r["cpu_s"] for r in plain]), "s", len(plain)),
        "trace.overhead_frac": (_median([r["wall_s"] for r in traced]) / wall_plain - 1.0, "ratio", n),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqrw" / "cli.py").is_file():
        print(f"error: no sqrw sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = per_layer(m) if args.trace else end_to_end(m, args.workload)
    failed = len(m["failures"])
    for why in m["failures"]:
        print(f"FAILED {why}")
    walls = [r["wall_s"] for r in m["reps"]]
    print(f"{args.workload}: {len(walls)} repetitions, {m['attempted']} commands, unscaled wall "
          f"median {_median(walls):.6g} s, min {min(walls):.6g} s")
    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:14.6g}" if value is not None else f"{'n/a':>14s}"
        print(f"  {name:36s} {shown} {unit:6s} n={samples}")
    print(f"  {'error_rate':36s} {failed / m['attempted']:14.6g} {'ratio':6s} ({failed}/{m['attempted']})")
    undefined = sorted(name for name, (value, _, _) in metrics.items() if value is None)
    print("n/a " + json.dumps(undefined))
    # The result line must name every declared metric with a number, so an
    # undefined value is written as 0; the "n/a" line above lists those names,
    # and ``sets.py`` leaves them out of its tables and comparisons.
    result = {
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {name: {"value": 0.0 if value is None else value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
