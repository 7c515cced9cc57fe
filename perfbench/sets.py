"""Collect and compare result sets of the benchmark.

A result set is a JSON-lines file with one record per ``run.py`` run: the
workload, seed, trace flag, collection session, recorded environment, the
names of its undefined metrics and the run's result line.

    python3 perfbench/sets.py run OUTDIR PARENT [CHANGE] [--runs 10] [--trace 0]
    python3 perfbench/sets.py compare OUTDIR/parent.jsonl OUTDIR/change.jsonl

``run`` takes one or two checkouts (directories holding ``perfbench/`` and
``src/``).  For each seed 1..runs and each workload it runs ``run.py`` of
every checkout for ``run_seconds`` of ``BENCHMARK.json``, alternating which
checkout goes first, so that both sides of a pair see the same state of the
host.  It writes ``OUTDIR/parent.jsonl`` and, with two checkouts,
``OUTDIR/change.jsonl``, then prints each metric's median and quartiles
with its unit, and each workload's error rate (failed / attempted
commands).  With ``--runs 1`` and one checkout this is one command that
measures every workload.

``compare`` treats the first set as the parent and the second as the
change.  For each workload and metric it prints both medians and
quartiles, the change of the median, the share of seed-matched pairs the
change won, and the bound from ``BENCHMARK.json``.  An end-to-end metric
is "unresolved" when either set's quartile spread exceeds its bound (unless
every run of one side beats every run of the other), "WORSE" when the
change's median is worse by more than the bound, "better" or "slower" when
one side wins at least 9 pairs in 10 and the medians differ by more than
the parent's quartile spread, and "same" otherwise.  Sets that one ``run``
did not collect together are "unpaired": the host drifts between blocks of
runs, so they get no better/slower verdict.  A metric undefined in a run
(see ``run.py``) is left out.  The exit code is 1 if any end-to-end metric
is WORSE or unresolved, or any command failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SPECS = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def run_once(checkout: Path, workload: str, seed: int, trace: int, session: str) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=checkout)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = proc.stdout.splitlines()

    def tagged(tag: str, default):
        return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)), default)

    return {"workload": workload, "seed": seed, "trace": trace, "session": session,
            "env": tagged("env ", {}), "undefined": tagged("n/a ", []), "result": json.loads(lines[-1])}


def collect(outdir: Path, checkouts: list[Path], runs: int, trace: int) -> list[list[dict]]:
    """Run every workload once per seed on each checkout, alternating which goes first."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{side}.jsonl" for side in ("parent", "change")[: len(checkouts)]]
    for path in paths:
        path.write_text("")
    session = time.strftime("%Y%m%dT%H%M%S")
    sets: list[list[dict]] = [[] for _ in checkouts]
    turn = 0
    for seed in range(1, runs + 1):
        for workload in WORKLOADS:
            order = list(range(len(checkouts)))
            if turn % 2:
                order.reverse()
            turn += 1
            for side in order:
                rec = run_once(checkouts[side], workload, seed, trace, session)
                with open(paths[side], "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
                sets[side].append(rec)
                print(f"{paths[side].stem} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in rec["result"]["metrics"].items()
                    if SPECS.get(k, {}).get("bound") is not None), flush=True)
    return sets


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def series(records: list[dict], workload: str, trace: int) -> dict[str, dict[int, float]]:
    """metric -> seed -> value, for one workload and trace flag; undefined values are left out."""
    out: dict[str, dict[int, float]] = {}
    for rec in records:
        if rec["workload"] == workload and rec["trace"] == trace:
            for name, m in rec["result"]["metrics"].items():
                if name not in rec["undefined"]:
                    out.setdefault(name, {})[rec["seed"]] = m["value"]
    return out


def error_rate(records: list[dict], workload: str) -> tuple[int, int]:
    mine = [r["result"] for r in records if r["workload"] == workload]
    return sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)


def summarize(records: list[dict]) -> int:
    failed_any = 0
    for workload in WORKLOADS:
        failed, attempted = error_rate(records, workload)
        if not attempted:
            continue
        failed_any += failed
        print(f"\n{workload}")
        for trace in (0, 1):
            for name, by_seed in series(records, workload, trace).items():
                q1, med, q3 = quartiles(list(by_seed.values()))
                print(f"  {name:36s} {med:14.6g} {SPECS[name]['unit']:6s} "
                      f"q1={q1:.6g} q3={q3:.6g} spread={spread((q1, med, q3)):.2%} n={len(by_seed)}")
        print(f"  {'error_rate':36s} {failed / attempted:14.6g} {'ratio':6s} ({failed}/{attempted})")
    return 1 if failed_any else 0


def spread(q: tuple[float, float, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def verdict(spec: dict, a: dict[int, float], b: dict[int, float], paired: bool) -> tuple[str, float, float]:
    """(verdict, change of the median as a worsening share, share of pairs the change won)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    pairs = [(a[s], b[s]) for s in sorted(a.keys() & b.keys())]
    won = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs) if pairs else 0.0
    lost = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs) if pairs else 0.0
    bound = spec.get("bound")
    if bound is None:
        return "", worse, won
    b_best = all(sign * (y - x) < 0 for x in a.values() for y in b.values())
    a_best = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
    if max(spread(qa), spread(qb)) > bound and not (a_best or b_best):
        return "unresolved", worse, won
    if worse > bound:
        return "WORSE", worse, won
    if abs(qb[1] - qa[1]) > qa[2] - qa[0] and max(won, lost) >= 0.9:
        if not paired:
            return "unpaired", worse, won
        return ("better" if won > lost else "slower"), worse, won
    return "same", worse, won


def compare(parent: list[dict], change: list[dict]) -> int:
    keys = [{(r["session"], r["workload"], r["seed"], r["trace"]) for r in side} for side in (parent, change)]
    paired = keys[0] == keys[1]
    if not paired:
        print("the two sets were not collected together by one `sets.py run`: no better/slower verdicts")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            sa, sb = series(parent, workload, trace), series(change, workload, trace)
            names = [n for n in sa if n in sb]
            if not names:
                continue
            print(f"\n{workload} ({'traced' if trace else 'end to end'}): parent median [q1, q3] -> change")
            for name in names:
                spec = SPECS[name]
                word, worse, won = verdict(spec, sa[name], sb[name], paired)
                qa, qb = quartiles(list(sa[name].values())), quartiles(list(sb[name].values()))
                bound = spec.get("bound")
                status |= word in ("WORSE", "unresolved")
                print(f"  {name:36s} {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> {qb[1]:.6g} [{qb[0]:.6g}, "
                      f"{qb[2]:.6g}] {spec['unit']}  spread {spread(qa):.1%}/{spread(qb):.1%}  "
                      f"worse by {worse:+.2%}  won {won:.0%}"
                      + (f"  bound {bound:.0%}  {word}" if bound is not None else ""))
        fa, aa = error_rate(parent, workload)
        fb, ab = error_rate(change, workload)
        if aa and ab:
            status |= bool(fa or fb)
            print(f"  {'error_rate':36s} {fa}/{aa} -> {fb}/{ab}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run every workload once per seed on one or two checkouts")
    p.add_argument("outdir", type=Path)
    p.add_argument("checkouts", type=Path, nargs="+", metavar="PARENT [CHANGE]")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare", help="compare a parent result set with a change result set")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        if len(args.checkouts) > 2:
            parser.error("run takes one or two checkouts")
        sets = collect(args.outdir, [c.resolve() for c in args.checkouts], args.runs, args.trace)
        status = 0
        for name, records in zip(("parent", "change"), sets):
            print(f"\n== {name} ==")
            status |= summarize(records)
        return status
    return compare(load(args.parent), load(args.change))


if __name__ == "__main__":
    sys.exit(main())
