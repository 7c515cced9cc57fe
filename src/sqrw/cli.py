"""Command line frontend: walk runs, CSV emission, and plot-script generation.

Every subcommand is deterministic: the same flags produce byte-identical
CSV.  Reals are written with 17 significant digits, UTF-8, LF line endings.

Exit codes: 0 success, 1 failed verification, 2 bad flags, invalid
parameters or a file that cannot be read or written, 3 memory budget
exceeded, 4 tail truncation reached.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .circuit import operator_deviation
from .errors import MemoryCapError, TruncationError, ValidationError
from .evolution import EvolutionConfig, _full_kernel, layer_distribution_full
from .evolution import step  # noqa: F401  (perfbench/spans.py wraps sqrw.cli.step)
from .hypercube import embed_layer_state, ensure_full_state_fits, initial_symmetric_state, parse_vertex
from .layers import (
    MAX_LAYER_DIM,
    corner_pair_state,
    hitting_ratio_table,
    layer_distribution_series,
    middle_state,
    origin_state,
)
from .multiport import (
    MultiportCoeffs,
    custom_coeffs,
    grover_coeffs,
    symmetric_coeffs,
)
from .scattering import boundary_coeffs, detection_probability_series, interferometer_amplitude
from .search import SearchConfig, run_search
from .spectral import block_matrix  # noqa: F401  (perfbench/spans.py wraps it)
from .spectral import weight_class_spectra

__all__ = ["main", "cli_entry", "parse_multiport", "emit_plot_script"]

_FIG_PRESETS: dict[str, dict] = {
    "fig2": {"kind": "hitting", "dmax": 30},
    "fig3": {"kind": "layers", "dim": 50, "steps": 100, "init": "origin", "multiport": "grover"},
    "fig4": {"kind": "layers", "dim": 50, "steps": 250, "init": "corners", "multiport": "symmetric:p=1"},
    "fig5": {"kind": "layers", "dim": 50, "steps": 250, "init": "middle", "multiport": "symmetric:p=1"},
    "fig6": {"kind": "layers", "dim": 50, "steps": 250, "init": "corners", "multiport": "grover"},
    "fig7": {"kind": "layers", "dim": 50, "steps": 250, "init": "middle", "multiport": "grover"},
    "fig9": {"kind": "scatter", "dim": 10, "steps": 400, "multiport": "symmetric:p=1"},
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_multiport(spec: str, d: int) -> MultiportCoeffs:
    """Parse ``grover``, ``symmetric:p=<real>``, or ``custom:<re_r>,<im_r>,<re_t>,<im_t>``."""
    if spec == "grover":
        return grover_coeffs(d)
    if spec.startswith("symmetric"):
        p = 1.0
        if ":" in spec:
            _, _, arg = spec.partition(":")
            if not arg.startswith("p="):
                raise ValidationError(f"symmetric multiport takes p=<real>, got {arg!r}")
            try:
                p = float(arg[2:])
            except ValueError as exc:
                raise ValidationError(f"bad symmetric exponent {arg[2:]!r}") from exc
        return symmetric_coeffs(d, p)
    if spec.startswith("custom:"):
        parts = spec[len("custom:") :].split(",")
        if len(parts) != 4:
            raise ValidationError(
                "custom multiport takes four reals: custom:<re_r>,<im_r>,<re_t>,<im_t>"
            )
        try:
            re_r, im_r, re_t, im_t = (float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"bad custom multiport spec {spec!r}") from exc
        return custom_coeffs(complex(re_r, im_r), complex(re_t, im_t), d)
    raise ValidationError(f"unknown multiport spec {spec!r}")


def _layer_init(name: str, d: int):
    if name == "origin":
        return origin_state(d)
    if name == "corners":
        return corner_pair_state(d)
    if name == "middle":
        return middle_state(d)
    raise ValidationError(f"unknown initial state {name!r}")


def _write_rows(path: str, header: str, rows: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _surface_rows(series: np.ndarray) -> Iterable[str]:
    for n in range(series.shape[0]):
        for w in range(series.shape[1]):
            yield f"{n},{w},{_fmt(series[n, w])}"


def _cmd_layers(args: argparse.Namespace) -> int:
    if args.dim > MAX_LAYER_DIM:
        raise ValidationError(f"layers dimension must be at most {MAX_LAYER_DIM} (got {args.dim})")
    c = parse_multiport(args.multiport, args.dim)
    init = _layer_init(args.init, args.dim)
    series = layer_distribution_series(args.dim, c, init, args.steps)
    _write_rows(args.out, "step,w,probability", _surface_rows(series))
    return 0


def _cmd_full(args: argparse.Namespace) -> int:
    c = parse_multiport(args.multiport, args.dim)
    cfg = EvolutionConfig(args.dim, c)
    if args.init == "origin-symmetric":
        state = initial_symmetric_state(args.dim)
    else:
        state = embed_layer_state(_layer_init(args.init, args.dim))
    # direction-major (d, 2**d); the constructors already store it so, no copy
    psi = np.ascontiguousarray(state.T)
    buf = np.empty((2, 1 << args.dim), dtype=np.complex128)
    series = np.empty((args.steps + 1, args.dim + 1))
    series[0] = layer_distribution_full(psi.T)
    for n in range(1, args.steps + 1):
        _full_kernel(psi, cfg, buf)
        series[n] = layer_distribution_full(psi.T)
    _write_rows(args.out, "step,w,probability", _surface_rows(series))
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    c = parse_multiport(args.multiport, args.dim)
    b = boundary_coeffs(args.dim)
    series = detection_probability_series(
        args.dim, c, b, n_max=args.steps, tail_length=args.tail_length
    )
    if args.cumulative:
        cum = np.cumsum(series)
        rows = (
            f"{n},{_fmt(series[n])},{_fmt(cum[n])}" for n in range(len(series))
        )
        _write_rows(args.out, "step,detection_probability,cumulative_probability", rows)
    else:
        rows = (f"{n},{_fmt(series[n])}" for n in range(len(series)))
        _write_rows(args.out, "step,detection_probability", rows)
    return 0


def _cmd_mz(args: argparse.Namespace) -> int:
    gamma: list[complex] = []
    with open(args.gamma, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) > 2:
                raise ValidationError(f"gamma rows must be 're' or 're,im', got {line!r}")
            try:
                gamma.append(complex(*(float(p) for p in parts)))
            except ValueError as exc:
                raise ValidationError(f"gamma row {line!r} is not 're' or 're,im' reals") from exc
    if len(gamma) != args.dim:
        raise ValidationError(f"gamma file has {len(gamma)} entries, need {args.dim}")
    c = parse_multiport(args.multiport, args.dim)
    amp = interferometer_amplitude(args.dim, np.array(gamma), c)
    print(f"amplitude_re={_fmt(amp.real)}")
    print(f"amplitude_im={_fmt(amp.imag)}")
    print(f"probability={_fmt(abs(amp) ** 2)}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    marked = parse_vertex(args.dim, args.marked)
    c = parse_multiport(args.multiport, args.dim)
    cfg = SearchConfig(
        dim=args.dim, marked=marked, steps=args.steps, coeffs=c, metric=args.metric
    )
    result = run_search(cfg)
    rows = (f"{n},{_fmt(result.probabilities[n])}" for n in range(len(result.probabilities)))
    _write_rows(args.out, "step,success_probability", rows)
    print(f"peak_step={result.peak_step} peak_probability={_fmt(result.peak_probability)}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    d = args.dim
    # one row per full-state amplitude, so the full-state budget bounds the CSV
    ensure_full_state_fits(d)
    c = parse_multiport(args.multiport, d)
    # blocks with the same momentum weight share one spectrum; format each once
    cached = [
        [f",{_fmt(v.real)},{_fmt(v.imag)}" for v in vals] for vals in weight_class_spectra(c)
    ]

    def rows():
        for k in range(1 << d):
            bits = format(k, f"0{d}b")
            yield "\n".join([bits + tail for tail in cached[k.bit_count()]])

    _write_rows(args.out, "k_bits,eigenvalue_re,eigenvalue_im", rows())
    return 0


def _cmd_hitting(args: argparse.Namespace) -> int:
    table = hitting_ratio_table(args.dmax)
    rows = (
        f"{int(row[0])},{_fmt(row[1])},{_fmt(row[2])},{_fmt(row[3])}" for row in table
    )
    _write_rows(args.out, "d,p_c,p_q,ratio", rows)
    return 0


def _cmd_verify_circuit(args: argparse.Namespace) -> int:
    c = parse_multiport(args.multiport, args.dim)
    dev = operator_deviation(args.dim, c)
    passed = dev <= 1e-12
    print(f"max_operator_deviation={_fmt(dev)}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _cmd_repro(args: argparse.Namespace) -> int:
    preset = _FIG_PRESETS.get(args.name)
    if preset is None:
        known = ", ".join(sorted(_FIG_PRESETS))
        raise ValidationError(f"unknown preset {args.name!r} (choose from: {known})")
    out = args.out or f"{args.name}.csv"
    kind = preset["kind"]
    if kind == "hitting":
        ns = argparse.Namespace(dmax=preset["dmax"], out=out)
        return _cmd_hitting(ns)
    if kind == "layers":
        ns = argparse.Namespace(
            dim=preset["dim"],
            steps=preset["steps"],
            init=preset["init"],
            multiport=preset["multiport"],
            out=out,
        )
        return _cmd_layers(ns)
    ns = argparse.Namespace(
        dim=preset["dim"],
        steps=preset["steps"],
        multiport=preset["multiport"],
        tail_length=None,
        cumulative=args.cumulative,
        out=out,
    )
    return _cmd_scatter(ns)


_PLOT_TEMPLATE = '''"""Generated plot script; reads {csv!r} and draws a {kind}."""

import csv
import sys

import matplotlib.pyplot as plt


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


header, rows = read_rows({csv!r})
{body}
if "--save" in sys.argv[1:]:
    plt.savefig({png!r}, dpi=150)
else:
    plt.show()
'''

_HEATMAP_BODY = """steps = sorted({int(r[0]) for r in rows})
layers = sorted({int(r[1]) for r in rows})
grid = [[0.0] * len(layers) for _ in steps]
for r in rows:
    grid[int(r[0])][int(r[1])] = r[2]
plt.imshow(grid, aspect="auto", origin="lower", interpolation="nearest")
plt.colorbar(label=header[2])
plt.xlabel(header[1])
plt.ylabel(header[0])
"""

_LINE_BODY = """xs = [r[0] for r in rows]
for col in range(1, len(header)):
    plt.plot(xs, [r[col] for r in rows], label=header[col])
plt.xlabel(header[0])
plt.legend()
"""

_RATIO_BODY = """xs = [r[0] for r in rows]
plt.plot(xs, [r[3] for r in rows], marker="o", label=header[3])
if "--log" in sys.argv[1:]:
    plt.yscale("log")
plt.xlabel(header[0])
plt.legend()
"""


def emit_plot_script(csv_path: str, out_path: str, kind: str = "auto") -> str:
    """Write a matplotlib script that renders ``csv_path``; returns the kind used.

    Kinds: ``heatmap`` (step,w,probability surfaces), ``line`` (step series),
    ``ratio`` (hitting table, with a --log flag in the generated script), or
    ``auto`` to pick from the CSV header.
    """
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if kind == "auto":
        if header == "step,w,probability":
            kind = "heatmap"
        elif header == "d,p_c,p_q,ratio":
            kind = "ratio"
        else:
            kind = "line"
    bodies = {"heatmap": _HEATMAP_BODY, "line": _LINE_BODY, "ratio": _RATIO_BODY}
    if kind not in bodies:
        raise ValidationError(f"unknown plot kind {kind!r}")
    png = out_path.rsplit(".", 1)[0] + ".png"
    script = _PLOT_TEMPLATE.format(csv=csv_path, kind=kind, body=bodies[kind], png=png)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
    return kind


def _cmd_plot_script(args: argparse.Namespace) -> int:
    kind = emit_plot_script(args.csv, args.out, args.kind)
    print(f"wrote {args.out} ({kind})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqrw",
        description="Scattering quantum walk on the hypercube: simulations and CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_multiport(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--multiport",
            default="grover",
            help="grover | symmetric:p=<real> | custom:<re_r>,<im_r>,<re_t>,<im_t>",
        )

    p = sub.add_parser("layers", help="layer-reduced walk, rows step,w,probability")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--init", default="origin", choices=["origin", "corners", "middle"])
    add_multiport(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_layers)

    p = sub.add_parser("full", help="full edge-state walk, rows step,w,probability")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--init",
        default="origin-symmetric",
        choices=["origin-symmetric", "origin", "corners", "middle"],
    )
    add_multiport(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_full)

    p = sub.add_parser("scatter", help="tail-to-tail detection series")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--tail-length", type=int, default=None, dest="tail_length")
    p.add_argument("--cumulative", action="store_true", help="add a running-sum column")
    add_multiport(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("mz", help="interferometer amplitude for a direction-amplitude file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gamma", required=True, help="file with one 're' or 're,im' row per direction")
    add_multiport(p)
    p.set_defaults(func=_cmd_mz)

    p = sub.add_parser("search", help="marked-vertex walk, rows step,success_probability")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--marked", required=True, help="marked vertex as a bit string")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--metric", default="out", choices=["out", "in"])
    add_multiport(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("spectrum", help="block spectra, rows k_bits,eigenvalue_re,eigenvalue_im")
    p.add_argument("--dim", type=int, required=True)
    add_multiport(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("hitting", help="corner-to-corner comparison, rows d,p_c,p_q,ratio")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hitting)

    p = sub.add_parser("verify-circuit", help="gate cascade vs scattering step deviation")
    p.add_argument("--dim", type=int, required=True)
    add_multiport(p)
    p.set_defaults(func=_cmd_verify_circuit)

    p = sub.add_parser("repro", help="named parameter presets (fig2..fig7, fig9)")
    p.add_argument("name")
    p.add_argument("--out", default=None)
    p.add_argument("--cumulative", action="store_true")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser("plot-script", help="generate a matplotlib script for a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--kind", default="auto", choices=["auto", "heatmap", "line", "ratio"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot_script)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "steps", 0) < 0:
            raise ValidationError(f"step count must be >= 0 (got {args.steps})")
        # fail before the computation, not when the CSV is opened after it
        out_dir = os.path.dirname(getattr(args, "out", None) or "") or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def cli_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
