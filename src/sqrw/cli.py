"""Command line frontend: walk runs, CSV emission, and plot-script generation.

Every subcommand is deterministic: the same flags produce byte-identical
CSV.  Reals are written with 17 significant digits, UTF-8, LF line endings.
Rows go out 4,096 at a time, one ``%`` call each; ``%.17g`` writes the bytes of ``format(x, ".17g")``.

Exit codes: 0 success, 1 failed verification, 2 bad flags, invalid
parameters or a file that cannot be read or written, 3 memory budget
exceeded or a request too large to allocate.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from typing import Collection, Iterator, Sequence

import numpy as np

from .circuit import operator_deviation
from .errors import MemoryCapError, ValidationError
from .evolution import EvolutionConfig, _full_walk
from .evolution import layer_distribution_full  # noqa: F401  (perfbench/spans.py wraps sqrw.cli.layer_distribution_full)
from .evolution import step  # noqa: F401  (perfbench/spans.py wraps sqrw.cli.step)
from .hypercube import _written_blocks, embed_layer_state, ensure_full_state_fits, parse_vertex
from .hypercube import initial_symmetric_state  # noqa: F401  (perfbench/spans.py wraps sqrw.cli.initial_symmetric_state)
from .layers import (
    _abs2,
    _require_layer_dim,
    corner_pair_state,
    hitting_ratio_table,
    layer_distribution_series,
    middle_state,
    origin_state,
)
from .multiport import (
    MultiportCoeffs,
    grover_coeffs,
    symmetric_coeffs,
)
from .scattering import detection_probability_series, interferometer_amplitude
from .search import SearchConfig, run_search
from .spectral import block_matrix  # noqa: F401  (perfbench/spans.py wraps it)
from .spectral import weight_class_spectra

__all__ = ["main", "cli_entry", "parse_multiport", "emit_plot_script"]
_CHUNK_ROWS = 4096  # rows per ``%`` call and write, so the writer's memory is O(chunk) for any run

# each preset is the argv of its subcommand, parsed by that subcommand's parser
_FIG_PRESETS: dict[str, tuple[str, ...]] = {
    "fig2": ("hitting", "--dmax", "30"),
    "fig3": ("layers", "--dim", "50", "--steps", "100", "--init", "origin", "--multiport", "grover"),
    "fig4": ("layers", "--dim", "50", "--steps", "250", "--init", "corners", "--multiport", "symmetric:p=1"),
    "fig5": ("layers", "--dim", "50", "--steps", "250", "--init", "middle", "--multiport", "symmetric:p=1"),
    "fig6": ("layers", "--dim", "50", "--steps", "250", "--init", "corners", "--multiport", "grover"),
    "fig7": ("layers", "--dim", "50", "--steps", "250", "--init", "middle", "--multiport", "grover"),
    "fig9": ("scatter", "--dim", "10", "--steps", "400", "--multiport", "symmetric:p=1"),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_multiport(spec: str, d: int) -> MultiportCoeffs:
    """Parse ``grover``, ``symmetric`` (p = 1), ``symmetric:p=<real>``, or ``custom:<re_r>,<im_r>,<re_t>,<im_t>``."""
    if spec == "grover":
        return grover_coeffs(d)
    name, colon, arg = spec.partition(":")
    if name == "symmetric":
        p = 1.0
        if colon:
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
        return MultiportCoeffs(complex(re_r, im_r), complex(re_t, im_t), d)
    raise ValidationError(f"unknown multiport spec {spec!r}")


def _write_rows(path: str, header: str, chunks: Iterator[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)  # each chunk is formatted here, as it is written


def _table(*columns: np.ndarray, width: int = 1, first: int = 0) -> Iterator[str]:
    """Rows ``first + i, columns[:][i]``, or with width > 1 ``first + i // width, i % width, columns[:][i]``."""
    k = 1 + (width > 1)  # index columns, then the reals
    m, n = k + len(columns), len(columns[0])
    row = ",".join(["%d"] * k + ["%.17g"] * len(columns)) + "\n"
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        flat = [0] * ((hi - lo) * m)
        if width == 1:
            flat[0::m] = range(first + lo, first + hi)
        else:
            steps, layers = divmod(np.arange(lo, hi), width)
            flat[0::m], flat[1::m] = (steps + first).tolist(), layers.tolist()
        for j, col in enumerate(columns, k):
            flat[j::m] = col[lo:hi].tolist()
        yield (row * (hi - lo)) % tuple(flat)


def _cmd_layers(args: argparse.Namespace) -> int:
    _require_layer_dim(args.dim)  # before any start state of 2d + 4 entries is built
    c = parse_multiport(args.multiport, args.dim)
    init = _LAYER_INITS[args.init](args.dim)
    series = layer_distribution_series(args.dim, c, init, args.steps)
    _write_rows(args.out, "step,w,probability", _table(series.ravel(), width=args.dim + 1))
    return 0


def _cmd_full(args: argparse.Namespace) -> int:
    # d state rows plus four, all complex whatever the coin so admission does not depend on it; the
    # four are slack over the 2**14-vertex blocks of the embedding, which only writes, and of the
    # walk, which reads every step, step 0 included
    ensure_full_state_fits(args.dim, columns=args.dim + 4)
    c = parse_multiport(args.multiport, args.dim)
    cfg = EvolutionConfig(args.dim, c)
    # every init is real, so real coefficients keep the walk real: half the bytes
    dtype = np.complex128 if c.r.imag or c.t.imag else np.float64
    series = np.empty((args.steps + 1, args.dim + 1))
    start = _FULL_INITS[args.init](args.dim)
    state = embed_layer_state(start, dtype)
    # only the blocks the embedding wrote hold a nonzero bit: the walk reads step 0 from them and steps out
    _full_walk(state, cfg, args.steps, series, _written_blocks(start, dtype)[1])
    _write_rows(args.out, "step,w,probability", _table(series.ravel(), width=args.dim + 1))
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    c = parse_multiport(args.multiport, args.dim)
    series = detection_probability_series(args.dim, c, n_max=args.steps)
    columns = [series, np.cumsum(series)] if args.cumulative else [series]
    header = "step,detection_probability" + (",cumulative_probability" if args.cumulative else "")
    _write_rows(args.out, header, _table(*columns))
    return 0


@contextmanager
def _utf8_input(flag: str, path: str) -> Iterator[None]:
    """Name the flag and the file when reading it finds bytes that are not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{flag} {path}: not UTF-8 text: {exc}") from None


def _cmd_mz(args: argparse.Namespace) -> int:
    gamma: list[complex] = []
    with _utf8_input("--gamma", args.gamma), open(args.gamma, "r", encoding="utf-8") as fh:
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
    print(f"probability={_fmt(_abs2(amp))}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    marked = parse_vertex(args.dim, args.marked)
    c = parse_multiport(args.multiport, args.dim)
    cfg = SearchConfig(
        dim=args.dim, marked=marked, steps=args.steps, coeffs=c, metric=args.metric
    )
    series = run_search(cfg)
    _write_rows(args.out, "step,success_probability", _table(series))
    peak = int(np.argmax(series))
    print(f"peak_step={peak} peak_probability={_fmt(series[peak])}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    d = args.dim
    # one row per full-state amplitude, so the full-state budget bounds the CSV
    ensure_full_state_fits(d)
    c = parse_multiport(args.multiport, d)
    # blocks with the same momentum weight share one spectrum: format it once, as the pieces
    # that block k's bit string joins into its d rows
    spectra = weight_class_spectra(c)
    pieces = [["", *(",%.17g,%.17g\n" % (z.real, z.imag) for z in vals.tolist())] for vals in spectra]
    per = _CHUNK_ROWS // d  # blocks per chunk
    chunks = ("".join([format(k, f"0{d}b").join(pieces[k.bit_count()]) for k in range(lo, min(lo + per, 1 << d))])
              for lo in range(0, 1 << d, per))
    _write_rows(args.out, "k_bits,eigenvalue_re,eigenvalue_im", chunks)
    return 0


def _cmd_hitting(args: argparse.Namespace) -> int:
    table = hitting_ratio_table(args.dmax)  # rows (d, p_c, p_q, ratio) for d = 2..dmax
    _write_rows(args.out, "d,p_c,p_q,ratio", _table(*table[:, 1:].T, first=2))
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
    command, *argv = preset
    argv += ["--out", args.out or f"{args.name}.csv"]
    if args.cumulative:
        argv.append("--cumulative")
    parser = args.sub.choices.get(command) or _add_command(args.sub, command)
    ns = parser.parse_args(argv)
    return ns.func(ns)


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
    png = os.path.splitext(out_path)[0] + ".png"
    script = _PLOT_TEMPLATE.format(csv=csv_path, kind=kind, body=bodies[kind], png=png)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
    return kind


def _cmd_plot_script(args: argparse.Namespace) -> int:
    with _utf8_input("--csv", args.csv):
        kind = emit_plot_script(args.csv, args.out, args.kind)
    print(f"wrote {args.out} ({kind})")
    return 0


_DIM = ("--dim", dict(type=int, required=True))
_STEPS = ("--steps", dict(type=int, required=True))
_OUT = ("--out", dict(required=True))
_MULTIPORT_HELP = "grover | symmetric:p=<real> | custom:<re_r>,<im_r>,<re_t>,<im_t>"
_MULTIPORT = ("--multiport", dict(default="grover", help=_MULTIPORT_HELP))
_LAYER_INITS = {"origin": origin_state, "corners": corner_pair_state, "middle": middle_state}
_INIT = ("--init", dict(default="origin", choices=list(_LAYER_INITS)))
_FULL_INITS = {"origin-symmetric": origin_state, **_LAYER_INITS}
_FULL_INIT = ("--init", dict(default="origin-symmetric", choices=list(_FULL_INITS)))
_ADD_CUMULATIVE = ("--cumulative", dict(action="store_true", help="add a running-sum column"))
_PASS_CUMULATIVE = ("--cumulative", dict(action="store_true", help="passed on to the preset's command"))
_GAMMA = ("--gamma", dict(required=True, help="file with one 're' or 're,im' row per direction"))
_MARKED = ("--marked", dict(required=True, help="marked vertex as a bit string"))
_KIND = ("--kind", dict(default="auto", choices=["auto", "heatmap", "line", "ratio"]))

# name -> (help, handler, arguments as (flag, add_argument keywords) in usage order)
_COMMANDS = {
    "layers": ("layer-reduced walk, rows step,w,probability", _cmd_layers, [_DIM, _STEPS, _INIT, _MULTIPORT, _OUT]),
    "full": (
        "full edge-state walk, rows step,w,probability",
        _cmd_full,
        [_DIM, _STEPS, _FULL_INIT, _MULTIPORT, _OUT],
    ),
    "scatter": ("tail-to-tail detection series", _cmd_scatter, [_DIM, _STEPS, _ADD_CUMULATIVE, _MULTIPORT, _OUT]),
    "mz": ("interferometer amplitude for a direction-amplitude file", _cmd_mz, [_DIM, _GAMMA, _MULTIPORT]),
    "search": (
        "marked-vertex walk, rows step,success_probability",
        _cmd_search,
        [_DIM, _MARKED, _STEPS, ("--metric", dict(default="out", choices=["out", "in"])), _MULTIPORT, _OUT],
    ),
    "spectrum": (
        "block spectra, rows k_bits,eigenvalue_re,eigenvalue_im",
        _cmd_spectrum,
        [_DIM, _MULTIPORT, _OUT],
    ),
    "hitting": (
        "corner-to-corner comparison, rows d,p_c,p_q,ratio",
        _cmd_hitting,
        [("--dmax", dict(type=int, required=True)), _OUT],
    ),
    "verify-circuit": ("gate cascade vs scattering step deviation", _cmd_verify_circuit, [_DIM, _MULTIPORT]),
    "repro": (
        "named parameter presets (fig2..fig7, fig9)",
        _cmd_repro,
        [("name", {}), ("--out", dict(default=None)), _PASS_CUMULATIVE],
    ),
    "plot-script": (
        "generate a matplotlib script for a CSV",
        _cmd_plot_script,
        [("--csv", dict(required=True)), _KIND, _OUT],
    ),
}


def _add_command(sub: argparse._SubParsersAction, name: str) -> argparse.ArgumentParser:
    help_text, func, arguments = _COMMANDS[name]
    p = sub.add_parser(name, help=help_text)
    for flag, kwargs in arguments:
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func, sub=sub)  # repro adds its preset's command to sub
    return p


def _build_parser(names: Collection[str] = _COMMANDS) -> argparse.ArgumentParser:
    """The ``sqrw`` parser with the subcommands ``names``; its usage line names all ten."""
    parser = argparse.ArgumentParser(
        prog="sqrw",
        description="Scattering quantum walk on the hypercube: simulations and CSV output.",
    )
    # all ten leave it unset, so a missing or unknown command is reported as ``command``
    metavar = None if set(names) == set(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _add_command(sub, name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the named subcommand: most of the parser's cost is the other nine
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "steps", 0) < 0:
            raise ValidationError(f"step count must be >= 0 (got {args.steps})")
        # fail before the computation, not when the CSV is opened after it
        out = getattr(args, "out", None) or ""
        out_dir = os.path.dirname(out) or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryCapError, MemoryError) as exc:
        # a request too large to allocate ends like one over the budget
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def cli_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
