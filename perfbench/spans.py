"""Spans around the public functions of the sqrw modules, for the traced run.

``install`` replaces each function in ``POINTS`` at the name its caller
binds (``sqrw.cli.step``, not ``sqrw.evolution.step``), so the program's
files stay untouched.  A span records its name, start, end and parent (the
span open when it started).  Spans stay in memory until ``summary`` folds
them into per-name lists of durations and self times; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


# (module, attribute, span name, note): ``note(*args)`` runs after a call that
# returned, outside the span, and its value is kept per span name.
POINTS = [
    ("sqrw.cli", "main", "cli.main", None),
    ("sqrw.cli", "parse_multiport", "cli.validate", None),
    ("sqrw.cli", "EvolutionConfig", "cli.validate", None),
    ("sqrw.cli", "SearchConfig", "cli.validate", None),
    ("sqrw.cli", "_write_rows", "cli.write", lambda path, *_: path),
    ("sqrw.cli", "hitting_ratio_table", "layers.hitting", None),
    ("sqrw.cli", "layer_distribution_series", "layers.series", None),
    ("sqrw.layers", "reduced_step", "layers.reduced_step", None),
    ("sqrw.layers", "layer_distribution", "layers.distribution", None),
    ("sqrw.cli", "detection_probability_series", "scattering.series", None),
    ("sqrw.scattering", "scatter_step", "scattering.scatter_step", lambda s, *_: s.tail_length),
    ("sqrw.multiport", "require_valid", "multiport.require_valid", None),
    ("sqrw.scattering", "require_valid", "multiport.require_valid", None),
    ("sqrw.evolution", "require_valid", "multiport.require_valid", None),
    ("sqrw.search", "require_valid", "multiport.require_valid", None),
    ("sqrw.cli", "block_matrix", "spectral.block_matrix", None),
    ("numpy.linalg", "eigvals", "spectral.eig", None),
    ("sqrw.cli", "operator_deviation", "circuit.operator_deviation", None),
    ("sqrw.circuit", "circuit_step", "circuit.circuit_step", None),
    ("sqrw.cli", "step", "evolution.step", lambda state, *_: state.shape[1]),
    ("sqrw.search", "step", "evolution.step", lambda state, *_: state.shape[1]),
    ("sqrw.evolution", "gather_incoming", "evolution.gather", None),
    ("sqrw.cli", "layer_distribution_full", "evolution.distribution", None),
    ("sqrw.cli", "initial_symmetric_state", "hypercube.init_state", None),
    ("sqrw.cli", "embed_layer_state", "hypercube.init_state", None),
    ("sqrw.search", "uniform_edge_state", "hypercube.init_state", None),
    ("sqrw.cli", "run_search", "search.run", None),
    ("sqrw.search", "success_probability", "search.success_probability", None),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.notes: dict[str, list] = {}
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        names, starts, ends, parents, opened = self.names, self.starts, self.ends, self.parents, self._open
        notes = self.notes.setdefault(name, []) if note else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(opened[-1] if opened else -1)
            ends.append(0)
            opened.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                opened.pop()
            if notes is not None:
                notes.append(note(*args, **kwargs))
            return result

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: durations and self times (ns), parent-name counts, notes."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        inner = [0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                inner[p] += dur[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, {"dur_ns": [], "self_ns": [], "parents": Counter()})
            rec["dur_ns"].append(dur[i])
            rec["self_ns"].append(dur[i] - inner[i])
            p = self.parents[i]
            rec["parents"][self.names[p] if p >= 0 else ""] += 1
        for name, values in self.notes.items():
            out.setdefault(name, {"dur_ns": [], "self_ns": [], "parents": Counter()})["notes"] = values
        if "cli.write" in out:
            out["cli.write"]["notes"] = [_rows_and_bytes(path) for path in out["cli.write"]["notes"]]
        return out


def _rows_and_bytes(path: str) -> list[int]:
    """Data rows (lines after the header) and bytes of a written CSV."""
    with open(path, "rb") as fh:
        data = fh.read()
    return [data.count(b"\n") - 1, len(data)]


def install() -> Tracer:
    tracer = Tracer()
    for module, attr, name, note in POINTS:
        tracer.wrap(importlib.import_module(module), attr, name, note)
    return tracer

