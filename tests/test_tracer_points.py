"""Every wrap point of the benchmark tracer still names an attribute of sqrw.

``perfbench/spans.py`` looks each ``(module, attribute)`` of ``POINTS`` up
with ``getattr``, so ``run.py --trace 1`` fails on a name the library no
longer binds.  The file is only loaded here; nothing is wrapped.

Its ``cli.write`` span wraps ``sqrw.cli._write_rows`` and reads the CSV
path from its first argument, so each CSV command must write its header
and all its rows inside one call of it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sqrw import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.POINTS]


@pytest.mark.parametrize("module,attr", _points())
def test_tracer_point_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


CSV_COMMANDS = {
    "layers": ["layers", "--dim", "6", "--steps", "700"],
    "full": ["full", "--dim", "4", "--steps", "30"],
    "scatter": ["scatter", "--dim", "6", "--steps", "40"],
    "scatter-cumulative": ["scatter", "--dim", "6", "--steps", "40", "--cumulative"],
    "search": ["search", "--dim", "6", "--marked", "010011", "--steps", "30"],
    "hitting": ["hitting", "--dmax", "12"],
    "spectrum": ["spectrum", "--dim", "9"],
}


@pytest.mark.parametrize("argv", CSV_COMMANDS.values(), ids=CSV_COMMANDS)
def test_csv_is_written_in_one_writer_call(tmp_path, monkeypatch, capsys, argv):
    out = tmp_path / "out.csv"
    write_rows = cli._write_rows
    calls = []

    def counting(path, *args):
        assert not out.exists()
        write_rows(path, *args)
        calls.append((path, out.read_bytes()))

    monkeypatch.setattr(cli, "_write_rows", counting)
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert [path for path, _ in calls] == [str(out)]
    text = calls[0][1]
    assert text == out.read_bytes()
    assert text.endswith(b"\n") and text.count(b"\n") > 1
