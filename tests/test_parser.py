"""The one-subcommand parser of ``main`` says what the full parser says.

``main`` builds only the subcommand its first argument names (``repro``
adds its preset's command when it runs).  Help, usage and error text must
be the bytes of the parser with all ten subcommands.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_goldens import SEARCH_GOLDENS

import sqrw
from sqrw.cli import _COMMANDS, _build_parser, main


def _full(argv, capsys):
    """Exit code, stdout and stderr of parsing ``argv`` with all ten subcommands."""
    with pytest.raises(SystemExit) as stop:
        _build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return stop.value.code, out, err


def _main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_subcommand_help_is_the_full_parsers(capsys, name):
    want = _full([name, "-h"], capsys)
    assert want[0] == 0 and want[1].startswith(f"usage: sqrw {name} ")
    assert _main([name, "-h"], capsys) == want


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_missing_required_flag_error_is_the_full_parsers(capsys, name):
    want = _full([name], capsys)
    assert want[0] == 2 and "the following arguments are required" in want[2]
    assert _main([name], capsys) == want


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h", "search"],
        ["bogus"],
        ["search", "--dim", "3", "--marked", "000", "--steps", "2", "--out", "x.csv", "--bogus"],
        ["repro", "fig3", "--bogus"],
    ],
    ids=["none", "help", "help-then-command", "unknown-command", "search-unrecognized", "repro-unrecognized"],
)
def test_top_level_text_is_the_full_parsers(capsys, argv):
    assert _main(argv, capsys) == _full(argv, capsys)


def test_help_and_usage_bytes(monkeypatch, capsys):
    # recorded from the parser that built all ten subcommands on every run
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    text = []
    for argv in [["--help"], []] + [[name, "-h"] for name in _COMMANDS] + [[name] for name in _COMMANDS]:
        code, out, err = _main(argv, capsys)
        text.append(f"{out}{err}exit {code}\n")
    digest = hashlib.sha256("".join(text).encode()).hexdigest()
    assert digest == "286a79d6204eecddecf804012e3dbd034e5a7b66793357492dda431ed4f58531"


def test_command_errors_name_the_argument_command(capsys):
    # argparse names the subcommand argument by its metavar when it has one
    assert _main([], capsys)[2].endswith("sqrw: error: the following arguments are required: command\n")
    assert "sqrw: error: argument command: invalid choice: 'bogus'" in _main(["bogus"], capsys)[2]


def test_repro_reports_its_presets_flags_as_that_command(tmp_path, capsys):
    # fig3 runs ``layers``, which has no --cumulative: its parser says so, as before
    code, out, err = _main(["repro", "fig3", "--cumulative", "--out", str(tmp_path / "f.csv")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: sqrw layers ")
    assert err.endswith("sqrw layers: error: unrecognized arguments: --cumulative\n")


def test_module_entry_reads_sys_argv(tmp_path):
    flags, csv_hash, stdout = SEARCH_GOLDENS[1]
    env = dict(os.environ, PYTHONPATH=str(Path(sqrw.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "sqrw.cli", "search", *flags, "--out", "s.csv"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == csv_hash
