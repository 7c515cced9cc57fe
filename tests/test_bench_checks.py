"""The benchmark's own output checks, run on the commands it runs.

``perfbench/workloads.py`` lists each workload's sqrw commands and an
oracle check per command.  Here every ``paper_cli`` and ``marked_search``
command runs through ``sqrw.cli.main`` in a temporary directory, and its
check must pass; ``full_walk``'s check runs on a d = 6 walk instead of its
d = 20 one.  So a library change that the benchmark would reject fails the
suite first.  The file is only loaded; nothing in it is changed.  The
``paper_cli`` commands also run once with ``sqrw.scattering.scatter_step``
made to raise, because the tracer's note on that span reads a field the
layer state no longer has.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sqrw
from sqrw.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up while it executes
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the commands name their outputs relative to the working directory


@pytest.mark.parametrize("workload", ["paper_cli", "marked_search"])
def test_workload_checks_pass(workload, tmp_path, capsys):
    for cmd in workloads.commands(workload, seed=0):
        code = main(list(cmd.argv))
        assert workloads.check(cmd, tmp_path, code, capsys.readouterr().out) is None, cmd.argv


def test_full_check_passes_at_small_dimension(tmp_path):
    assert main(["full", "--dim", "6", "--steps", "4", "--out", "full.csv"]) == 0
    assert workloads._check_full(6, 4)(tmp_path / "full.csv", "") is None


def test_paper_cli_never_calls_scatter_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("scatter_step was called")

    monkeypatch.setattr(sqrw.scattering, "scatter_step", refuse)
    monkeypatch.setattr(sqrw, "scatter_step", refuse)
    tailed = ("scatter", "--dim", "10", "--steps", "400", "--cumulative", "--out", "t.csv")
    for argv in [cmd.argv for cmd in workloads.commands("paper_cli", seed=0)] + [tailed]:
        assert main(list(argv)) == 0, argv
