"""CLI: outputs, determinism, presets, exit codes."""

import math

import numpy as np
import pytest

from sqrw.cli import emit_plot_script, main, parse_multiport
from sqrw.errors import ValidationError
from sqrw.multiport import grover_coeffs
from sqrw.search import MAX_SEARCH_DIM


def run(args):
    return main([str(a) for a in args])


def test_parse_multiport_forms():
    c = parse_multiport("grover", 4)
    assert (c.r, c.t) == (-0.5 + 0j, 0.5 + 0j)
    c = parse_multiport("symmetric:p=1", 4)
    assert c.t == pytest.approx(0.25, abs=1e-15)
    c = parse_multiport("symmetric", 4)
    assert c.t == pytest.approx(0.25, abs=1e-15)
    c = parse_multiport("custom:0,0,1,0", 2)
    assert (c.r, c.t) == (0j, 1 + 0j)
    for bad in ("magic", "symmetric:q=1", "custom:1,2,3", "custom:a,b,c,d"):
        with pytest.raises(ValidationError):
            parse_multiport(bad, 3)


def test_layers_csv_shape_and_values(tmp_path):
    out = tmp_path / "lay.csv"
    assert run(["layers", "--dim", 6, "--steps", 4, "--init", "origin", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,w,probability"
    assert len(lines) == 1 + 5 * 7
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)


def test_layers_zero_steps_single_distribution(tmp_path):
    out = tmp_path / "lay0.csv"
    assert run(["layers", "--dim", 50, "--steps", 0, "--init", "origin", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 51
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_full_and_layers_agree(tmp_path):
    la, fu = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["layers", "--dim", 5, "--steps", 10, "--init", "origin", "--out", la]) == 0
    assert run(
        ["full", "--dim", 5, "--steps", 10, "--init", "origin-symmetric", "--out", fu]
    ) == 0
    a = np.loadtxt(la, delimiter=",", skiprows=1)
    b = np.loadtxt(fu, delimiter=",", skiprows=1)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_csv_determinism(tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    args = ["scatter", "--dim", 6, "--steps", 50, "--multiport", "symmetric:p=1"]
    assert run(args + ["--out", one]) == 0
    assert run(args + ["--out", two]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_scatter_cumulative_column(tmp_path):
    out = tmp_path / "det.csv"
    assert run(
        ["scatter", "--dim", 3, "--steps", 12, "--cumulative", "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,detection_probability,cumulative_probability"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(np.cumsum(rows[:, 1]), rows[:, 2], atol=1e-15)
    # light cone: nothing before step d + 1
    assert np.all(rows[: 3 + 1, 1] == 0)


def test_hitting_reference_row(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run(["hitting", "--dmax", 4, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[2, 0] == 4
    assert rows[2, 3] == pytest.approx(1.5, abs=1e-12)


def test_search_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "search.csv"
    assert run(
        ["search", "--dim", 6, "--marked", "001001", "--steps", 20, "--out", out]
    ) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("peak_step=")
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (21, 2)
    assert rows[0, 1] == pytest.approx(1 / 64, abs=1e-12)


def test_spectrum_rows(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--dim", 3, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k_bits,eigenvalue_re,eigenvalue_im"
    assert len(lines) == 1 + 3 * 8
    vals = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2))
    assert np.max(np.abs(np.hypot(vals[:, 0], vals[:, 1]) - 1.0)) <= 1e-10


def test_mz_prints_amplitude(tmp_path, capsys):
    gamma = tmp_path / "gamma.csv"
    d = 4
    gamma.write_text("".join(f"{1 / math.sqrt(d)},0\n" for _ in range(d)))
    assert run(["mz", "--dim", d, "--gamma", gamma]) == 0
    printed = capsys.readouterr().out.splitlines()
    got = {line.split("=")[0]: float(line.split("=")[1]) for line in printed}
    from sqrw.scattering import boundary_coeffs, interferometer_amplitude

    expected = interferometer_amplitude(
        d, np.full(d, 1 / math.sqrt(d)), grover_coeffs(d), boundary_coeffs(d)
    )
    assert got["amplitude_re"] == pytest.approx(expected.real, abs=1e-15)
    assert got["probability"] == pytest.approx(abs(expected) ** 2, abs=1e-15)


def test_verify_circuit_passes(capsys):
    assert run(["verify-circuit", "--dim", 4]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed


def test_repro_presets(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["repro", "fig2"]) == 0
    assert (tmp_path / "fig2.csv").read_text().splitlines()[0] == "d,p_c,p_q,ratio"
    out = tmp_path / "f3.csv"
    assert run(["repro", "fig3", "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (101 * 51, 3)
    assert run(["repro", "fig8"]) == 2  # schematic only, no data preset


def test_plot_scripts_compile(tmp_path):
    import py_compile

    la = tmp_path / "lay.csv"
    run(["layers", "--dim", 4, "--steps", 3, "--out", la])
    for kind in ("auto", "heatmap", "line"):
        script = tmp_path / f"plot_{kind}.py"
        emit_plot_script(str(la), str(script), kind)
        py_compile.compile(str(script), doraise=True)
    ratio = tmp_path / "ratio.csv"
    run(["hitting", "--dmax", 5, "--out", ratio])
    script = tmp_path / "plot_ratio.py"
    assert emit_plot_script(str(ratio), str(script)) == "ratio"
    py_compile.compile(str(script), doraise=True)


def test_plot_script_missing_csv(tmp_path):
    with pytest.raises(OSError):
        emit_plot_script(str(tmp_path / "nope.csv"), str(tmp_path / "p.py"))


def test_exit_codes(tmp_path, capsys):
    assert run(["layers", "--dim", 0, "--steps", 1, "--out", tmp_path / "x.csv"]) == 2
    assert run(["full", "--dim", 30, "--steps", 1, "--out", tmp_path / "x.csv"]) == 3
    assert (
        run(
            ["scatter", "--dim", 4, "--steps", 60, "--tail-length", 5, "--out", tmp_path / "x.csv"]
        )
        == 4
    )
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["layers", "--bogus"])
    assert exc.value.code == 2


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("command", ["layers", "full", "scatter"])
def test_negative_steps_exit_2(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert run([command, "--dim", 4, "--steps", -1, "--out", out]) == 2
    assert "step count" in _error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["layers", "--dim", 4, "--steps", 2],
        ["search", "--dim", 4, "--marked", "0110", "--steps", 2],
        ["repro", "fig3"],
    ],
)
def test_missing_output_directory_exit_2(tmp_path, capsys, args):
    assert run(args + ["--out", tmp_path / "missing" / "x.csv"]) == 2
    assert "No such file or directory" in _error_line(capsys)


def test_search_dim_cap_exit_2(tmp_path, capsys):
    d = MAX_SEARCH_DIM + 1
    args = ["search", "--dim", d, "--marked", "0" * d, "--steps", 1, "--out", tmp_path / "x.csv"]
    assert run(args) == 2
    assert str(MAX_SEARCH_DIM) in _error_line(capsys)


def test_search_runs_past_the_full_state_memory_budget(tmp_path, capsys):
    # d = 40 would need a 2**40-vertex full state; the layer search needs O(d)
    out = tmp_path / "s.csv"
    assert run(["search", "--dim", 40, "--marked", "1" * 40, "--steps", 4096, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (4097, 2)
    assert rows[0, 1] == pytest.approx(2.0**-40, rel=1e-12)
    assert capsys.readouterr().out.startswith("peak_step=")
