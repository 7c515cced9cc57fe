"""CLI: outputs, determinism, presets, exit codes."""

import errno
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import per_block_spectra
from oracles import spectrum_mismatch

import sqrw.circuit
import sqrw.cli
from sqrw.cli import emit_plot_script, main, parse_multiport
from sqrw.errors import ValidationError
from sqrw.hypercube import MEMORY_ENV_VAR
from sqrw.layers import MAX_HITTING_DIM, MAX_LAYER_DIM
from sqrw.multiport import grover_coeffs, multiport_matrix


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
    for bad in ("magic", "symmetric:q=1", "symmetric_p=3", "symmetricfoo", "custom:1,2,3", "custom:a,b,c,d"):
        with pytest.raises(ValidationError):
            parse_multiport(bad, 3)


def test_a_spec_that_only_begins_with_symmetric_exits_2(tmp_path, capsys):
    # such a spec once ran silently as p = 1
    out = tmp_path / "x.csv"
    assert run(["layers", "--dim", 4, "--steps", 2, "--multiport", "symmetric_p=3", "--out", out]) == 2
    assert "unknown multiport spec 'symmetric_p=3'" in _error_line(capsys)
    assert not out.exists()


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


@pytest.mark.parametrize("init", ["origin-symmetric", "origin", "corners", "middle"])
def test_full_matches_layers_for_every_init(tmp_path, init):
    # 0 steps too: the walk reads row 0 itself, from the blocks the embedding wrote
    la, fu = tmp_path / "a.csv", tmp_path / "b.csv"
    layer_init = "origin" if init == "origin-symmetric" else init
    for steps in (0, 25):
        assert run(["layers", "--dim", 10, "--steps", steps, "--init", layer_init, "--out", la]) == 0
        assert run(["full", "--dim", 10, "--steps", steps, "--init", init, "--out", fu]) == 0
        a = np.loadtxt(la, delimiter=",", skiprows=1)
        b = np.loadtxt(fu, delimiter=",", skiprows=1)
        assert a.shape == b.shape == ((steps + 1) * 11, 3), steps
        assert np.max(np.abs(a - b)) <= 1e-12, steps


@pytest.mark.parametrize(
    "d,multiport", [(1, "grover"), (6, "grover"), (10, "grover"), (6, "symmetric:p=1"), (10, "symmetric:p=1")]
)
def test_both_spellings_of_the_origin_start_write_the_same_bytes(tmp_path, d, multiport):
    # two names of one start: both go through the start table to the same layer state and embedding
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for init, out in (("origin-symmetric", a), ("origin", b)):
        assert run(["full", "--dim", d, "--steps", 20, "--init", init, "--multiport", multiport, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("init", ["origin-symmetric", "origin", "corners", "middle"])
def test_every_full_start_is_one_embedding(tmp_path, monkeypatch, init):
    calls = []
    embed = sqrw.cli.embed_layer_state
    monkeypatch.setattr(sqrw.cli, "embed_layer_state", lambda *a: calls.append("embed") or embed(*a))
    monkeypatch.setattr(sqrw.cli, "initial_symmetric_state", lambda *a: calls.append("direct"))
    # the embedding only writes, and the walk reads step 0 from its live blocks: no separate pass over the state
    monkeypatch.setattr(sqrw.cli, "layer_distribution_full", lambda *a: calls.append("read"))
    assert run(["full", "--dim", 5, "--steps", 3, "--init", init, "--out", tmp_path / "f.csv"]) == 0
    assert calls == ["embed"]


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


def test_spectrum_rows_match_per_block_oracle(tmp_path):
    d, spec = 8, "custom:0.125,0.875,0.125,-0.125"  # eigenphases 0 and pi/2
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--dim", d, "--multiport", spec, "--out", out]) == 0
    oracle = per_block_spectra(d, parse_multiport(spec, d))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [format(k, f"0{d}b") for k in range(1 << d) for _ in range(d)]
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows]).reshape(1 << d, d)
    for k in range(1 << d):
        assert spectrum_mismatch(got[k], oracle[k]) <= 1e-13


def test_spectrum_calls_no_eigensolver(tmp_path, monkeypatch):
    # the spectra are closed forms; an eigensolver's LAPACK kernel is chosen by CPU
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    assert run(["spectrum", "--dim", 12, "--out", tmp_path / "spec.csv"]) == 0
    assert calls == []


def test_spectrum_over_the_full_state_budget_exit_3(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--dim", 30, "--out", out]) == 3
    assert "budget" in _error_line(capsys)
    assert not out.exists()


def test_mz_prints_amplitude(tmp_path, capsys):
    gamma = tmp_path / "gamma.csv"
    d = 4
    gamma.write_text("".join(f"{1 / math.sqrt(d)},0\n" for _ in range(d)))
    assert run(["mz", "--dim", d, "--gamma", gamma]) == 0
    printed = capsys.readouterr().out.splitlines()
    got = {line.split("=")[0]: float(line.split("=")[1]) for line in printed}
    from sqrw.scattering import interferometer_amplitude

    expected = interferometer_amplitude(d, np.full(d, 1 / math.sqrt(d)), grover_coeffs(d))
    assert got["amplitude_re"] == pytest.approx(expected.real, abs=1e-15)
    assert got["probability"] == pytest.approx(abs(expected) ** 2, abs=1e-15)


@pytest.mark.parametrize("multiport", ["grover", "symmetric:p=1"])
def test_mz_past_the_float_factorial(tmp_path, capsys, multiport):
    # (d-1)! overflows a float from d = 172 on
    d = 200
    gamma = tmp_path / "gamma.csv"
    gamma.write_text(f"{1 / math.sqrt(d)},0\n" * d)
    assert run(["mz", "--dim", d, "--gamma", gamma, "--multiport", multiport]) == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(printed["probability"]) < 1e-50


def test_verify_circuit_passes(capsys):
    assert run(["verify-circuit", "--dim", 4]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed


@pytest.mark.parametrize("d", [9, 10])
def test_verify_circuit_passes_past_the_old_cap(capsys, d):
    assert run(["verify-circuit", "--dim", d, "--multiport", "symmetric:p=1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_verify_circuit_wrong_coin_prints_fail(monkeypatch, capsys):
    def wrong_coin(c):
        m = multiport_matrix(c)
        m[0, 1] += 1e-6
        return m

    monkeypatch.setattr(sqrw.circuit, "multiport_matrix", wrong_coin)
    assert run(["verify-circuit", "--dim", 4]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "FAIL"
    assert float(printed[0].split("=")[1]) > 1e-12


def test_repro_presets(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["repro", "fig2"]) == 0
    assert (tmp_path / "fig2.csv").read_text().splitlines()[0] == "d,p_c,p_q,ratio"
    out = tmp_path / "f3.csv"
    assert run(["repro", "fig3", "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (101 * 51, 3)
    assert run(["repro", "fig8"]) == 2  # schematic only, no data preset


def test_repro_cumulative_goes_to_the_preset_command(tmp_path, capsys):
    # fig9 is a scatter run, so --cumulative adds its column; fig3 is a layers
    # run, which has no such flag and refuses it as ``layers --cumulative`` does
    preset, spelled = tmp_path / "fig9.csv", tmp_path / "scatter.csv"
    assert run(["repro", "fig9", "--cumulative", "--out", preset]) == 0
    args = ["scatter", "--dim", 10, "--steps", 400, "--multiport", "symmetric:p=1", "--cumulative"]
    assert run(args + ["--out", spelled]) == 0
    assert preset.read_bytes() == spelled.read_bytes()
    out = tmp_path / "fig3.csv"
    for argv in (["repro", "fig3", "--cumulative"], ["layers", "--dim", 50, "--steps", 100, "--cumulative"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cumulative" in capsys.readouterr().err
    assert not out.exists()


def test_hitting_dmax_cap(tmp_path, capsys):
    # above MAX_HITTING_DIM, d!/d**d is subnormal and then 0
    out = tmp_path / "h.csv"
    assert run(["hitting", "--dmax", MAX_HITTING_DIM + 1, "--out", out]) == 2
    assert str(MAX_HITTING_DIM) in _error_line(capsys)
    assert not out.exists()
    assert run(["hitting", "--dmax", MAX_HITTING_DIM, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (MAX_HITTING_DIM - 1, 4)
    assert np.all(np.isfinite(rows)) and np.all(rows >= np.finfo(np.float64).tiny)


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


def test_plot_script_saves_its_png_beside_itself(tmp_path):
    la = tmp_path / "lay.csv"
    run(["layers", "--dim", 4, "--steps", 3, "--out", la])
    runs = tmp_path / "runs.d"
    runs.mkdir()
    for name, png in (("plot", "plot.png"), ("plot.py", "plot.png"), ("fig.v2.py", "fig.v2.png")):
        script = runs / name
        emit_plot_script(str(la), str(script))
        assert f"plt.savefig({str(runs / png)!r}, dpi=150)" in script.read_text(), name


def test_plot_script_missing_csv(tmp_path):
    with pytest.raises(OSError):
        emit_plot_script(str(tmp_path / "nope.csv"), str(tmp_path / "p.py"))


def test_exit_codes(tmp_path, capsys):
    assert run(["layers", "--dim", 0, "--steps", 1, "--out", tmp_path / "x.csv"]) == 2
    assert run(["full", "--dim", 30, "--steps", 1, "--out", tmp_path / "x.csv"]) == 3
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
        ["spectrum", "--dim", 3, "--multiport", "custom:1e200,0,0,0"],
        ["layers", "--dim", 3, "--steps", 2, "--multiport", "custom:1e155,1e155,0,0"],
    ],
)
def test_overflowing_multiport_exit_2(tmp_path, capsys, args):
    # finite pairs whose squares overflow a float fail the unitarity check
    out = tmp_path / "x.csv"
    assert run(args + ["--out", out]) == 2
    assert "violate unitarity" in _error_line(capsys)
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


@pytest.mark.parametrize(
    "args",
    [
        ["layers", "--dim", 4, "--steps", 3],
        ["full", "--dim", 4, "--steps", 3],
        ["scatter", "--dim", 4, "--steps", 3],
        ["search", "--dim", 4, "--marked", "0110", "--steps", 3],
        ["spectrum", "--dim", 4],
        ["mz", "--dim", 4],
        ["verify-circuit", "--dim", 4],
    ],
)
def test_nan_multiport_exit_2_without_output(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    if args[0] == "mz":
        gamma = tmp_path / "gamma.csv"
        gamma.write_text("0.5\n" * 4)
        args = args + ["--gamma", gamma]
    elif args[0] != "verify-circuit":
        args = args + ["--out", out]
    assert run(args + ["--multiport", "symmetric:p=nan"]) == 2
    _error_line(capsys)
    assert not out.exists()


def test_full_budget_counts_the_working_set(tmp_path, capsys, monkeypatch):
    # d state rows plus four rows of scratch: (5 + 4) * 2**5 * 16 bytes
    monkeypatch.setenv(MEMORY_ENV_VAR, "4608")
    assert run(["full", "--dim", 5, "--steps", 2, "--out", tmp_path / "x.csv"]) == 0
    monkeypatch.setenv(MEMORY_ENV_VAR, "4607")
    assert run(["full", "--dim", 5, "--steps", 2, "--out", tmp_path / "y.csv"]) == 3
    assert "4608 bytes" in _error_line(capsys)


def _full_peak(tmp_path, d, multiport):
    run(["full", "--dim", 3, "--steps", 1, "--multiport", multiport, "--out", tmp_path / "warm.csv"])
    tracemalloc.start()
    try:
        assert run(["full", "--dim", d, "--steps", 3, "--multiport", multiport, "--out", tmp_path / "x.csv"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _full_bound(d, itemsize):
    """The state, the walk's two blocks, the fold's float64 and int64 block rows and 128 KiB: no 2**d row."""
    return d * (1 << d) * itemsize + 2 * (1 << 14) * itemsize + 2 * ((1 << 14) + 15) * 8 + (128 << 10)


def test_full_working_set_bounds_the_peak(tmp_path):
    # a complex coin holds complex rows, as the budget counts them
    d = 16
    peak = _full_peak(tmp_path, d, "symmetric:p=1")
    assert d * (1 << d) * 16 < peak <= _full_bound(d, 16)


def test_full_real_coin_working_set_is_half_the_complex_one(tmp_path):
    # grover is real, so its state and scratch are float64, as the fold's tile always is
    d = 16
    peak = _full_peak(tmp_path, d, "grover")
    assert d * (1 << d) * 8 < peak <= _full_bound(d, 8)


def test_missing_output_directory_fails_before_the_walk(tmp_path, capsys, monkeypatch):
    import sqrw.cli

    calls = []
    monkeypatch.setattr(sqrw.cli, "_full_walk", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "x.csv"
    assert run(["full", "--dim", 20, "--steps", 2, "--out", out]) == 2
    assert "No such file or directory" in _error_line(capsys)
    assert calls == []


@pytest.mark.parametrize("command,walk", [("full", "_full_walk"), ("layers", "layer_distribution_series")])
def test_output_that_is_a_directory_fails_before_the_walk(tmp_path, capsys, monkeypatch, command, walk):
    calls = []
    monkeypatch.setattr(sqrw.cli, walk, lambda *args: calls.append(args))
    assert run([command, "--dim", 20, "--steps", 2, "--out", tmp_path]) == 2
    assert f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'" in _error_line(capsys)
    assert calls == []


def test_mz_non_numeric_gamma_exit_2(tmp_path, capsys):
    gamma = tmp_path / "gamma.csv"
    for row, named in (("abc", "abc"), ("nan", "finite"), ("1e400", "finite"), ("1,inf", "finite")):
        gamma.write_text(f"0.5\n{row}\n")
        assert run(["mz", "--dim", 2, "--gamma", gamma]) == 2, row
        out, err = capsys.readouterr()
        assert out == "", row
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err, row


@pytest.mark.filterwarnings("error")
def test_mz_overflowing_gamma_exit_2(tmp_path, capsys):
    gamma = tmp_path / "gamma.csv"
    for rows in ("1e308\n1e308\n", "1e200\n1e200\n"):  # the sum overflows; |amplitude|**2 does
        gamma.write_text(rows)
        assert run(["mz", "--dim", 2, "--gamma", gamma]) == 2, rows
        out, err = capsys.readouterr()
        assert out == "", rows
        assert err.count("\n") == 1 and err.startswith("error: gamma must be finite"), rows


@pytest.mark.parametrize("command", ["mz", "plot-script"])
def test_non_utf8_input_file_exit_2(tmp_path, capsys, command):
    data = tmp_path / "in.csv"
    data.write_bytes(b"\xff0.5\n")
    if command == "mz":
        flag, args = "--gamma", ["mz", "--dim", 2, "--gamma", data]
    else:
        flag, args = "--csv", ["plot-script", "--csv", data, "--out", tmp_path / "plot.py"]
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} {data}: not UTF-8 text")


def test_layers_dim_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["layers", "--dim", 1100, "--steps", 1, "--out", out]) == 2
    assert str(MAX_LAYER_DIM) in _error_line(capsys)
    # refused before the middle start computes C(d, d//2 + 1), which takes minutes at this d
    assert run(["layers", "--dim", 10**8, "--steps", 1, "--init", "middle", "--out", out]) == 2
    assert str(MAX_LAYER_DIM) in _error_line(capsys)
    assert not out.exists()


def test_layers_builds_the_binomial_row_once(tmp_path, monkeypatch):
    # the dimension check builds no C(d, w) row: the series' reading is the only one
    d, calls = 8, []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    assert run(["layers", "--dim", d, "--steps", 2, "--init", "origin", "--out", tmp_path / "x.csv"]) == 0
    assert sorted(calls) == [(d, w) for w in range(d + 1)]


def test_search_dim_cap_exit_2(tmp_path, capsys):
    d = MAX_LAYER_DIM + 1
    args = ["search", "--dim", d, "--marked", "0" * d, "--steps", 1, "--out", tmp_path / "x.csv"]
    assert run(args) == 2
    assert str(MAX_LAYER_DIM) in _error_line(capsys)


def test_search_runs_past_the_full_state_memory_budget(tmp_path, capsys):
    # d = 40 would need a 2**40-vertex full state; the layer search needs O(d)
    out = tmp_path / "s.csv"
    assert run(["search", "--dim", 40, "--marked", "1" * 40, "--steps", 4096, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (4097, 2)
    assert rows[0, 1] == pytest.approx(2.0**-40, rel=1e-12)
    assert capsys.readouterr().out.startswith("peak_step=")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_limited(args, cwd):
    """``sqrw`` in a child process with 2 GiB of address space and a 30 s timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(sqrw.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "sqrw.cli", *map(str, args)],
        cwd=cwd,
        env=env,
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=30,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        ["layers", "--dim", 50, "--steps", 250],
        ["full", "--dim", 3, "--steps", 2],
        ["scatter", "--dim", 10, "--steps", 4000],
        ["scatter", "--dim", 3, "--steps", 2, "--cumulative"],
        ["search", "--dim", 3, "--marked", "101", "--steps", 2],
        ["hitting", "--dmax", 3],
        ["spectrum", "--dim", 9],
    ],
    ids=["layers", "full", "scatter", "scatter-cumulative", "search", "hitting", "spectrum"],
)
def test_write_error_exit_2(tmp_path, args):
    # a large CSV fails in one chunk's write, a small one only when the file is closed
    limited = run_limited([*args, "--out", "/dev/full"], tmp_path)
    assert limited.returncode == 2, limited.stderr
    assert limited.stderr.count("\n") == 1 and limited.stderr.startswith("error: ")


def test_tail_length_flag_is_refused(tmp_path, capsys):
    # the tails are semi-infinite: there is no length to pass
    with pytest.raises(SystemExit) as exc:
        run(["scatter", "--dim", 4, "--steps", 60, "--tail-length", 5, "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("unrecognized arguments: --tail-length 5\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["layers", "--dim", 3, "--steps", 10**12, "--out", "x.csv"],
        ["full", "--dim", 4, "--steps", 10**12, "--out", "x.csv"],
        ["search", "--dim", 10, "--marked", "0" * 10, "--steps", 10**12, "--out", "x.csv"],
        ["full", "--dim", 100_000, "--steps", 1, "--out", "x.csv"],
        ["spectrum", "--dim", 100_000, "--out", "x.csv"],
        ["full", "--dim", 10**9, "--steps", 1, "--out", "x.csv"],
        ["spectrum", "--dim", 10**9, "--out", "x.csv"],
    ],
)
def test_request_too_large_to_allocate_exit_3(tmp_path, args):
    limited = run_limited(args, tmp_path)
    assert limited.returncode == 3, limited.stderr
    assert limited.stderr.count("\n") == 1 and limited.stderr.startswith("error: ")


def test_hitting_dmax_too_large_exit_2(tmp_path):
    # d_max above MAX_HITTING_DIM is a bad parameter, refused before allocating
    limited = run_limited(["hitting", "--dmax", 10**8, "--out", "x.csv"], tmp_path)
    assert limited.returncode == 2, limited.stderr
    assert limited.stderr.count("\n") == 1 and limited.stderr.startswith("error: ")
    assert str(MAX_HITTING_DIM) in limited.stderr


@pytest.mark.parametrize("d", [21, 10**6, 10**10])
def test_verify_circuit_over_budget_exit_3(tmp_path, d):
    # three d = 21 states are 2 GiB, over the default 1 GiB budget; refused
    # before allocating, and the message prints no d-digit byte count
    limited = run_limited(["verify-circuit", "--dim", d], tmp_path)
    assert limited.returncode == 3, limited.stderr
    assert limited.stderr.count("\n") == 1 and limited.stderr.startswith("error: ")
    assert "budget" in limited.stderr
