"""Golden SHA-256 hashes of CLI output: same flags, same bytes.

The ``repro`` hashes were recorded before the layer step formula moved into
its shared kernel, so they also pin that refactor to the old bytes.  The
``search`` hashes were recorded from the layer-reduced search (the d = 8
``symmetric:p=1`` ones, like the ``scatter`` hash, before the layer walk
stepped in blocks, so they pin the blocked walk and its complex-coin
readings to the one-state-per-step bytes; the d = 30 one, 1.3 t_SKW steps
long, from the per-element Python ``abs`` reading, so it pins the array
readings to those bytes), the ``full`` hashes from the in-place direction-major step kernel (the d = 16 one before
that kernel was split into blocks, so it pins the blocked kernel to the
unblocked bytes; the next three, two grover and one real ``custom:`` pair, from the
complex state, so they pin the float64 state of real coins to its bytes; the
last two from the two-pass step, so they pin the one-pass walk to its bytes), the ``spectrum`` hashes from the
closed-form weight-class spectra, which no OpenBLAS core choice changes.
The ten goldens of a ``symmetric`` coin or a closed form (fig2, fig4, fig5,
fig9, the d = 8 ``symmetric:p=1`` searches, the d = 9 and d = 16
``symmetric:p=1`` ``full`` runs, the d = 6 ``symmetric`` spectrum and the
d = 10 ``scatter`` seam) were re-recorded when every number came to be
computed from + - * / and sqrt alone: the acos-free symmetric coin, the
paired path product and the re*re + im*im reading.  Each is no further from
the 50-digit reference of ``test_exact_reference.py`` by more than one unit
in the last place of its largest value.
``SEAM_GOLDENS`` were recorded from the one-row-at-a-time CSV writer (the
spectrum one from it over the closed form); each output is longer than one
4,096-row chunk of the chunked writer, so they pin its seams to those bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqrw
from sqrw.cli import main

REPRO_SHA256 = {
    "fig2": "83c1553daa9bf63d9de208d087ee4d8830c61057aee6de5d74c42bb29edbce87",
    "fig3": "4d4936098a174dab4ec3b9fd40b7d32c4e9ab360738be79eae25a24159fa01e9",
    "fig4": "cb207d60e3a77cf71d9478d865380fb12f015ca72fd2dfa4b0e561ad8718f2f4",
    "fig5": "a7b0eeee6a30a856df8a5afad65e42a5dab499a5c743f556a69df344881e0bfc",
    "fig6": "c4db03d8f85cc00a5b893e1b847d32bb6e4e322ddb7451471dc6c8b73ef70c51",
    "fig7": "4cd49c5497bf4d8f5efefb31a5b57fe965e1b54a0bf8a1280ddae55b01d6c2be",
    "fig9": "6fe06ecca043958506b2a9d04a0d810a5eb2d5e90287d454b6410e8f0d270a48",
}

# (flags, CSV hash, stdout)
SEARCH_GOLDENS = [
    (
        ["--dim", "6", "--marked", "001001", "--steps", "40", "--metric", "in"],
        "7c5fb7ff8ef538853335b53bb2e316fe6f3a43d874fc3131dafeabdcded82dce",
        "peak_step=8 peak_probability=0.41176545167342687\n",
    ),
    (
        ["--dim", "8", "--marked", "10101101", "--steps", "64"],
        "fbfc323db7e1d29cada2bc490081e880d1394ebedb0f0876e27df683e553ddca",
        "peak_step=19 peak_probability=0.43447149924737977\n",
    ),
    (
        # a complex coin, 301 rows: the layer walk crosses a block seam
        ["--dim", "8", "--marked", "10101101", "--steps", "300", "--multiport", "symmetric:p=1"],
        "9d95633cff4631d91f393b5137e4f51546e7a8193642fd2a087bf2d21d861aa6",
        "peak_step=41 peak_probability=0.0066065048613202166\n",
    ),
    (
        ["--dim", "8", "--marked", "10101101", "--steps", "300", "--multiport", "symmetric:p=1", "--metric", "in"],
        "64ecd15f5b64825cf1a2239711fb06b0a0e05835e5c304a5d751f8855007b464",
        "peak_step=40 peak_probability=0.0066065048613202166\n",
    ),
    (
        # 1.3 t_SKW steps: the layer walk crosses 184 block seams
        ["--dim", "30", "--marked", "101101101101101101101101101101", "--steps", "47314"],
        "edc1953ebb5bf9eb000e3474b2b4dcc2aae0c23c93a1fadd5f73e0793941198b",
        "peak_step=37067 peak_probability=0.48203399310375433\n",
    ),
]


# (flags, CSV hash)
SCATTER_GOLDENS = [
    (
        ["--dim", "6", "--steps", "600", "--cumulative"],
        "24824152c69b6b1f43d01ee4cbd893c9a799d5c22c95ccbabbfdd6c28c8daf7e",
    ),
]


# (flags, CSV hash)
FULL_GOLDENS = [
    (
        ["--dim", "6", "--steps", "20", "--init", "origin-symmetric", "--multiport", "grover"],
        "cf308d0b0ca3cd8242629a27a8c16db4b4cf4cbe21db4f6e905e98db229f0a57",
    ),
    (
        ["--dim", "9", "--steps", "30", "--init", "corners", "--multiport", "symmetric:p=1"],
        "7bc69777b57bd8e9f4ac1c92df18902f97e4aa7514cb06ff2a6323478f36e5c5",
    ),
    (
        # 2**16 vertices span four 2**14-vertex blocks of the step kernel
        ["--dim", "16", "--steps", "3", "--init", "middle", "--multiport", "symmetric:p=0.8"],
        "3380f56eb1450fb83c274a21dba20f469c37326ab7dabad997041bca7c3885a2",
    ),
    (
        # 2**15 vertices: two blocks, so a grover walk crosses the block seam
        ["--dim", "15", "--steps", "6", "--init", "corners", "--multiport", "grover"],
        "ac77f5e1bba602a34df49846c48107d3b6ac7ed902e80fcb8daf9289cd2638ff",
    ),
    (
        ["--dim", "12", "--steps", "40", "--init", "middle", "--multiport", "grover"],
        "3e475e7a10764129f2055dac0feddab6be81fd880e5dabcdf03482ac23d117ad",
    ),
    (
        ["--dim", "5", "--steps", "9", "--multiport", "custom:-1,0,0,0"],
        "06393b4e28875d7b002695fee1962a195197f37870f7b45c8470628acd67ed93",
    ),
    (
        # two bits above the 2**14-vertex block and an odd count
        ["--dim", "16", "--steps", "3", "--multiport", "grover"],
        "16f21e8ff218f2c19666ad26933dd4c971d7fee6d99d1cb8e100e189820d6d6e",
    ),
    (
        ["--dim", "16", "--steps", "3", "--multiport", "symmetric:p=1"],
        "83f5efa206e260d79bac75918ef767520eb070bd13a65e8b730e0974b1b17bea",
    ),
]


# (flags, CSV hash)
SPECTRUM_GOLDENS = [
    (["--dim", "3"], "fb0d90aa68d919e01847a4dbf0732f72f1e9146305fb1f6412686977d82594ca"),
    (
        ["--dim", "6", "--multiport", "symmetric:p=1"],
        "730e6d3c23831a7aaa0554c49c4261a794413acba0efc1ceed64bccbd5e2294b",
    ),
    (
        ["--dim", "12", "--multiport", "grover"],  # the benchmark's command
        "ed11b44104f9c199062fd094cb12c737436d478e81989b0513e0975ec1e49bf7",
    ),
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPRO_SHA256))
def test_repro_preset_bytes(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["repro", name, "--out", str(out)]) == 0
    assert sha256(out) == REPRO_SHA256[name]


@pytest.mark.parametrize(
    "flags,csv_hash,stdout", SEARCH_GOLDENS, ids=["d6-in", "d8-out", "d8-symmetric-out", "d8-symmetric-in", "d30-long"]
)
def test_search_bytes(tmp_path, capsys, flags, csv_hash, stdout):
    out = tmp_path / "search.csv"
    assert main(["search", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("flags,csv_hash", SCATTER_GOLDENS, ids=["d6-cumulative-600"])
def test_scatter_bytes(tmp_path, flags, csv_hash):
    out = tmp_path / "scatter.csv"
    assert main(["scatter", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash


@pytest.mark.parametrize(
    "flags,csv_hash",
    FULL_GOLDENS,
    ids=[
        "d6-origin-grover",
        "d9-corners-symmetric",
        "d16-middle-symmetric",
        "d15-corners-grover",
        "d12-middle-grover",
        "d5-origin-custom-real",
        "d16-origin-grover-odd",
        "d16-origin-symmetric-odd",
    ],
)
def test_full_bytes(tmp_path, flags, csv_hash):
    out = tmp_path / "full.csv"
    assert main(["full", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash


@pytest.mark.parametrize("flags,csv_hash", SPECTRUM_GOLDENS, ids=["d3-grover", "d6-symmetric", "d12-grover"])
def test_spectrum_bytes(tmp_path, flags, csv_hash):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash


# (command and flags, CSV hash); each writes more than 4,096 rows
SEAM_GOLDENS = [
    (
        ["spectrum", "--dim", "9", "--multiport", "grover"],  # 4,608 rows
        "da16d0c121159547b4c791813f620d993371d044e9055d2469d951e289a8ea93",
    ),
    (
        ["scatter", "--dim", "10", "--steps", "4500", "--multiport", "symmetric:p=1"],  # 4,501 rows
        "9d19926f0f3724dd1978307169b0895d687dff11c403ace3c7fa64ac85291b23",
    ),
    (
        # 4,907 rows of width 7: the seam falls inside a step
        ["layers", "--dim", "6", "--steps", "700", "--init", "corners"],
        "3b0abd1e258e72f4c99310885055fd9d1e8e9d954ceefa3a662ddf4be7934a8d",
    ),
    (
        ["search", "--dim", "6", "--marked", "001001", "--steps", "5000"],  # 5,001 rows
        "d7abbc2a99a779f3d24082148c9a8526d7bbb0a9b17f70d24ea0e8fd558855c6",
    ),
]


@pytest.mark.parametrize(
    "argv,csv_hash", SEAM_GOLDENS, ids=["spectrum-d9", "scatter-d10-4500", "layers-d6-700", "search-d6-5000"]
)
def test_chunk_seam_bytes(tmp_path, argv, csv_hash):
    out = tmp_path / "seam.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash


@pytest.mark.parametrize("core", ["Prescott", "Sandybridge", "Haswell"])
def test_spectrum_bytes_on_every_openblas_core(tmp_path, core):
    # OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE overrides the pick; no
    # spectrum byte may depend on it
    goldens = [(["spectrum", *flags], h) for flags, h in SPECTRUM_GOLDENS]
    goldens += [(argv, h) for argv, h in SEAM_GOLDENS if argv[0] == "spectrum"]
    argvs = [[*argv, "--out", str(tmp_path / f"{i}.csv")] for i, (argv, _) in enumerate(goldens)]
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=str(Path(sqrw.__file__).parents[1]))
    code = "import json, sys; from sqrw.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    child = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert [sha256(tmp_path / f"{i}.csv") for i in range(len(goldens))] == [h for _, h in goldens]
