"""Golden SHA-256 hashes of CLI output: same flags, same bytes.

The ``repro`` hashes were recorded before the layer step formula moved into
its shared kernel, so they also pin that refactor to the old bytes.  The
``search`` hashes were recorded from the layer-reduced search, the ``full``
hashes from the in-place direction-major step kernel, the ``spectrum``
hashes from the one-solve-per-momentum-weight spectrum.
"""

import hashlib

import pytest

from sqrw.cli import main

REPRO_SHA256 = {
    "fig2": "c135cafc651aa1dfd390f079b501cefd5a16791f5a0ebbc61ef4d952bcb1002e",
    "fig3": "4d4936098a174dab4ec3b9fd40b7d32c4e9ab360738be79eae25a24159fa01e9",
    "fig4": "c0dc8064868fa59f83bd8a5044fc0be01eb60a9f3c23a74ee37d7d0381c29067",
    "fig5": "88d5af3315226f1e5d9cd14598d11f1a3dddbb0a57dcab97de7728f137ee7168",
    "fig6": "c4db03d8f85cc00a5b893e1b847d32bb6e4e322ddb7451471dc6c8b73ef70c51",
    "fig7": "4cd49c5497bf4d8f5efefb31a5b57fe965e1b54a0bf8a1280ddae55b01d6c2be",
    "fig9": "37a93981a4e70dd1d108576f09bfebac3260062512c483a052fe32468d92a2bf",
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
]


# (flags, CSV hash)
FULL_GOLDENS = [
    (
        ["--dim", "6", "--steps", "20", "--init", "origin-symmetric", "--multiport", "grover"],
        "cf308d0b0ca3cd8242629a27a8c16db4b4cf4cbe21db4f6e905e98db229f0a57",
    ),
    (
        ["--dim", "9", "--steps", "30", "--init", "corners", "--multiport", "symmetric:p=1"],
        "de353e6b7d1859be101712ea52be73d95fd01fd6db14b1a8a2c946100a24f158",
    ),
]


# (flags, CSV hash)
SPECTRUM_GOLDENS = [
    (["--dim", "3"], "06e4711926944e3eace48eeef89f5d24e548a19754f3ae33c9cf6d80e9502eda"),
    (
        ["--dim", "6", "--multiport", "symmetric:p=1"],
        "c436320b76e61b52f0dd97b2a76c1391d4d16e3eca5b7ae44b6aebeaf07337a1",
    ),
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPRO_SHA256))
def test_repro_preset_bytes(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["repro", name, "--out", str(out)]) == 0
    assert sha256(out) == REPRO_SHA256[name]


@pytest.mark.parametrize("flags,csv_hash,stdout", SEARCH_GOLDENS, ids=["d6-in", "d8-out"])
def test_search_bytes(tmp_path, capsys, flags, csv_hash, stdout):
    out = tmp_path / "search.csv"
    assert main(["search", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("flags,csv_hash", FULL_GOLDENS, ids=["d6-origin-grover", "d9-corners-symmetric"])
def test_full_bytes(tmp_path, flags, csv_hash):
    out = tmp_path / "full.csv"
    assert main(["full", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash


@pytest.mark.parametrize("flags,csv_hash", SPECTRUM_GOLDENS, ids=["d3-grover", "d6-symmetric"])
def test_spectrum_bytes(tmp_path, flags, csv_hash):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", *flags, "--out", str(out)]) == 0
    assert sha256(out) == csv_hash
