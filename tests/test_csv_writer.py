"""The chunked CSV writer: the same bytes as one row at a time, in O(chunk) memory."""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import rowwise_spectrum_rows, rowwise_table_rows, rowwise_write_rows

from sqrw import cli

K = cli._CHUNK_ROWS
ROW_COUNTS = [0, 1, K - 1, K, K + 1, 2 * K + 1]
SPECIALS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # the largest subnormal
    1e-310,
    float("inf"),
    float("-inf"),
    float("nan"),
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1 / 3,
]
doubles = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=True, allow_infinity=True))
# a pool of doubles that a seeded generator spreads over thousands of rows
pools = st.lists(doubles, min_size=1, max_size=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
per_example_files = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def spread(pool, seed, size):
    return np.array(pool, dtype=np.float64)[np.random.default_rng(seed).integers(len(pool), size=size)]


def same_bytes(tmp_path, header, chunks, rows):
    cli._write_rows(tmp_path / "chunked.csv", header, chunks)
    rowwise_write_rows(tmp_path / "rowwise.csv", header, rows)
    return (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


@per_example_files
@given(
    pool=pools,
    seed=seeds,
    n=st.sampled_from(ROW_COUNTS),
    m=st.integers(min_value=1, max_value=4),
    first=st.integers(min_value=0, max_value=10**6),
)
def test_table_matches_rowwise_writer(tmp_path, pool, seed, n, m, first):
    columns = list(spread(pool, seed, (m, n)))
    chunks = cli._table(*columns, first=first)
    assert same_bytes(tmp_path, "h", chunks, rowwise_table_rows(*columns, first=first))


@per_example_files
@given(
    pool=pools,
    seed=seeds,
    width=st.integers(min_value=2, max_value=60),
    total=st.sampled_from(ROW_COUNTS),
)
def test_surface_matches_rowwise_writer(tmp_path, pool, seed, width, total):
    # as many whole steps as reach the row count, so seams fall inside a step
    series = spread(pool, seed, (-(-total // width), width))
    rows = rowwise_table_rows(series.ravel(), width=width)
    assert same_bytes(tmp_path, "step,w,probability", cli._table(series.ravel(), width=width), rows)


@per_example_files
@given(pool=pools, seed=seeds, d=st.sampled_from([1, 2, 3, 9, 10]))
def test_spectrum_join_matches_rowwise_writer(tmp_path, monkeypatch, pool, seed, d):
    # d = 9 and 10 write 4,608 and 10,240 rows, across one and two chunk seams
    re, im = spread(pool, seed, (2, d + 1, d))
    spectra = re.astype(np.complex128)
    spectra.imag = im  # not re + 1j * im, which turns an infinite im into a nan re
    spectra = list(spectra)
    monkeypatch.setattr(cli, "weight_class_spectra", lambda c: spectra)
    assert cli.main(["spectrum", "--dim", str(d), "--out", str(tmp_path / "chunked.csv")]) == 0
    header = "k_bits,eigenvalue_re,eigenvalue_im"
    rowwise_write_rows(tmp_path / "rowwise.csv", header, rowwise_spectrum_rows(d, spectra))
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


def test_writer_memory_is_bounded_by_the_chunk(tmp_path):
    # 204,051 rows; an index built over the whole run would take about 4.7 MiB
    series = np.random.default_rng(7).random((4_001, 51))
    tracemalloc.start()
    try:
        cli._write_rows(tmp_path / "surface.csv", "step,w,probability", cli._table(series.ravel(), width=51))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20
    with open(tmp_path / "surface.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + series.size
