"""Indexing, layers, state construction and embedding."""

import importlib
import itertools
import math
import pkgutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import random_layer_coeffs, small_blocks, stacked, vertex_bits
from oracles import (
    direct_symmetric_state,
    extract_layer_state,
    gather_embed_layer_state,
    vertex_weights,
    where_embed_layer_state,
)

import sqrw
from sqrw import hypercube
from sqrw.errors import MemoryCapError, ValidationError
from sqrw.evolution import EvolutionConfig, _full_walk, layer_distribution_full
from sqrw.hypercube import (
    MEMORY_ENV_VAR,
    _block_weights,
    _written_blocks,
    direction_mask,
    embed_layer_state,
    ensure_full_state_fits,
    initial_symmetric_state,
    parse_vertex,
    zero_full_state,
)
from sqrw.layers import (
    LayerState,
    corner_pair_state,
    edge_counting_norm,
    middle_state,
    origin_state,
    zero_layer_state,
)
from sqrw.multiport import grover_coeffs


def test_flat_index_examples():
    # |x; a> sits at x*d + (a - 1) in the flattened (ravel) order
    for bits, a, index in (("000", 1, 0), ("000", 3, 2), ("111", 3, 23)):
        state = zero_full_state(3)
        state[parse_vertex(3, bits), a - 1] = 1.0
        assert list(np.flatnonzero(np.ravel(state))) == [index]


@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_flat_index_bijection(d):
    state = zero_full_state(d)  # stored direction-major
    for x in range(1 << d):
        for a in range(1, d + 1):
            state[x, a - 1] = x * d + a - 1
    assert np.array_equal(np.ravel(state), np.arange(d * (1 << d)))


def test_hamming_layer_examples():
    w = _block_weights(16)
    assert w[parse_vertex(4, "0000")] == 0
    assert w[parse_vertex(4, "1011")] == 3
    assert w[parse_vertex(4, "1111")] == 4


def test_block_weights_match_scalar():
    w = _block_weights(64)
    assert all(w[x] == x.bit_count() for x in range(64))
    for d in (0, 1, 20):  # a block of one vertex too, as small_blocks(1) makes
        w = _block_weights(1 << d)
        assert w.shape == (1 << d,) and w.dtype == np.int64
        # bit by bit, the way the weights were built before the doubling
        x = np.arange(1 << d, dtype=np.int64)
        want = sum(((x >> shift) & 1 for shift in range(d)), np.zeros(1 << d, np.int64))
        assert np.array_equal(w, want)
        assert d == 0 or np.array_equal(vertex_weights(d), want)  # the oracle the tests share
        # no cache: each call returns a new array, and a caller's writes stay its own
        again = _block_weights(1 << d)
        assert again is not w and not np.shares_memory(again, w)
        w[:] = -1
        assert np.array_equal(_block_weights(1 << d), want)


@pytest.mark.parametrize("d", [16, 18])
def test_block_weights_allocate_only_their_result(d):
    # a temporary of half the row (w[: 1 << k] + 1 at the top bit) would exceed the slack
    tracemalloc.start()
    try:
        _block_weights(1 << d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (1 << d) * 8 <= peak <= (1 << d) * 8 + (4 << 10)


def test_vertex_bits_round_trip():
    for d in (1, 4, 7):
        for x in range(1 << d):
            assert parse_vertex(d, vertex_bits(d, x)) == x


def test_direction_mask_flips_string_character():
    d = 5
    for a in range(1, d + 1):
        for x in (0, 9, 21, 31):
            flipped = x ^ direction_mask(d, a)
            bits, flipped_bits = vertex_bits(d, x), vertex_bits(d, flipped)
            assert all(bits[i] == flipped_bits[i] for i in range(d) if i != a - 1)
            assert bits[a - 1] != flipped_bits[a - 1]


def test_initial_symmetric_state_values():
    for d in (2, 3):
        state = initial_symmetric_state(d)
        assert np.allclose(state[0, :], 1 / math.sqrt(d), atol=1e-15)
        assert np.count_nonzero(state) == d
    for d in range(1, 13):
        assert np.linalg.norm(initial_symmetric_state(d)) == pytest.approx(1.0, abs=1e-12)


def test_embed_origin_equals_initial_state():
    # both against the state written directly, byte for byte and stride for stride
    for d, dtype in itertools.product(range(1, 19), (np.float64, np.complex128)):
        want = direct_symmetric_state(d, dtype)
        for got in (embed_layer_state(origin_state(d), dtype), initial_symmetric_state(d, dtype)):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, (d, dtype)


def test_embed_zero_state():
    assert not np.any(embed_layer_state(zero_layer_state(3)))


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
def test_state_constructors_refuse_dtypes_the_walk_does_not_step_in(dtype):
    for build in (zero_full_state, initial_symmetric_state, lambda d, dt: embed_layer_state(origin_state(d), dt)):
        with pytest.raises(ValidationError, match="float64 or complex128"):
            build(4, dtype)


def test_embed_single_layer_coefficient():
    # up amplitude at layer 1 of d=2 lands on the edges that raise the weight:
    # from 01 that's direction 1 (first string character) and from 10 direction 2.
    d = 2
    s = zero_layer_state(d)
    c = 0.25 + 0.5j
    s.up[1] = c
    state = embed_layer_state(s)
    expected = {(parse_vertex(d, "01"), 1): c, (parse_vertex(d, "10"), 2): c}
    for x in range(4):
        for a in (1, 2):
            assert state[x, a - 1] == expected.get((x, a), 0.0)


@pytest.mark.parametrize("init", [origin_state, corner_pair_state, middle_state, "random"])
def test_embed_matches_where_construction(init):
    for d in range(1, 13):
        s = LayerState(d, stacked(*random_layer_coeffs(d, d))) if init == "random" else init(d)
        got = embed_layer_state(s)
        assert np.array_equal(got, where_embed_layer_state(s))
        assert got.T.flags.c_contiguous  # direction-major, as the step kernel reads it


def _embed_starts(d):
    """The three starts, zeros, a dense random closed state, and every class amplitude -0.0 - 0.0j."""
    signed = zero_layer_state(d)
    signed.up[:d] = signed.down[1:] = complex(-0.0, -0.0)
    dense = LayerState(d, stacked(*random_layer_coeffs(d, d)))
    return [origin_state(d), corner_pair_state(d), middle_state(d), zero_layer_state(d), dense, signed]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("d", range(1, 18))
def test_embed_matches_the_gather_byte_for_byte(d, dtype):
    # blocks of one vertex up to every row's bit inside the block, and the production block
    # (from d = 15 on, rows above it); at most 2**11 blocks per embedding, to bound the time.
    # The signed zeros fail a zero-block skip that tests values instead of bits.  The walk's
    # step-0 read squares only the blocks the embedding writes; the all -0.0 start writes every block
    blocks = [b for b in (1, 2, 4, 16, 64) if (1 << d) // b <= 1 << 11] + [hypercube._BLOCK]
    cfg = EvolutionConfig(d, grover_coeffs(d))
    sizes = []

    def block_weights(size):
        sizes.append(size)
        return _block_weights(size)

    for s in _embed_starts(d):
        if dtype is np.float64:
            s = LayerState(d, s.line.real)
        want = gather_embed_layer_state(s, dtype)
        want_row = layer_distribution_full(want).tobytes()
        for block in blocks:
            row = np.full((1, d + 1), np.nan)  # zeroed by the walk
            with small_blocks(block):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hypercube, "_block_weights", block_weights)
                    got = embed_layer_state(s, dtype)
                assert _full_walk(got, cfg, 0, row, _written_blocks(s, dtype)[1]) is got
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, block
            assert row.tobytes() == want_row, block
            assert sizes == [min(block, 1 << d)], block  # the embedding took the patched block
            sizes.clear()


def test_the_block_is_defined_once_and_small_blocks_reaches_every_binding():
    defined = [p.name for p in Path(sqrw.__file__).parent.glob("*.py") if "\n_BLOCK = " in p.read_text()]
    assert defined == ["hypercube.py"]
    modules = [importlib.import_module(f"sqrw.{m.name}") for m in pkgutil.iter_modules(sqrw.__path__)]
    bound = [m for m in modules if hasattr(m, "_BLOCK")]
    assert {m.__name__ for m in bound} == {"sqrw.hypercube", "sqrw.evolution"}
    with small_blocks(2):
        assert [m._BLOCK for m in bound] == [2] * len(bound)
    assert {m._BLOCK for m in bound} == {1 << 14}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("init", [origin_state, middle_state])
def test_embed_scratch_does_not_grow_with_d(init, dtype):
    # two tiles and the block's weight row, 0.38 MiB (float64) and 0.63 MiB (complex128), then the
    # walk's step-0 read: its two blocks and the fold's tile and index row, 0.50 and 0.75 MiB, all of
    # one block; one gather per row over the 2**d weight row took 4.0 and 5.0 MiB
    s, row = init(18), np.empty((1, 19))
    cfg = EvolutionConfig(18, grover_coeffs(18))
    tracemalloc.start()
    try:
        state = embed_layer_state(s, dtype)
        _full_walk(state, cfg, 0, row, _written_blocks(s, dtype)[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - state.nbytes <= 1.5 * (1 << 20)
    assert row[0].tobytes() == layer_distribution_full(state).tobytes()


@pytest.mark.parametrize("d", range(1, 9))
def test_real_states_are_the_real_parts(d):
    inits = (origin_state, corner_pair_state, middle_state)
    pairs = [(zero_full_state(d), zero_full_state(d, np.float64))]
    pairs.append((initial_symmetric_state(d), initial_symmetric_state(d, np.float64)))
    pairs += [(embed_layer_state(init(d)), embed_layer_state(init(d), np.float64)) for init in inits]
    for c, f in pairs:
        assert c.dtype == np.complex128 and f.dtype == np.float64
        assert f.T.flags.c_contiguous  # direction-major, as the step kernel reads it
        assert np.array_equal(f, c.real) and not c.imag.any()


def test_embed_refuses_an_imaginary_part_in_a_real_state():
    s = zero_layer_state(3)
    s.up[1] = 0.5j
    with pytest.raises(ValidationError, match="imaginary"):
        embed_layer_state(s, np.float64)
    assert embed_layer_state(s)[parse_vertex(3, "001"), 0] == 0.5j


def test_embed_norm_is_edge_counting_norm():
    for d, seed in [(3, 1), (6, 2)]:
        up, down = random_layer_coeffs(d, seed)
        s = LayerState(d, stacked(up, down))
        assert np.linalg.norm(embed_layer_state(s)) ** 2 == pytest.approx(
            edge_counting_norm(s), abs=1e-12
        )


def test_extract_recovers_layer_coefficients():
    d = 5
    up, down = random_layer_coeffs(d, 7)
    s = LayerState(d, stacked(up, down))
    recovered, deviation = extract_layer_state(embed_layer_state(s))
    assert deviation <= 1e-14
    assert np.max(np.abs(recovered.up - s.up)) <= 1e-14
    assert np.max(np.abs(recovered.down - s.down)) <= 1e-14


def test_memory_cap_enforced(monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, "100")
    with pytest.raises(MemoryCapError):
        ensure_full_state_fits(8)
    monkeypatch.setenv(MEMORY_ENV_VAR, str(8 * 256 * 16))
    ensure_full_state_fits(8)


@pytest.mark.parametrize("d", [31, 100_000, 10**9])
def test_memory_cap_message_for_a_huge_dimension(monkeypatch, d):
    # 2**d alone is over a 2**30 budget; the message names no d-digit count
    monkeypatch.setenv(MEMORY_ENV_VAR, str(2**30))
    with pytest.raises(MemoryCapError) as info:
        ensure_full_state_fits(d)
    assert f"d={d} needs more than 2**{d} bytes" in str(info.value)
    assert len(str(info.value)) < 200


def test_memory_env_override(monkeypatch):
    monkeypatch.setenv("SQRW_MEMORY_BYTES", "64")
    with pytest.raises(MemoryCapError):
        initial_symmetric_state(4)
