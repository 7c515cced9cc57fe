"""Full edge-state step: scattering rule, unitarity, symmetry, reductions."""

import cmath
import itertools
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import random_unit_state, reference_step, small_blocks
from oracles import (
    dense_operator,
    extract_layer_state,
    quantum_hitting_probability,
    rowwise_layer_distribution,
    vertex_weights,
)

from sqrw import evolution
from sqrw.errors import ValidationError
from sqrw.evolution import (
    EvolutionConfig,
    _full_walk,
    evolve,
    gather_incoming,
    layer_distribution_full,
    step,
    vertex_probability,
)
from sqrw.hypercube import (
    _written_blocks,
    direction_mask,
    embed_layer_state,
    initial_symmetric_state,
    parse_vertex,
    zero_full_state,
)
from sqrw.layers import (
    corner_pair_state,
    layer_distribution,
    middle_state,
    origin_state,
    reduced_step,
    zero_layer_state,
)
from sqrw.multiport import MultiportCoeffs, grover_coeffs
from sqrw.spectral import translation_apply


def test_step_d2_transmit_only():
    d = 2
    state = zero_full_state(d)
    state[parse_vertex(d, "00"), 0] = 1.0  # |00; 1>
    out = step(state, EvolutionConfig(d, grover_coeffs(d)))
    expected = zero_full_state(d)
    expected[parse_vertex(d, "10"), 1] = 1.0  # |10; 2>
    assert np.allclose(out, expected, atol=1e-15)


def test_step_d3_scattering_amplitudes():
    d = 3
    state = zero_full_state(d)
    state[parse_vertex(d, "000"), 0] = 1.0
    out = step(state, EvolutionConfig(d, grover_coeffs(d)))
    row = parse_vertex(d, "100")
    assert out[row, 0] == pytest.approx(-1 / 3, abs=1e-15)
    assert out[row, 1] == pytest.approx(2 / 3, abs=1e-15)
    assert out[row, 2] == pytest.approx(2 / 3, abs=1e-15)
    out[row, :] = 0.0
    assert not np.any(out)


def test_step_identity_multiport_is_shift():
    d = 2
    cfg = EvolutionConfig(d, MultiportCoeffs(1.0, 0.0, d))
    state = zero_full_state(d)
    state[parse_vertex(d, "00"), 0] = 1.0
    out = step(state, cfg)
    assert out[parse_vertex(d, "10"), 0] == 1.0
    assert np.count_nonzero(out) == 1


def test_evolve_zero_steps_is_copy():
    s = random_unit_state(4, 0)
    out = evolve(s, EvolutionConfig(4, grover_coeffs(4)), 0)
    assert np.array_equal(out, s)
    assert out is not s


def test_evolve_returns_direction_major_state():
    # rows of out.T are what the step kernel walks; contiguous rows are the fast case
    d = 5
    out = evolve(initial_symmetric_state(d), EvolutionConfig(d, grover_coeffs(d)), 1)
    assert out.T.flags.c_contiguous


@pytest.mark.parametrize("d", [3, 8])
def test_evolve_equals_chained_steps_bit_for_bit(d):
    cfg = EvolutionConfig(d, _unitary_coeffs(d, 0.7, 2.1))
    s = random_unit_state(d, 11)
    chained = s
    for _ in range(7):
        chained = step(chained, cfg)
    assert np.array_equal(evolve(s, cfg, 7), chained)


def _unitary_coeffs(d, a, b):
    """Vertex coefficients with eigenvalue e^(ia) on the uniform port state, e^(ib) off it."""
    t = (cmath.exp(1j * a) - cmath.exp(1j * b)) / d
    return MultiportCoeffs(cmath.exp(1j * b) + t, t, d)


def _chained_reference(state, cfg, steps):
    """``state`` and ``reference_step`` applied to it 1 .. ``steps`` times."""
    states = [state]
    for _ in range(steps):
        states.append(reference_step(states[-1], cfg))
    return states


def _layouts(state):
    """Copies of ``state`` stored direction-major (contiguous rows) and vertex-major (strided rows)."""
    return [state.T.copy().T, state.copy()]


@contextmanager
def _folds():
    """Record the address of the row, the block start and the block size of every fold of the walk and of the full reading."""
    folds = []
    make = evolution._layer_fold

    def layer_fold(size):
        tile, fold = make(size)

        def record(out, lo):
            folds.append((out.ctypes.data, lo, size))
            fold(out, lo)

        return tile, record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_layer_fold", layer_fold)
        yield folds


def _assert_every_window(folds, d):
    # every offset c = popcount(lo) of the block's k layers is folded, up to the last window c + k = d + 1
    (k,) = {size.bit_length() for _, _, size in folds}
    assert {lo.bit_count() for _, lo, _ in folds} == set(range(d + 2 - k))


# from one vertex per block to every bit inside it (d <= 4 at 16, d <= 6 at 64); 64 also
# puts the bits m = 16 and 32 inside a block, which production reaches only from d = 15
BLOCKS = (1, 2, 4, 16, 64)


@pytest.mark.parametrize("d", range(1, 11))
def test_layer_fold_sums_as_one_bincount_bit_for_bit(d):
    # probabilities over seven decades, so any other order of the additions shows in the bits
    rng = np.random.default_rng(70 + d)
    pv = rng.random(1 << d) * 10.0 ** rng.integers(-6, 1, 1 << d)
    want = np.bincount(vertex_weights(d), weights=pv, minlength=d + 1)
    for block in BLOCKS:
        size = min(block, 1 << d)
        tile, fold = evolution._layer_fold(size)
        assert tile.shape == (size,) and not tile.any()
        out = np.zeros(d + 1)
        for lo in range(0, 1 << d, size):
            tile[:] = pv[lo : lo + size]
            fold(out, lo)
            assert not tile.any(), (block, lo)  # zeroed for the next block
        assert np.array_equal(out, want), block


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("strided", [False, True])
def test_blocked_kernel_equals_reference_bit_for_bit(d, strided):
    # blocks of 1, 2, 4 and 16 put some bits above the block and the rest inside it
    # (every bit inside at block 16 and d <= 4); walks of 1, 2 and 3 steps end
    # with the rows above the block swapped and not swapped, and 0 steps reads the start
    cfg = EvolutionConfig(d, _unitary_coeffs(d, 0.7, 2.1))
    state = random_unit_state(d, d)
    want = _chained_reference(state, cfg, 3)
    for block, steps in itertools.product(BLOCKS, (0, 1, 2, 3)):
        psi = _layouts(state)[strided]  # never a view of state
        series = np.full((steps + 1, d + 1), np.nan)  # the walk must overwrite every row
        with small_blocks(block), _folds() as folds:
            assert _full_walk(psi, cfg, steps, series) is psi
        _assert_every_window(folds, d)
        assert np.array_equal(series[-1], rowwise_layer_distribution(psi)), (block, steps)
        if block == 1:  # numpy's in-place complex multiply rounds a one-element row its own way
            np.testing.assert_allclose(psi, want[steps], rtol=0, atol=1e-15)
            continue
        for k in range(steps + 1):
            assert np.array_equal(series[k], rowwise_layer_distribution(want[k])), (block, k)
        assert np.array_equal(psi, want[steps]), (block, steps)


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("strided", [False, True])
def test_real_state_steps_as_the_complex_state_bit_for_bit(d, strided):
    # grover and its negative: real coefficients, so a real state stays real
    real = random_unit_state(d, 60 + d).real
    for coeffs in (grover_coeffs(d), MultiportCoeffs(1 - 2 / d, -2 / d, d)):
        cfg = EvolutionConfig(d, coeffs)
        want = _chained_reference(real.astype(np.complex128), cfg, 3)
        for block, steps in itertools.product(BLOCKS, (1, 2, 3)):
            psis = [_layouts(real.astype(dtype))[strided] for dtype in (np.float64, np.complex128)]
            series = [np.full((steps + 1, d + 1), np.nan), np.full((steps + 1, d + 1), np.nan)]
            with small_blocks(block):
                for psi, rows in zip(psis, series):
                    assert _full_walk(psi, cfg, steps, rows) is psi
            sf, sc = series
            assert np.array_equal(sf, sc), (block, steps)
            for k in range(steps + 1):
                assert np.array_equal(sf[k], rowwise_layer_distribution(want[k])), (block, k)
            f, c = psis
            assert f.dtype == np.float64 and c.dtype == np.complex128
            assert np.array_equal(c, want[steps]), (block, steps)
            assert np.array_equal(f, c.real), (block, steps)
            assert not c.imag.any(), (block, steps)


def _tied_start(d):
    """A float64 state of -1, -0.0, 0.0, 1 and 2, both zeros at any d: many arrivals tie T = t * total."""
    state = np.random.default_rng(200 + d).choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(1 << d, d))
    state[0, 0], state[-1, 0] = 0.0, -0.0
    return state


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("strided", [False, True])
def test_grover_subtraction_has_the_bytes_of_multiply_then_add(d, strided):
    # the float64 Grover walk writes T - a, the float64 oracle (-1.0) * a + T; compared
    # as bytes, so a -0.0 where the oracle has 0.0 fails
    cfg = EvolutionConfig(d, grover_coeffs(d))
    start = _tied_start(d)
    assert set(np.signbit(start[start == 0])) == {False, True}
    incoming = gather_incoming(start)
    ties = incoming == incoming.sum(axis=1, keepdims=True) * (2 / d)
    assert (ties & (incoming == 0)).any() and (d == 1 or (ties & (incoming != 0)).any())
    want = _chained_reference(start, cfg, 3)
    assert {w.dtype for w in want} == {np.dtype(np.float64)}
    for block, steps, with_series in itertools.product(BLOCKS, (1, 2, 3), (False, True)):
        psi = _layouts(start)[strided]
        series = np.full((steps + 1, d + 1), np.nan) if with_series else None
        with small_blocks(block):
            assert _full_walk(psi, cfg, steps, series) is psi
        assert psi.tobytes() == want[steps].tobytes(), (block, steps, with_series)
        for k in range(steps + 1) if with_series else ():
            assert series[k].tobytes() == rowwise_layer_distribution(want[k]).tobytes(), (block, k)


def _cone_starts(d, dtype):
    """(name, state, live blocks) for the light-cone sweep, in the walk's storage.

    The three layer starts are embedded, with the blocks ``_written_blocks`` gives.  One vertex's
    edges start from that vertex's block.  Zeros but for a -0.0 on the all-ones vertex's edges,
    which are down edges of layer d, start from the blocks ``_written_blocks`` gives for that
    layer state: the last block only, which a test of values instead of bits would miss.
    """
    for name, s in (("origin", origin_state(d)), ("corners", corner_pair_state(d)), ("middle", middle_state(d))):
        yield name, embed_layer_state(s, dtype), _written_blocks(s, dtype)[1]
    neg_zero, state = zero_layer_state(d), zero_full_state(d, dtype)
    neg_zero.down[d] = state[-1] = -0.0
    yield "-0.0", state, _written_blocks(neg_zero, dtype)[1]
    x = (1 << d) // 3  # 0101...: inside a middle block
    vertex = zero_full_state(d, dtype)
    vertex[x] = random_unit_state(d, 90 + d)[x] if dtype == np.complex128 else 0.5
    yield "vertex", vertex, [x - x % min(evolution._BLOCK, 1 << d)]


def _minus_zero_coeffs(d):
    """custom:-1,0,-0,0: t * (+0.0) is -0.0, so the every-block walk writes -0.0 over the zeros a skipped block keeps."""
    return MultiportCoeffs(complex(-1.0, 0.0), complex(-0.0, 0.0), d)


def _assert_the_cone_is_exact(d, block):
    """The walk from the live blocks has the bytes of the every-block walk's series, for every
    count up to one past the steps that fill the cone, and its state: bytes for coins that step
    +0.0 to +0.0, and values up to the sign of a zero for r = -1, t = -0.0."""
    coins = [(np.float64, grover_coeffs(d), True), (np.complex128, _unitary_coeffs(d, 0.7, 2.1), True)]
    coins += [(dtype, _minus_zero_coeffs(d), False) for dtype in (np.float64, np.complex128)]
    with small_blocks(block):
        above = d - min(block, 1 << d).bit_length() + 1  # bits above the block
        for dtype, coeffs, state_bytes in coins:
            cfg = EvolutionConfig(d, coeffs)
            for (name, start, live), steps in itertools.product(_cone_starts(d, dtype), range(above + 2)):
                want, want_series = start.T.copy().T, np.full((steps + 1, d + 1), np.nan)
                _full_walk(want, cfg, steps, want_series)
                for series in (None, np.full((steps + 1, d + 1), np.nan)):
                    got = start.T.copy().T
                    _full_walk(got, cfg, steps, series, live)
                    why = (name, np.dtype(dtype).name, coeffs.t, steps, series is not None)
                    assert got.tobytes() == want.tobytes() if state_bytes else np.array_equal(got, want), why
                    assert series is None or series.tobytes() == want_series.tobytes(), why


# the sweep is for d = 1..12 at blocks 1, 2, 4 and 16; past 2**6 blocks (the production count at
# d = 20) a pair takes up to minutes (d = 12 at block 1: 7), so the suite stops there
CONE_GRID = [(d, b) for d in range(1, 13) for b in (1, 2, 4, 16) if d - min(b, 1 << d).bit_length() + 1 <= 6]


@pytest.mark.parametrize("d,block", CONE_GRID)
def test_the_light_cone_has_the_bytes_of_every_block(d, block):
    _assert_the_cone_is_exact(d, block)


def test_the_walk_steps_the_light_cone_only():
    # d = 10 at blocks of 16 has 64 blocks, as production at d = 20: from the origin, step 0
    # reads block 0, step 1 steps it and its 6 partners, step 2 every block with popcount(lo / 16) <= 2,
    # whatever the coin steps +0.0 to
    d = 10
    for coeffs in (grover_coeffs(d), _minus_zero_coeffs(d)):
        with small_blocks(16), _folds() as folds:
            state = embed_layer_state(origin_state(d), np.float64)
            _full_walk(state, EvolutionConfig(d, coeffs), 2, np.empty((3, d + 1)),
                       _written_blocks(origin_state(d), np.float64)[1])
        per_step = [[lo for _, lo, _ in row] for _, row in itertools.groupby(folds, key=lambda f: f[0])]
        assert [len(blocks) for blocks in per_step] == [1, 7, 22], coeffs.t
        assert per_step == [[lo for lo in range(0, 1 << d, 16) if (lo >> 4).bit_count() <= n] for n in (0, 1, 2)]


def test_the_walks_step_0_read_squares_only_the_written_block(monkeypatch):
    # the origin at d = 18 writes one of its 16 production blocks: one tile sum per row, none for a zero block
    d, calls = 18, []
    add = evolution._add_probability
    monkeypatch.setattr(evolution, "_add_probability", lambda *a: calls.append(a[1].size) or add(*a))
    state, row = embed_layer_state(origin_state(d), np.float64), np.empty((1, d + 1))
    _full_walk(state, EvolutionConfig(d, grover_coeffs(d)), 0, row, _written_blocks(origin_state(d), np.float64)[1])
    assert calls == [evolution._BLOCK] * d
    assert row[0].tobytes() == layer_distribution_full(state).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("strided", [False, True])
def test_reverse_moves_the_bytes_of_the_reversed_view(dtype, strided):
    # random bits (NaN payloads and signed zeros included) for every bit m inside a block
    size = evolution._BLOCK
    words = np.dtype(dtype).itemsize // 8
    rng = np.random.default_rng(9)
    state = rng.integers(0, 1 << 64, size=(size, 3 * words), dtype=np.uint64).view(dtype)
    row = state[:, 1] if strided else np.ascontiguousarray(state[:, 1])
    assert row.flags.c_contiguous != strided
    before = row.tobytes()
    m = 1
    while m < size:
        out, want = np.empty(size, dtype), np.empty(size, dtype)
        np.copyto(want.reshape(-1, 2, m), row.reshape(-1, 2, m)[:, ::-1])
        evolution._reverse(out, row, m)
        assert out.tobytes() == want.tobytes(), m
        m *= 2
    assert row.tobytes() == before


@pytest.mark.parametrize("d", range(1, 9))
def test_step_and_evolve_run_float64_states_as_the_real_part(d):
    layer = corner_pair_state(d)
    starts = [
        (initial_symmetric_state(d, np.float64), initial_symmetric_state(d)),
        (embed_layer_state(layer, np.float64), embed_layer_state(layer)),
    ]
    for coeffs in (grover_coeffs(d), MultiportCoeffs(1 - 2 / d, -2 / d, d)):
        cfg = EvolutionConfig(d, coeffs)
        for block in (2, 4, 16):
            with small_blocks(block):
                for real, cplx in starts:
                    assert np.array_equal(evolve(real, cfg, 4), evolve(cplx, cfg, 4).real)
                    for _ in range(4):
                        real, cplx = step(real, cfg), step(cplx, cfg)
                        assert real.dtype == np.float64, block
                        assert np.array_equal(real, cplx.real), block
    state = initial_symmetric_state(d, np.float64)
    with pytest.raises(ValidationError, match="real state"):
        step(state, EvolutionConfig(d, _unitary_coeffs(d, 0.7, 2.1)))
    assert np.array_equal(state, initial_symmetric_state(d, np.float64))


def test_real_state_refuses_a_complex_coefficient():
    d = 3
    state = np.ones((1 << d, d))
    cfg = EvolutionConfig(d, _unitary_coeffs(d, 0.7, 2.1))
    with pytest.raises(ValidationError, match="real state"):
        _full_walk(state, cfg, 1, np.empty((2, d + 1)))
    assert np.array_equal(state, np.ones((1 << d, d)))  # refused before any write


@pytest.mark.parametrize("d", range(1, 11))
def test_layer_distribution_full_equals_rowwise_bit_for_bit(d):
    # complex and float64 states (the real parts), each in both memory orders
    state = random_unit_state(d, 40 + d)
    for layout in _layouts(state) + _layouts(state.real):
        want = rowwise_layer_distribution(layout)
        assert np.array_equal(layer_distribution_full(layout), want)
        for block in BLOCKS:
            with small_blocks(block), _folds() as folds:
                assert np.array_equal(layer_distribution_full(layout), want), block
            _assert_every_window(folds, d)


@pytest.mark.parametrize("dtype,passes", [(np.float64, 1), (np.complex128, 1), (np.complex128, 2)])
def test_add_probability_reads_re_re_plus_im_im_and_allocates_nothing(dtype, passes):
    # the walk squares a complex block in one pass through its float view, layer_distribution_full
    # in two through its one-block scratch; a strided column, as of a vertex-major state, reads the same bits
    n = 1 << 14
    rng = np.random.default_rng(5)
    block = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    block = block if dtype is np.complex128 else block.real.copy()
    base = rng.random(n)
    for amps in (np.ascontiguousarray(block[:, 1]), block[:, 1]):
        want = base + (amps.real * amps.real + amps.imag * amps.imag)
        pv, edge = base.copy(), np.empty(n * np.dtype(dtype).itemsize // 8 // passes)
        tracemalloc.start()
        try:
            evolution._add_probability(pv, amps, edge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024, amps.strides
        assert pv.tobytes() == want.tobytes(), amps.strides


# bookkeeping (about 5 KiB): the walk's operands are contiguous, so numpy allocates no
# ufunc buffer; a third block, or a 2**d row, would exceed it on either dtype
SCRATCH_SLACK = 32 << 10
FOLD_ROWS = 2 * ((1 << 14) + 15) * 8  # the fold's float64 tile and int64 index row, 15 layers each


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("with_series", [False, True])
@pytest.mark.parametrize("d", [16, 18])
def test_walk_step_allocates_two_blocks_in_the_state_kind(d, with_series, dtype):
    # the scratch is two 2**14-vertex blocks, float64 for a real state, whatever d;
    # one step, so the rows above the block are swapped back through a block too.
    # A series adds the fold's two block rows, and no 2**d row
    state = initial_symmetric_state(d, dtype)
    series = np.empty((2, d + 1)) if with_series else None
    cfg = EvolutionConfig(d, grover_coeffs(d))
    tracemalloc.start()
    try:
        _full_walk(state, cfg, 1, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fold = FOLD_ROWS if with_series else 0
    assert peak <= 2 * (1 << 14) * np.dtype(dtype).itemsize + fold + SCRATCH_SLACK


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("d", [16, 18])
def test_layer_distribution_full_allocates_one_block_and_the_fold(d, dtype):
    # a float64 block for the squares and the fold's two block rows, whatever d and dtype
    state = initial_symmetric_state(d, dtype)
    tracemalloc.start()
    try:
        layer_distribution_full(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 14) * 8 + FOLD_ROWS + SCRATCH_SLACK


def test_gather_incoming_reads_either_memory_order():
    s = random_unit_state(5, 12)
    direction_major = np.ascontiguousarray(s.T).T
    assert np.array_equal(gather_incoming(direction_major), gather_incoming(s))


def test_gather_incoming_keeps_a_float64_state_real():
    real = random_unit_state(5, 13).real.copy()
    incoming = gather_incoming(real)
    assert incoming.dtype == np.float64
    assert np.array_equal(incoming, gather_incoming(real.astype(np.complex128)).real)


def test_two_steps_d2_all_on_far_corner():
    d = 2
    out = evolve(initial_symmetric_state(d), EvolutionConfig(d, grover_coeffs(d)), 2)
    assert layer_distribution_full(out)[2] == pytest.approx(1.0, abs=1e-12)


def test_norm_conserved_100_steps():
    s = random_unit_state(8, 1)
    out = evolve(s, EvolutionConfig(8, grover_coeffs(8)), 100)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_step_is_linear():
    d = 5
    cfg = EvolutionConfig(d, grover_coeffs(d))
    a = random_unit_state(d, 2)
    b = random_unit_state(d, 3)
    alpha, beta = 0.3 - 0.7j, 1.1 + 0.2j
    lhs = step(alpha * a + beta * b, cfg)
    rhs = alpha * step(a, cfg) + beta * step(b, cfg)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_block_structure_single_arrival_vertex():
    d = 4
    cfg = EvolutionConfig(d, grover_coeffs(d))
    y = 9
    state = zero_full_state(d)
    for a in range(1, d + 1):
        state[y ^ direction_mask(d, a), a - 1] = 0.5  # every edge entering y
    out = step(state, cfg)
    support = np.nonzero(np.any(out != 0, axis=1))[0]
    assert list(support) == [y]


@pytest.mark.parametrize("d", [2, 4, 6])
def test_translations_commute_with_step(d):
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = random_unit_state(d, d)
    for b in range(1 << d):
        lhs = step(translation_apply(s, b), cfg)
        rhs = translation_apply(step(s, cfg), b)
        assert np.array_equal(lhs, rhs)


def test_layer_probability_initial_and_after_one_step():
    d = 2
    s = initial_symmetric_state(d)
    assert layer_distribution_full(s)[0] == pytest.approx(1.0, abs=1e-15)
    assert layer_distribution_full(s)[1] == 0.0
    out = step(s, EvolutionConfig(d, grover_coeffs(d)))
    assert layer_distribution_full(out)[1] == pytest.approx(1.0, abs=1e-12)


def test_layer_distribution_sums_to_norm():
    s = random_unit_state(6, 5)
    assert layer_distribution_full(s).sum() == pytest.approx(1.0, abs=1e-12)


def test_vertex_probability_values():
    d = 4
    s = initial_symmetric_state(d)
    assert vertex_probability(s, 0) == pytest.approx(1.0, abs=1e-12)
    assert vertex_probability(s, 3) == 0.0
    uniform = np.full((1 << d, d), 1 / math.sqrt(d * (1 << d)), dtype=np.complex128)
    assert vertex_probability(uniform, 11) == pytest.approx(1 / (1 << d), abs=1e-12)


@pytest.mark.parametrize("d,value", [(2, 0.5), (3, 64 / 243), (4, 9 / 64)])
def test_quantum_hitting_reference_values(d, value):
    assert quantum_hitting_probability(d) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("init", ["origin", "corners", "middle"])
def test_reduced_walk_matches_full_walk(d, init):
    make = {"origin": origin_state, "corners": corner_pair_state, "middle": middle_state}[init]
    c = grover_coeffs(d)
    cfg = EvolutionConfig(d, c)
    layer = make(d)
    full = embed_layer_state(layer)
    for _ in range(min(30, 2 * d + 5)):
        layer = reduced_step(layer, c)
        full = step(full, cfg)
    assert np.max(np.abs(layer_distribution(layer) - layer_distribution_full(full))) <= 1e-10
    recovered, deviation = extract_layer_state(full)
    assert deviation <= 1e-12
    assert np.max(np.abs(recovered.up - layer.up)) <= 1e-12
    assert np.max(np.abs(recovered.down - layer.down)) <= 1e-12


def test_override_changes_only_marked_vertex_row():
    # the search oracle's marked step differs from the one-coin kernel on the mark only
    d = 4
    marked = 6
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = random_unit_state(d, 8)
    plain = step(s, cfg)
    with_mark = reference_step(s, cfg, {marked: MultiportCoeffs(-1.0, 0.0, d)})
    diff_rows = np.nonzero(np.any(plain != with_mark, axis=1))[0]
    assert list(diff_rows) == [marked]


def test_dense_operator_is_unitary_and_capped():
    d = 3
    u = dense_operator(EvolutionConfig(d, grover_coeffs(d)))
    n = d * (1 << d)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    with pytest.raises(ValidationError):
        dense_operator(EvolutionConfig(9, grover_coeffs(9)), cap=8)


def test_config_validation():
    with pytest.raises(ValidationError):
        EvolutionConfig(3, grover_coeffs(4))
    with pytest.raises(ValidationError):
        EvolutionConfig(3, MultiportCoeffs(0.5, 0.5, 3))


def test_step_rejects_mismatched_state():
    with pytest.raises(ValidationError):
        step(zero_full_state(3), EvolutionConfig(4, grover_coeffs(4)))


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
@pytest.mark.parametrize("walk", [step, lambda state, cfg: evolve(state, cfg, 3)], ids=["step", "evolve"])
def test_step_and_evolve_refuse_dtypes_the_walk_does_not_step_in(walk, dtype):
    # the constructors' rule: a caller-built state is float64 or complex128 too
    state = initial_symmetric_state(4, np.float64).astype(dtype)
    with pytest.raises(ValidationError, match=rf"float64 or complex128, not {np.dtype(dtype)}$"):
        walk(state, EvolutionConfig(4, grover_coeffs(4)))
