"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 is parametrized over its four (family, start) cases; the
two corner-pair cases fail by construction: that initial state is invariant
under translation by the all-ones vertex, which commutes with the walk, so
its layer mean is pinned at d/2 for every step and cannot genuinely cross
it (see the decisions ledger).  The revival physics those cases were after
is verified through the corner-mass series in test_layers.py.
"""

import math

import numpy as np
import pytest

from helpers import (
    block_spectra,
    brute_force_first_detection,
    count_local_maxima,
    random_unit_state,
    traversal_amplitude,
)
from oracles import (
    basis_operator_deviation,
    classical_initial_distribution,
    classical_walk_step,
    conserved_quantity_series,
    dense_spectrum,
    evolve_layers,
    fourier_offblock_deviation,
    full_search_series,
    layer_mean,
    quantum_hitting_probability,
    spectrum_mismatch,
    verify_ca_eigenstructure,
)

from sqrw.circuit import operator_deviation
from sqrw.evolution import EvolutionConfig, evolve, layer_distribution_full, step
from sqrw.hypercube import embed_layer_state
from sqrw.layers import (
    classical_hitting_probability,
    corner_pair_state,
    edge_counting_norm,
    hitting_amplitude_closed_form,
    hitting_ratio_table,
    layer_distribution,
    layer_distribution_series,
    middle_state,
    origin_state,
    reduced_step,
)
from sqrw.multiport import grover_coeffs, multiport_matrix, pseudo_eigensystem, symmetric_coeffs
from sqrw.scattering import (
    boundary_coeffs,
    detection_probability_series,
    initial_tail_photon,
    interferometer_amplitude,
    scatter_step,
)
from sqrw.search import SearchConfig, run_search, uniform_edge_state
from sqrw.spectral import rotation_apply, translation_apply

# Reference peak recorded from this implementation's deterministic d = 8 run
# (uniform start, diffusion walk, phase-flip mark, out-edge metric).
SEARCH_REFERENCE_D8 = {"peak_step": 19, "peak_probability": 0.43447149924737966}


def _families(d):
    return [("grover", grover_coeffs(d)), ("symmetric", symmetric_coeffs(d, 1.0))]


def test_c01_unitarity_suite():
    for d in range(2, 11):
        state = random_unit_state(d, 100 + d)
        out = evolve(state, EvolutionConfig(d, grover_coeffs(d)), 100)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10, f"norm drift at d={d}"
        for _, c in _families(d):
            m = multiport_matrix(c)
            assert np.max(np.abs(m @ m.conj().T - np.eye(d))) <= 1e-12
    print("[C1] unitarity suite: PASS")


def test_c02_reduced_equals_full_oracle():
    starts = [("origin", origin_state), ("corners", corner_pair_state), ("middle", middle_state)]
    for d in range(2, 11):
        c = grover_coeffs(d)
        cfg = EvolutionConfig(d, c)
        for _, make in starts:
            layer = make(d)
            full = embed_layer_state(layer)
            for _ in range(60):
                layer = reduced_step(layer, c)
                full = step(full, cfg)
                gap = np.max(np.abs(layer_distribution(layer) - layer_distribution_full(full)))
                assert gap <= 1e-10, f"d={d}: layer probabilities diverge by {gap}"
    print("[C2] reduced walk matches full walk: PASS")


def test_c03_hitting_amplitude():
    for d in range(2, 21):
        c = grover_coeffs(d)
        final = evolve_layers(origin_state(d), c, d)
        assert abs(final.down[d] - hitting_amplitude_closed_form(d, c)) <= 1e-10
    for d, reference in [(2, 0.5), (3, 64 / 243), (4, 9 / 64)]:
        closed = abs(hitting_amplitude_closed_form(d, grover_coeffs(d))) ** 2
        assert closed == pytest.approx(reference, abs=1e-12)
    for d in range(2, 11):
        simulated = quantum_hitting_probability(d)
        closed = abs(hitting_amplitude_closed_form(d, grover_coeffs(d))) ** 2
        assert abs(simulated - closed) <= 1e-10
    print("[C3] hitting amplitude, closed form vs both walks: PASS")


def test_c04_classical_comparison():
    for d in range(1, 13):
        p = classical_initial_distribution(d)
        for _ in range(d):
            p = classical_walk_step(p, d)
        assert abs(p[d] - classical_hitting_probability(d)) <= 1e-12
    table = hitting_ratio_table(20)
    ratios = table[1:, 3]  # d = 3..20
    assert np.all(ratios >= 1.0)
    assert np.all(np.diff(ratios) > 0)
    print("[C4] classical chain and quantum/classical ratio trend: PASS")


def test_c05_origin_packet_surface():
    d = 50
    series = layer_distribution_series(d, grover_coeffs(d), origin_state(d), 100)
    assert np.max(np.abs(series.sum(axis=1) - 1.0)) <= 1e-10
    means = np.array([layer_mean(row) for row in series])
    peak = int(np.argmax(means))
    assert means[peak] > d / 2, "packet never passed the middle layer"
    assert peak < 100
    assert means[100] < means[peak], "no reflection off the far side within the window"
    print("[C5] origin-packet surface (resonator bounce): PASS")


# Genuine-crossing floor: accumulated rounding in the layer mean sits near
# 1e-13, real excursions near one full layer, so 1e-9 separates them cleanly.
_CROSSING_FLOOR = 1e-9


def _genuine_crossings(means, mid):
    signs = np.sign(np.where(np.abs(means - mid) > _CROSSING_FLOOR, means - mid, 0.0))
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


@pytest.mark.parametrize("family", ["grover", "symmetric"])
@pytest.mark.parametrize("start", ["corners", "middle"])
def test_c06_revival_mean_crossings(family, start):
    d = 50
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    init = corner_pair_state(d) if start == "corners" else middle_state(d)
    series = layer_distribution_series(d, c, init, 250)
    means = np.array([layer_mean(row) for row in series])
    crossings = _genuine_crossings(means, d / 2)
    status = "PASS" if crossings >= 2 else "FAIL"
    print(f"[C6] layer mean crosses d/2 twice ({family}/{start}): {status} ({crossings} crossings)")
    assert crossings >= 2, (
        f"{family}/{start}: {crossings} genuine crossings; the corner-pair start is "
        "mirror-symmetric for every step, so its layer mean is pinned at d/2 "
        "(see notes in the decisions ledger; revivals verified via corner mass)"
    )


def test_c07_circuit_equivalence():
    for d in range(2, 11):
        for name, c in _families(d):
            dev = operator_deviation(d, c)
            assert dev <= 1e-12, f"gate/scattering deviation {dev} at d={d} ({name})"
            if d <= 6:
                gap = abs(dev - basis_operator_deviation(d, c))
                assert gap <= 1e-15, f"probe vs basis columns differ by {gap} at d={d} ({name})"
    for d in range(2, 7):
        report = verify_ca_eigenstructure(d)
        assert report.passed, f"flip-gate structure failed at d={d}: {report}"
    for d in (2, 4, 6, 8):
        for _, c in _families(d):
            m = multiport_matrix(c)
            predicted = np.sort_complex(
                np.concatenate([[v] * mult for v, mult in pseudo_eigensystem(c)])
            )
            dense = np.sort_complex(np.linalg.eigvals(m))
            assert np.max(np.abs(predicted - dense)) <= 1e-10
    print("[C7] circuit decomposition equals scattering step: PASS")


def test_c08_block_diagonalization():
    for d in range(2, 7):
        for _, c in _families(d):
            mismatch = spectrum_mismatch(block_spectra(d, c).ravel(), dense_spectrum(d, c))
            assert mismatch <= 1e-10, f"spectrum mismatch {mismatch} at d={d}"
        off, blk = fourier_offblock_deviation(d, grover_coeffs(d))
        assert off <= 1e-12 and blk <= 1e-12
    for d in range(2, 9):
        cfg = EvolutionConfig(d, grover_coeffs(d))
        s = random_unit_state(d, 200 + d)
        stepped = step(s, cfg)
        for b in range(1 << d):
            gap = np.max(np.abs(step(translation_apply(s, b), cfg) - translation_apply(stepped, b)))
            assert gap <= 1e-12
        gap = np.max(np.abs(step(rotation_apply(s), cfg) - rotation_apply(stepped)))
        assert gap <= 1e-12
    print("[C8] Fourier block diagonalization and symmetries: PASS")


def test_c09_scattering():
    d = 10
    c, b = symmetric_coeffs(d, 1.0), boundary_coeffs(d)
    s = initial_tail_photon(d)
    series = np.empty(401)
    series[0] = abs(s.up[d]) ** 2
    left = 0.0  # what left the cube is on the tails: the exits of every step so far
    for n in range(1, 401):
        s = scatter_step(s, c, b)
        left += abs(s.up[d]) ** 2 + abs(s.down[0]) ** 2
        assert abs(edge_counting_norm(s) + left - 1.0) <= 1e-10, f"conservation broke at step {n}"
        series[n] = abs(s.up[d]) ** 2
    assert np.all(series[: d + 1] == 0.0), "light cone violated"
    arrivals = series[(d + 1) % 2 :: 2]
    assert count_local_maxima(arrivals) >= 2, "no beat structure in the detection series"
    for d_small in range(2, 7):
        cs, bs = grover_coeffs(d_small), boundary_coeffs(d_small)
        first = detection_probability_series(d_small, cs, bs, n_max=d_small + 1)[d_small + 1]
        brute = abs(brute_force_first_detection(d_small, cs, bs)) ** 2
        assert abs(first - brute) <= 1e-10
    print("[C9] scattering: conservation, light cone, first arrival, beats: PASS")


def test_c10_interferometer():
    rng = np.random.default_rng(2024)
    for d in range(2, 9):
        c = grover_coeffs(d)
        for _ in range(20):
            gamma = rng.normal(size=d) + 1j * rng.normal(size=d)
            closed = interferometer_amplitude(d, gamma, c)
            assert abs(closed - traversal_amplitude(gamma, c)) <= 1e-10
    d = 6
    c = grover_coeffs(d)
    zero_sum = np.zeros(d, dtype=np.complex128)
    zero_sum[0], zero_sum[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert abs(traversal_amplitude(zero_sum, c)) <= 1e-12
    g1 = rng.normal(size=d) + 1j * rng.normal(size=d)
    g2 = rng.normal(size=d) + 1j * rng.normal(size=d)
    g2 += (g1.sum() - g2.sum()) / d
    assert abs(traversal_amplitude(g1, c) - traversal_amplitude(g2, c)) <= 1e-12
    print("[C10] interferometer amplitude (closed form vs simulation): PASS")


def test_c11_search():
    d = 8
    n_vertices = 1 << d
    steps = int(4 * math.sqrt(n_vertices))
    series = run_search(SearchConfig(dim=d, marked=0, steps=steps))
    peak = int(np.argmax(series))
    assert series[peak] >= 25 / n_vertices
    # the peak value repeats on the paired step, so accept either of the two
    reference_step = SEARCH_REFERENCE_D8["peak_step"]
    assert peak in (reference_step, reference_step + 1)
    assert series[peak] == pytest.approx(
        SEARCH_REFERENCE_D8["peak_probability"], abs=1e-12
    )
    shifted = full_search_series(SearchConfig(dim=d, marked=173, steps=steps))
    assert np.max(np.abs(series - shifted)) <= 1e-12
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = uniform_edge_state(d)
    for _ in range(steps):
        s = step(s, cfg)
        assert abs(np.sum(np.abs(s[0, :]) ** 2) - 1 / n_vertices) <= 1e-12
    print(
        "[C11] search: peak %.4f at step %d (baseline %.4f): PASS"
        % (series[peak], peak, 1 / n_vertices)
    )


def test_c12_conserved_quantity_audit():
    for d in (4, 10, 50):
        for name, c in _families(d):
            edge, squared = conserved_quantity_series(d, c, origin_state(d), 100)
            edge_drift = float(np.max(np.abs(edge - edge[0])))
            squared_drift = float(np.max(np.abs(squared - squared[0])) / squared[0])
            print(
                f"[C12] d={d} {name}: edge-counting drift {edge_drift:.3e}; "
                f"squared-binomial relative drift {squared_drift:.3e}"
            )
            assert edge_drift <= 1e-10
    print("[C12] conserved-quantity audit (edge-counting form conserved): PASS")
