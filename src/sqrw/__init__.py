"""Scattering quantum walk on the d-dimensional hypercube.

Photon amplitudes live on directed edges and evolve by local scattering at
the vertices.  The package provides the full exponential-state walk, the
O(d) layer-reduced walk for symmetric states, scattering through attached
semi-infinite tails, the equivalent gate cascade plus coin circuit, a
marked-vertex search driver, the Fourier block diagonalization of the step
operator and a CSV command line (the ``sqrw`` entry point).

Its public library is the union of the modules' ``__all__``.  A name is in
it if it names a state, a coefficient family, a closed form, a symmetry or
a conserved quantity, if it is the only way to build or read a state, or if
the benchmark's spans (``perfbench/spans.py``) wrap it.  A name whose result
is fixed by construction, or that restates numpy or another function in one
expression, is not.
"""

from .errors import MemoryCapError, SqrwError, ValidationError
from .multiport import (
    MultiportCoeffs,
    grover_coeffs,
    multiport_matrix,
    phase_coeffs,
    pseudo_eigensystem,
    symmetric_coeffs,
)
from .hypercube import embed_layer_state, initial_symmetric_state
from .layers import (
    LayerState,
    classical_hitting_probability,
    corner_pair_state,
    edge_counting_norm,
    hitting_amplitude_closed_form,
    hitting_ratio_table,
    layer_distribution_series,
    middle_state,
    origin_state,
    reduced_step,
)
from .evolution import EvolutionConfig, evolve, layer_distribution_full, step, vertex_probability
from .scattering import (
    boundary_coeffs,
    detection_probability_series,
    interferometer_amplitude,
    scatter_step,
)
from .circuit import apply_coin, apply_phicnot, circuit_step
from .search import SearchConfig, run_search, uniform_edge_state
from .spectral import block_matrix, rotation_apply, translation_apply

__version__ = "0.1.0"
