"""Property tests of both integrators: weight units and vertex labels do not
change the vertex trajectory beyond roundoff."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from specsync import (
    OscillatorSystem,
    WeightedGraph,
    decompose,
    integrate_coefficient,
    integrate_vertex,
    reconstruct_trajectory,
    spectral_basis,
)

from conftest import relabelled_systems

DT, STEPS = 0.01, 300


def both_forms(system, theta0):
    """Vertex states of both forms; the coefficient form is compared after
    reconstruction, because a degenerate eigenvector block may rotate."""
    basis = spectral_basis(system.graph)
    coeffs = integrate_coefficient(system, basis, decompose(theta0, basis), DT, STEPS)
    return (integrate_vertex(system, theta0, DT, STEPS).states,
            reconstruct_trajectory(coeffs).states)


def initial_phases(seed, n):
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, n)


@settings(max_examples=30, deadline=None)
@given(relabelled_systems(), st.sampled_from([1e-9, 1e-3, 1e3, 1e6]), st.integers(0, 2**32 - 1))
def test_weight_units_cancel_against_coupling(pair, c, seed):
    # w -> c w with sigma -> sigma / c is the same right-hand side.
    system, _ = pair
    g = system.graph
    scaled = OscillatorSystem(
        graph=WeightedGraph(g.n, np.column_stack([g.edge_i, g.edge_j, c * g.edge_w])),
        omega=system.omega, sigma=system.sigma / c,
    )
    theta0 = initial_phases(seed, g.n)
    for got, want in zip(both_forms(scaled, theta0), both_forms(system, theta0)):
        assert np.abs(got - want).max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(relabelled_systems(), st.integers(0, 2**32 - 1))
def test_relabelling_permutes_trajectories(pair, seed):
    original, moved = pair
    # Distinct frequencies name each vertex's new label: moved.omega[perm[i]]
    # is original.omega[i].
    assume(np.unique(original.omega).size == original.graph.n)
    perm = np.array([np.flatnonzero(moved.omega == w)[0] for w in original.omega])
    theta0 = initial_phases(seed, perm.size)
    moved_theta0 = np.empty(perm.size)
    moved_theta0[perm] = theta0
    for got, want in zip(both_forms(moved, moved_theta0), both_forms(original, theta0)):
        assert np.abs(got[:, perm] - want).max() <= 1e-10
