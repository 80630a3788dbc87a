"""Property tests of both integrators: weight units and vertex labels do not
change the vertex trajectory beyond roundoff, and on an exact AEP the
cell-constant dynamics are the quotient system's, with or without a lag
per pair of cells."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from specsync import (
    OscillatorSystem,
    PlantedAepConfig,
    WeightedGraph,
    integrate_coefficient,
    integrate_vertex,
    planted_aep,
    spectral_basis,
)

from specsync.dynamics import _edge_coupling

from conftest import reconstruct_trajectory, relabelled_systems

DT, STEPS = 0.01, 300


def both_forms(system, theta0):
    """Vertex states of both forms; the coefficient form is compared after
    reconstruction, because a degenerate eigenvector block may rotate."""
    basis = spectral_basis(system.graph)
    coeffs = integrate_coefficient(system, basis, basis.vertex_vectors.T @ theta0, DT, STEPS)
    return (integrate_vertex(system, theta0, DT, STEPS).states,
            reconstruct_trajectory(coeffs, basis).states)


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


@st.composite
def planted_quotients(draw):
    """A planted AEP config with 2-3 cells of distinct sizes, its quotient
    d, d[a, b] the weight each vertex of cell a sends into cell b, and an
    antisymmetric lag per ordered pair of cells. With unequal cells d is
    not symmetric."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=3, unique=True))
    k = len(sizes)
    between = np.zeros((k, k))  # |V_a| d_ab, the total weight between cells a and b
    lag = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            between[a, b] = between[b, a] = draw(st.floats(0.2, 2.0))
            lag[a, b] = draw(st.floats(-1.0, 1.0))
            lag[b, a] = -lag[a, b]
    d = between / np.array(sizes, dtype=float)[:, None]
    config = PlantedAepConfig(
        cell_sizes=tuple(sizes),
        quotient_weights=tuple(map(tuple, d)),
        intra_density=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return config, d, lag


def quotient_rk4(d, lag, omega, theta0, sigma):
    """Classical RK4 of the k-oscillator quotient
    dtheta_a/dt = omega_a - sigma sum_b d_ab sin(theta_a - theta_b + lag_ab)."""
    def f(theta):
        return omega - sigma * (d * np.sin(theta[:, None] - theta[None, :] + lag)).sum(axis=1)

    out = [theta0]
    for _ in range(STEPS):
        y = out[-1]
        k1 = f(y)
        k2 = f(y + 0.5 * DT * k1)
        k3 = f(y + 0.5 * DT * k2)
        k4 = f(y + DT * k3)
        out.append(y + DT / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


def test_edge_kernel_lag_orientation():
    # The convention the lagged quotient below rests on: edge (i, j), i < j,
    # adds sin(theta_i - theta_j + beta) to i's coupling sum and its
    # negative, sin(theta_j - theta_i - beta), to j's.
    flow = _edge_coupling(WeightedGraph(2, [(0, 1, 1.0)]), np.array([0.3]), (2,), 1.0)
    assert np.allclose(flow(np.array([0.5, 0.1]), np.empty(2)), [np.sin(0.7), -np.sin(0.7)])


@settings(max_examples=20, deadline=None)
@given(planted_quotients(), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
def test_cell_constant_dynamics_follow_the_quotient(instance, sigma, seed):
    # Schaub et al., Chaos 2016: on an AEP, cell-constant frequencies and
    # initial phases stay cell-constant, and each cell moves as one
    # oscillator of the quotient; intra-cell edges carry sin(0) = 0. An edge
    # (i, j), i < j, from cell a to cell b takes the lag lag_ab: by the
    # kernel's orientation i then sees sin(theta_a - theta_b + lag_ab) and j
    # sees sin(theta_b - theta_a - lag_ab) = sin(theta_b - theta_a + lag_ba).
    config, d, lag = instance
    g, p = planted_aep(config)
    rng = np.random.default_rng(seed)
    omega, theta0 = rng.uniform(-1.0, 1.0, d.shape[0]), rng.uniform(-np.pi, np.pi, d.shape[0])
    beta = lag[p.assignment[g.edge_i], p.assignment[g.edge_j]]
    system = OscillatorSystem(graph=g, omega=omega[p.assignment], sigma=sigma, beta=beta)
    want = quotient_rk4(d, lag, omega, theta0, sigma)[:, p.assignment]
    for got in both_forms(system, theta0[p.assignment]):
        assert np.abs(got - want).max() <= 1e-11
