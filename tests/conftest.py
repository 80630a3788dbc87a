"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from specsync import (
    CoefficientTrajectory, OscillatorSystem, Trajectory, WeightedGraph, VertexPartition,
    indicator_matrix, quotient_matrix,
)

try:
    from hypothesis import strategies as st
except ImportError:  # the property test modules skip themselves
    st = None


def random_connected_graph(rng, n_max=20, n_min=3, p=0.5, w_range=(0.5, 1.5)):
    """Random connected weighted graph; resamples until connected."""
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, rng.uniform(*w_range)))
        try:
            return WeightedGraph(n, edges)
        except ValueError:
            continue


def random_partition(rng, n, k=None):
    """Random partition with every cell nonempty and some cell of size >= 2."""
    if k is None:
        k = int(rng.integers(2, max(3, n // 2 + 1)))
    while True:
        assignment = rng.integers(0, k, size=n)
        counts = np.bincount(assignment, minlength=k)
        if np.all(counts > 0) and np.any(counts >= 2):
            return VertexPartition(assignment, k)


def oracle_canonical_edges(n, edges):
    """Canonical (edge_i, edge_j, edge_w) by a lexsort on (i, j) and a merge
    of duplicate pairs through np.unique; test-only reference for the
    one-key sort of WeightedGraph."""
    arr = np.asarray(edges, dtype=float).reshape(-1, 3)
    ei, ej = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
    lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
    order = np.lexsort((hi, lo))
    lo, hi, ww = lo[order], hi[order], arr[order, 2]
    key = lo * n + hi
    if lo.size and np.any(key[1:] == key[:-1]):
        uniq, inverse = np.unique(key, return_inverse=True)
        ww = np.bincount(inverse, weights=ww)
        lo = (uniq // n).astype(np.int64)
        hi = (uniq % n).astype(np.int64)
    return lo, hi, ww


def oracle_equitable_error_matrix(mat, partition):
    """Dense E = P M^pi - M P for a square n x n matrix M; test-only
    reference for the edge-list form of equitable_error_matrix."""
    pmat = indicator_matrix(partition)
    return pmat @ quotient_matrix(mat, partition) - mat @ pmat


def decompose_trajectory(traj, basis):
    """Every sampled state projected onto the eigenbasis, alpha = V^T theta as
    states @ V; test-only reference for dynamics._project_in_place."""
    return CoefficientTrajectory(traj.t0, traj.dt, traj.states @ basis.vertex_vectors)


def reconstruct_trajectory(ctraj, basis):
    """Vertex phases theta = V alpha as coeffs @ V^T; test-only reference for
    dynamics._project_in_place with V^T."""
    return Trajectory(ctraj.t0, ctraj.dt, ctraj.coeffs @ basis.vertex_vectors.T)


def oracle_incidence(g):
    """Signed incidence B, n x m: column a holds +1 at edge_i[a], -1 at edge_j[a].

    Test-only reference for the edge-space identities (L = B W B^T,
    e^(r) = B^T v^(r)); the package gathers these rows by index instead.
    """
    b = np.zeros((g.n, g.m))
    cols = np.arange(g.m)
    b[g.edge_i, cols] = 1.0
    b[g.edge_j, cols] = -1.0
    return b


def oracle_down_edge_laplacian(g):
    """Weighted down-edge Laplacian B^T B W, m x m; test-only reference."""
    b = oracle_incidence(g)
    return (b.T @ b) * g.edge_w[None, :]


def oracle_x_coupling(system, basis, r1):
    """Cubic edge-overlap coupling x_r1, one overlap column at a time.

    x_r1 = sum_{s != 0, r1} omega^(s) / (2 sigma lambda_s)
               sum_a W_aa (e_a^(r1))^3 e_a^(s)

    Test-only reference; the package forms every overlap in one product.
    """
    w = system.graph.edge_w
    evec = basis.edge_vectors
    cubic = w * evec[:, r1] ** 3
    overlaps = evec.T @ cubic  # sum_a W_aa (e_a^(r1))^3 e_a^(s) per mode s
    omega_spec = basis.vertex_vectors.T @ system.omega
    include = np.ones(basis.n, dtype=bool)
    include[[0, r1]] = False
    terms = (
        omega_spec[include]
        / (2.0 * system.sigma * basis.eigenvalues[include])
        * overlaps[include]
    )
    return float(terms.sum())


def oracle_structural_indices(basis, partition, tol=1e-8, gap_tol=1e-8):
    """Structural mode indices, one mode and one cell at a time.

    Lone modes are cell-constant within tol (max over cells of
    |v_c - mean(v_c)|); a block of eigenvalues closer than gap_tol times the
    largest |eigenvalue| keeps as many of its lowest indices as its
    eigenspace has singular values of (I - Q Q^T) U at most tol, Q the
    orthonormal indicator basis. Test-only
    reference for the one-residual form of structural_indices.
    """
    lam = basis.eigenvalues
    vecs = basis.vertex_vectors
    cells = partition.cells()
    q = indicator_matrix(partition) / np.sqrt(partition.sizes())[None, :]
    gap = gap_tol * max(abs(lam[0]), abs(lam[-1]))
    blocks = [[0]]
    for r in range(1, basis.n):
        if lam[r] - lam[r - 1] < gap:
            blocks[-1].append(r)
        else:
            blocks.append([r])
    out = []
    for block in blocks:
        if len(block) == 1:
            v = vecs[:, block[0]]
            if max(np.abs(v[c] - v[c].mean()).max() for c in cells) <= tol:
                out.append(block[0])
        else:
            block_vecs = vecs[:, block]
            resid = np.linalg.svd(block_vecs - q @ (q.T @ block_vecs), compute_uv=False)
            out.extend(block[:int(np.sum(resid <= tol))])
    return out


if st is not None:
    @st.composite
    def relabelled_systems(draw):
        """A connected weighted system and the same system with its vertices
        permuted and its edge list shuffled."""
        n = draw(st.integers(3, 9))
        tree = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
        chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] < e[1]), max_size=n))
        pairs = sorted(set(tree) | chords)
        unit = st.floats(0.5, 1.5, allow_nan=False)
        edges = [(i, j, draw(unit)) for i, j in pairs]
        omega = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n))
        sigma = draw(st.floats(0.2, 3.0, allow_nan=False))
        perm = draw(st.permutations(range(n)))
        order = draw(st.permutations(range(len(edges))))
        moved = [(perm[edges[a][0]], perm[edges[a][1]], edges[a][2]) for a in order]
        moved_omega = np.empty(n)
        moved_omega[list(perm)] = omega
        return (
            OscillatorSystem(graph=WeightedGraph(n, edges), omega=np.array(omega), sigma=sigma),
            OscillatorSystem(graph=WeightedGraph(n, moved), omega=moved_omega, sigma=sigma),
        )


@pytest.fixture
def path3():
    """Path graph 0-1-2 with unit weights."""
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def k23():
    """Complete bipartite K_{2,3}, unit weights, sides {0,1} and {2,3,4}."""
    edges = [(i, j, 1.0) for i in (0, 1) for j in (2, 3, 4)]
    return WeightedGraph(5, edges)
