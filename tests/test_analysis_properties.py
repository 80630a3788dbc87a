"""Property tests of the discriminant report under graph relabelling."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from specsync import OscillatorSystem, WeightedGraph, discriminant_report, spectral_basis


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


@settings(max_examples=60, deadline=None)
@given(relabelled_systems())
def test_delta_invariant_under_relabelling(pair):
    original, moved = pair
    basis = spectral_basis(original.graph)
    gaps = np.diff(basis.eigenvalues)
    # Eigenvectors are then unique up to sign, and Delta_r is even in each sign.
    assume(gaps.min() > 1e-2 * basis.eigenvalues[-1])
    delta = np.array([e.delta for e in discriminant_report(original, basis)])
    moved_delta = np.array(
        [e.delta for e in discriminant_report(moved, spectral_basis(moved.graph))]
    )
    scale = np.abs(delta).max()
    assert np.abs(moved_delta - delta).max() <= 1e-9 * scale
