"""Property tests of the discriminant report under graph relabelling."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings

from specsync import discriminant_report, spectral_basis

from conftest import relabelled_systems


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
