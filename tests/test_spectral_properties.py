"""Property tests on generated instances: the structural indices under
relabelling, the equitable-error and truncation bounds, and the partition
analysis under relabelling, edge order and weight units."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from specsync import (
    PlantedAepConfig,
    SbmConfig,
    VertexPartition,
    WeightedGraph,
    approximation_bound,
    check_aep,
    degrees,
    equitable_error,
    perturb,
    planted_aep,
    qep_score,
    sample_sbm,
    spectral_basis,
    structural_indices,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def instances(draw, max_eta=0.1, sbm_scale=1, kinds=("planted", "perturbed", "sbm")):
    """A planted AEP, a perturbed one (eta <= max_eta) or an SBM sample with
    blocks of sbm_scale times 2-7 vertices, plus 2; each with its planted
    partition. kinds limits which of the three are drawn."""
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 10_000))
    sizes = np.array(draw(st.lists(st.integers(2, 7), min_size=2, max_size=4)))
    k = sizes.size
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    if kind == "sbm":
        probs = np.diag([0.6 + 0.3 * draw(unit) for _ in range(k)])
        for a, b in pairs:
            probs[a, b] = probs[b, a] = 0.2 + 0.3 * draw(unit)
        return sample_sbm(SbmConfig(tuple(sbm_scale * sizes + 2), tuple(map(tuple, probs)),
                                    seed=seed))
    total = np.zeros((k, k))  # cross weight between two cells, symmetric
    for a, b in pairs:
        total[a, b] = total[b, a] = 1.0 + 7.0 * draw(unit)
    cfg = PlantedAepConfig(
        cell_sizes=tuple(int(s) for s in sizes),
        quotient_weights=tuple(map(tuple, total / sizes[:, None])),
        intra_density=0.2 + 0.7 * draw(unit),
        seed=seed,
    )
    g, p = planted_aep(cfg)
    if kind == "perturbed":
        g = perturb(g, p, draw(st.floats(1e-6, max_eta)), seed=seed)
    return g, p


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_structural_indices_invariant_under_relabelling(instance, data):
    g, p = instance
    perm = np.array(data.draw(st.permutations(range(g.n))))
    cell_perm = np.array(data.draw(st.permutations(range(p.k))))
    moved_g = WeightedGraph(g.n, np.column_stack([perm[g.edge_i], perm[g.edge_j], g.edge_w]))
    assignment = np.empty(g.n, dtype=np.int64)
    assignment[perm] = cell_perm[p.assignment]  # vertex i is now perm[i]
    moved_p = VertexPartition(assignment, p.k)
    expected = structural_indices(spectral_basis(g), p)
    assert structural_indices(spectral_basis(moved_g), moved_p) == expected


@settings(max_examples=60, deadline=None)
@given(instances(kinds=("planted", "sbm")), st.floats(-12.0, 6.0))
def test_structural_indices_invariant_under_weight_units(instance, log_c):
    g, p = instance
    scaled = WeightedGraph(g.n, np.column_stack([g.edge_i, g.edge_j, 10.0**log_c * g.edge_w]))
    assert structural_indices(spectral_basis(scaled), p) == structural_indices(spectral_basis(g), p)


@settings(max_examples=60, deadline=None)
@given(instances(max_eta=0.3, sbm_scale=6), st.floats(1e-3, 1.0))
def test_error_and_truncation_bounds_hold(instance, gamma_frac):
    # eps <= sigma_1(E) ||v|| <= sqrt(||E||_1 ||E||_inf) ||v|| (Schur test), and
    # ||P v - u|| <= (delta / gamma) sqrt(n - |A|) for any window gamma > 0.
    g, p = instance
    report = equitable_error(g, p)
    abs_e = np.abs(report.E)
    schur = np.sqrt(abs_e.sum(axis=0).max() * abs_e.sum(axis=1).max())
    basis = spectral_basis(g)
    gamma = gamma_frac * basis.eigenvalues[-1]
    for m in report.per_mode:
        assert m.epsilon_norm <= m.bound_sigma * (1 + 1e-12) + 1e-15
        assert m.bound_sigma <= schur * np.linalg.norm(m.vector) * (1 + 1e-12) + 1e-15
        ab = approximation_bound(g, p, basis, (m.eigenvalue, m.vector), gamma)
        assert ab.actual_error <= ab.bound * (1 + 1e-10) + 1e-12


@settings(max_examples=60, deadline=None)
@given(instances(), st.data(), st.floats(-9.0, 6.0), st.floats(1e-3, 1.0))
def test_partition_analysis_invariant_under_labels_edge_order_and_units(
        instance, data, log_c, gamma_frac):
    # Relabelled vertices, shuffled edges and weights times c: qep_score and
    # the AEP verdict stay, sigma_1(E) and the quotient eigenvalues scale by c,
    # and the truncation pairs (actual, bound) stay with gamma scaled by c.
    g, p = instance
    c = 10.0 ** log_c
    perm = np.array(data.draw(st.permutations(range(g.n))))
    order = np.array(data.draw(st.permutations(range(g.m))))
    moved_g = WeightedGraph(g.n, np.column_stack(
        [perm[g.edge_i[order]], perm[g.edge_j[order]], c * g.edge_w[order]]))
    assignment = np.empty(g.n, dtype=np.int64)
    assignment[perm] = p.assignment
    moved_p = VertexPartition(assignment, p.k)
    scale = float(degrees(g).max())

    assert abs(qep_score(moved_g, moved_p) - qep_score(g, p)) <= 1e-9 * (1 + qep_score(g, p))
    assert check_aep(moved_g, moved_p).is_aep == check_aep(g, p).is_aep
    report, moved = equitable_error(g, p), equitable_error(moved_g, moved_p)
    assert abs(moved.sigma1 / c - report.sigma1) <= 1e-9 * scale
    basis, moved_basis = spectral_basis(g), spectral_basis(moved_g)
    gamma = gamma_frac * basis.eigenvalues[-1]
    for m, mm in zip(report.per_mode, moved.per_mode):
        assert abs(mm.eigenvalue / c - m.eigenvalue) <= 1e-9 * scale
        ab = approximation_bound(g, p, basis, (m.eigenvalue, m.vector), gamma)
        mab = approximation_bound(moved_g, moved_p, moved_basis, (mm.eigenvalue, mm.vector),
                                  gamma_frac * moved_basis.eigenvalues[-1])
        assert np.allclose([mab.actual_error, mab.bound], [ab.actual_error, ab.bound],
                           rtol=1e-6, atol=1e-8)
