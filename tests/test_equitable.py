import numpy as np
import pytest

import specsync.graph
from specsync import (
    WeightedGraph,
    VertexPartition,
    PlantedAepConfig,
    adjacency,
    laplacian,
    quotient_matrix,
    indicator_matrix,
    spectral_basis,
    eigendecompose_general,
    check_aep,
    equitable_error,
    equitable_error_matrix,
    approximation_bound,
    qep_score,
    degrees,
    planted_aep,
    scenario_config,
    perturb,
    sample_sbm,
    SbmConfig,
)

from conftest import oracle_equitable_error_matrix, random_connected_graph, random_partition


def combinatorial_max_deviation(g, p):
    """Oracle: per-vertex out-weight sums into each other cell, compared to
    their cell averages by direct summation."""
    a = adjacency(g)
    cells = p.cells()
    worst = 0.0
    for ci, cell_i in enumerate(cells):
        for cj, cell_j in enumerate(cells):
            if ci == cj:
                continue
            outs = np.array([a[v, cell_j].sum() for v in cell_i])
            worst = max(worst, np.abs(outs - outs.mean()).max())
    return worst


class TestCheckAep:
    def test_path_grouped_endpoints_is_aep(self, path3):
        report = check_aep(path3, VertexPartition([0, 1, 0]))
        assert report.is_aep
        assert report.max_deviation < 1e-12

    def test_path_split_is_not_aep(self, path3):
        report = check_aep(path3, VertexPartition([0, 1, 1]))
        assert not report.is_aep
        assert abs(report.max_deviation - 0.5) < 1e-12
        expected = np.array([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(report.per_vertex_deviations, expected, atol=1e-12)

    def test_k23_bipartition_is_aep(self, k23):
        assert check_aep(k23, VertexPartition([0, 0, 1, 1, 1])).is_aep

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9])
    def test_rejects_bad_tol(self, path3, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check_aep(path3, VertexPartition([0, 1, 0]), tol=tol)

    def test_trivial_and_discrete_partitions_are_aeps(self):
        rng = np.random.default_rng(20)
        g = random_connected_graph(rng)
        assert check_aep(g, VertexPartition(np.zeros(g.n, dtype=int))).is_aep
        assert check_aep(g, VertexPartition(np.arange(g.n))).is_aep

    def test_algebraic_agrees_with_combinatorial(self):
        # The invariance characterization L P = P L^pi and the direct
        # out-weight-sum statement must agree, in both directions.
        rng = np.random.default_rng(21)
        for _ in range(100):
            g = random_connected_graph(rng, n_max=12)
            p = random_partition(rng, g.n)
            report = check_aep(g, p)
            oracle = combinatorial_max_deviation(g, p)
            assert report.is_aep == (oracle <= 1e-9 * degrees(g).max())
            # Off-cell columns of E are exactly the combinatorial deviations.
            off_cell = report.per_vertex_deviations.copy()
            off_cell[np.arange(g.n), p.assignment] = 0.0
            assert abs(np.abs(off_cell).max(initial=0.0) - oracle) < 1e-9

    def test_planted_always_passes_random_rarely_does(self):
        rng = np.random.default_rng(22)
        for seed in range(20):
            sizes = tuple(int(s) for s in rng.integers(2, 5, size=2))
            d12 = rng.uniform(0.5, 2.0)
            d = ((0.0, d12), (d12 * sizes[0] / sizes[1], 0.0))
            g, p = planted_aep(
                PlantedAepConfig(cell_sizes=sizes, quotient_weights=d, seed=seed)
            )
            assert check_aep(g, p).is_aep
        failures = 0
        for _ in range(100):
            g = random_connected_graph(rng, n_max=12)
            p = random_partition(rng, g.n)
            if not check_aep(g, p).is_aep:
                failures += 1
        assert failures == 100

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_verdict_does_not_depend_on_weight_units(self, scale):
        # fig2's planted AEP at seed 0 and its eta = 0.01 perturbation.
        cfg = scenario_config("fig2_cluster_sync")
        g, p = planted_aep(PlantedAepConfig(
            cell_sizes=tuple(cfg["cell_sizes"]),
            quotient_weights=tuple(map(tuple, cfg["quotient_weights"])),
            intra_density=cfg["intra_density"],
            intra_weight_range=tuple(cfg["intra_weight_range"]),
            seed=0,
        ))
        for graph, exact in ((g, True), (perturb(g, p, 0.01, seed=0), False)):
            scaled = WeightedGraph(g.n, np.column_stack(
                [graph.edge_i, graph.edge_j, scale * graph.edge_w]))
            assert check_aep(scaled, p).is_aep is exact


class TestEdgeForm:
    def test_matches_dense_oracle_across_weight_scales(self):
        rng = np.random.default_rng(25)
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for _ in range(10):
                g = random_connected_graph(rng, n_max=25, p=0.4)
                g = WeightedGraph(g.n, np.column_stack([g.edge_i, g.edge_j, scale * g.edge_w]))
                p = random_partition(rng, g.n)
                got = equitable_error_matrix(g, p)
                want = oracle_equitable_error_matrix(laplacian(g), p)
                assert got.shape == (g.n, p.k)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_rejects_mismatched_partition(self, path3):
        with pytest.raises(ValueError, match="partition does not match"):
            equitable_error_matrix(path3, VertexPartition([0, 1]))

    def test_no_dense_operator_is_built(self, monkeypatch):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(4, 5),
                quotient_weights=((0.0, 2.5), (2.0, 0.0)),
                seed=4,
            )
        )
        g = perturb(g, p, 0.1, seed=5)
        basis = spectral_basis(g)
        vals, vecs = eigendecompose_general(quotient_matrix(laplacian(g), p))

        def refuse(*args):
            raise AssertionError("an n x n adjacency was built")

        monkeypatch.setattr(specsync.graph, "adjacency", refuse)
        with pytest.raises(AssertionError):
            laplacian(g)
        assert not check_aep(g, p).is_aep
        report = equitable_error(g, p)
        assert np.allclose(report.per_mode[1].eigenvalue, vals[1], atol=1e-12)
        assert qep_score(g, p) > 0
        bound = approximation_bound(g, p, basis, (vals[1], vecs[:, 1]), gamma=0.5)
        assert bound.actual_error <= bound.bound


class TestEquitableError:
    def test_path_split(self, path3):
        report = equitable_error(path3, VertexPartition([0, 1, 1]))
        expected = np.array([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(report.E, expected, atol=1e-12)
        assert abs(report.sigma1 - 1.0) < 1e-12

    def test_exact_aep_has_zero_error(self):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(3, 4),
                quotient_weights=((0.0, 2.0), (1.5, 0.0)),
                seed=1,
            )
        )
        report = equitable_error(g, p)
        assert np.abs(report.E).max() < 1e-10
        assert all(m.epsilon_norm < 1e-10 for m in report.per_mode)

    def test_error_shrinks_with_noise(self):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(4, 4),
                quotient_weights=((0.0, 1.0), (1.0, 0.0)),
                intra_density=0.6,
                seed=2,
            )
        )
        # Same noise direction (same seed) scaled by eta: the error is
        # monotone across the sweep.
        etas = np.linspace(0.3, 0.0, 10)
        norms = []
        for eta in etas:
            report = equitable_error(perturb(g, p, eta, seed=7), p)
            norms.append(np.abs(report.E).max())
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-12

    def test_bound_chain(self):
        # eps <= sigma_1(E) ||v|| <= sqrt(||E||_1 ||E||_inf) ||v|| (Schur test).
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=20)
            p = random_partition(rng, g.n)
            report = equitable_error(g, p)
            abs_e = np.abs(report.E)
            schur = np.sqrt(abs_e.sum(axis=0).max() * abs_e.sum(axis=1).max())
            for m in report.per_mode:
                assert m.epsilon_norm <= m.bound_sigma * (1 + 1e-12) + 1e-15
                assert m.bound_sigma <= schur * np.linalg.norm(m.vector) * (1 + 1e-12) + 1e-15

    def test_sigma_bound_holds_on_sbm_samples(self):
        # ||E v|| <= sigma_1(E) ||v|| is a true bound; the row-sum figure is
        # only an estimate and falls below sigma_1 ||v|| on some samples.
        rowsum_exceeded = False
        configs = [((100, 100), ((0.55, 0.15), (0.15, 0.45)))] * 4 + [
            ((50, 50, 50), ((0.5, 0.1, 0.2), (0.1, 0.4, 0.1), (0.2, 0.1, 0.6)))
        ] * 2
        for seed, (sizes, probabilities) in enumerate(configs):
            g, p = sample_sbm(SbmConfig(sizes, probabilities, seed=seed))
            for m in equitable_error(g, p).per_mode:
                assert m.epsilon_norm <= m.bound_sigma * (1 + 1e-12) + 1e-12
                rowsum_exceeded |= m.bound_sigma > m.bound_rowsum
        assert rowsum_exceeded

    def test_noise_form_identity(self):
        # For L' = L + N with L admitting the partition, the error matrix of
        # L' collapses to P N^pi - N P regardless of L.
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(3, 5),
                quotient_weights=((0.0, 2.5), (1.5, 0.0)),
                intra_density=0.5,
                seed=3,
            )
        )
        noisy = perturb(g, p, 0.2, seed=11)
        nmat = laplacian(noisy) - laplacian(g)
        err = equitable_error_matrix(noisy, p)
        pmat = indicator_matrix(p)
        identity = pmat @ quotient_matrix(nmat, p) - nmat @ pmat
        assert np.abs(err - identity).max() < 1e-10

    def test_basis_change_preserves_error_norm(self):
        # Coefficients of eps in the orthonormal eigenbasis carry its norm.
        rng = np.random.default_rng(24)
        g = random_connected_graph(rng, n_max=15)
        p = random_partition(rng, g.n)
        basis = spectral_basis(g)
        report = equitable_error(g, p)
        for m in report.per_mode:
            eps = report.E @ m.vector
            beta = basis.vertex_vectors.T @ eps
            assert abs(np.linalg.norm(beta) - np.linalg.norm(eps)) < 1e-12


class TestApproximationBound:
    def _planted_instance(self, seed, eta=0.0):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(5, 5, 5),
                quotient_weights=(
                    (0.0, 1.2, 0.5),
                    (1.2, 0.0, 0.8),
                    (0.5, 0.8, 0.0),
                ),
                intra_density=0.9,
                intra_weight_range=(1.0, 1.4),
                seed=seed,
            )
        )
        if eta:
            g = perturb(g, p, eta, seed=seed + 100)
        return g, p

    def test_exact_aep_zero_error_and_bound(self):
        g, p = self._planted_instance(0)
        basis = spectral_basis(g)
        vals, vecs = eigendecompose_general(quotient_matrix(laplacian(g), p))
        for r in range(p.k):
            report = approximation_bound(g, p, basis, (vals[r], vecs[:, r]), gamma=0.3)
            assert report.delta < 1e-10
            assert report.actual_error < 1e-10
            assert report.bound < 1e-9

    def test_perturbed_instance_bound_holds(self):
        for seed in range(5):
            g, p = self._planted_instance(seed, eta=0.05)
            basis = spectral_basis(g)
            vals, vecs = eigendecompose_general(quotient_matrix(laplacian(g), p))
            gaps = np.diff(np.unique(np.round(vals, 12)))
            gamma = 0.5 * gaps.min() if gaps.size else 0.5
            for r in range(p.k):
                report = approximation_bound(g, p, basis, (vals[r], vecs[:, r]), gamma)
                assert report.actual_error <= report.bound * (1 + 1e-10) + 1e-12

    def test_huge_gamma_retains_everything(self):
        g, p = self._planted_instance(1, eta=0.1)
        basis = spectral_basis(g)
        vals, vecs = eigendecompose_general(quotient_matrix(laplacian(g), p))
        report = approximation_bound(g, p, basis, (vals[1], vecs[:, 1]), gamma=1e9)
        assert len(report.retained) == g.n
        assert report.actual_error < 1e-10
        assert report.bound == 0.0

    def test_empty_retained_set_still_bounds(self):
        g, p = self._planted_instance(2, eta=0.1)
        basis = spectral_basis(g)
        vals, vecs = eigendecompose_general(quotient_matrix(laplacian(g), p))
        # Perturbation shifts the lifted eigenvalue off the spectrum of L;
        # a gamma below the nearest-eigenvalue distance retains nothing.
        lam, v = vals[1], vecs[:, 1]
        gamma = 0.5 * np.abs(basis.eigenvalues - lam).min()
        assert gamma > 0
        report = approximation_bound(g, p, basis, (lam, v), gamma)
        assert report.retained == ()
        assert report.actual_error == pytest.approx(np.linalg.norm(v[p.assignment]), rel=1e-12)
        assert report.actual_error <= report.bound

    @pytest.mark.parametrize("instance", ["planted", "perturbed", "sbm"])
    def test_actual_error_is_the_projection_residual(self, instance):
        # ||P v - V_A V_A^T P v|| formed explicitly, against the report's
        # norm of the coefficients outside the window.
        if instance == "sbm":
            g, p = sample_sbm(SbmConfig(block_sizes=(12, 9),
                                        probabilities=((0.6, 0.2), (0.2, 0.5)), seed=3))
        else:
            g, p = self._planted_instance(3, eta=0.1 if instance == "perturbed" else 0.0)
        basis = spectral_basis(g)
        vals, vecs = eigendecompose_general(quotient_matrix(laplacian(g), p))
        for r in range(p.k):
            for gamma in (0.05, 0.5, 2.0):
                report = approximation_bound(g, p, basis, (vals[r], vecs[:, r]), gamma)
                lifted = vecs[p.assignment, r]
                window = basis.vertex_vectors[:, list(report.retained)]
                explicit = np.linalg.norm(lifted - window @ (window.T @ lifted))
                assert abs(report.actual_error - explicit) <= 1e-12

    def test_rejects_nonpositive_gamma(self, path3):
        basis = spectral_basis(path3)
        p = VertexPartition([0, 1, 0])
        with pytest.raises(ValueError, match="gamma"):
            approximation_bound(path3, p, basis, (0.0, np.array([1.0, 1.0])), 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_gamma(self, path3, gamma):
        basis = spectral_basis(path3)
        p = VertexPartition([0, 1, 0])
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            approximation_bound(path3, p, basis, (0.0, np.array([1.0, 1.0])), gamma)


class TestQepScore:
    def test_exact_aep_scores_zero(self, k23):
        assert qep_score(k23, VertexPartition([0, 0, 1, 1, 1])) < 1e-12

    def test_path_split_scores_three_quarters(self, path3):
        # sigma_1 = 1 over mean degree 4/3.
        assert abs(qep_score(path3, VertexPartition([0, 1, 1])) - 0.75) < 1e-12

    def test_monotone_in_noise(self):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(5, 4),
                quotient_weights=((0.0, 1.6), (2.0, 0.0)),
                intra_density=0.7,
                seed=4,
            )
        )
        scores = [qep_score(perturb(g, p, eta, seed=5), p) for eta in (0.2, 0.1, 0.05, 0.01, 0.0)]
        assert all(a > b for a, b in zip(scores, scores[1:]))
        assert scores[-1] < 1e-12
        assert 0.0 < scores[2] < 0.2
