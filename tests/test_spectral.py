import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specsync import (
    SpectralBasis,
    WeightedGraph,
    VertexPartition,
    laplacian,
    indicator_matrix,
    quotient_matrix,
    eigendecompose,
    eigendecompose_general,
    spectral_basis,
    structural_indices,
    Trajectory,
)

from conftest import (
    decompose_trajectory,
    oracle_down_edge_laplacian,
    oracle_incidence,
    oracle_structural_indices,
    random_connected_graph,
    random_partition,
)

ROOT = Path(__file__).resolve().parents[1]

# Saves the sign-fixed eigenvectors of fig4's nested graph at seed 0.
NESTED_EIGENVECTORS = """
import sys
import numpy as np
from specsync import eigendecompose, experiments, laplacian, nested_aep
c = experiments.scenario_config("fig4_hierarchical", None)
g, _ = nested_aep(levels=tuple(c["levels"]), leaf_size=c["leaf_size"],
                  level_weights=tuple(c["level_weights"]),
                  leaf_weight_range=tuple(c["leaf_weight_range"]), jitter=c["jitter"], seed=0)
np.save(sys.argv[1], eigendecompose(laplacian(g)).vertex_vectors)
"""


class TestEigendecompose:
    def test_two_vertex_weight_two(self):
        g = WeightedGraph(2, [(0, 1, 2.0)])
        basis = spectral_basis(g)
        assert np.allclose(basis.eigenvalues, [0.0, 4.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.vertex_vectors[:, 1], [s, -s], atol=1e-12)

    def test_path_spectrum(self, path3):
        # Characteristic polynomial of the 3x3 path Laplacian factors as
        # lambda (lambda - 1)(lambda - 3).
        basis = spectral_basis(path3)
        assert np.allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)

    def test_k23_spectrum(self, k23):
        basis = spectral_basis(k23)
        assert np.allclose(basis.eigenvalues, [0, 2, 2, 3, 5], atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_basis_invariants_on_random_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            g = random_connected_graph(rng)
            basis = spectral_basis(g)
            lap = laplacian(g)
            v = basis.vertex_vectors
            lam = basis.eigenvalues
            assert abs(lam[0]) < 1e-10
            assert np.all(np.diff(lam) >= -1e-12)
            assert np.abs(v[:, 0] - 1.0 / np.sqrt(g.n)).max() < 1e-8
            assert np.abs(v.T @ v - np.eye(g.n)).max() < 1e-10
            assert np.abs(lap @ v - v * lam).max() < 1e-8
            # Paired edge vectors solve the down-edge eigenproblem.
            dn = oracle_down_edge_laplacian(g)
            e = basis.edge_vectors
            assert np.abs(dn @ e - e * lam).max() < 1e-8

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng)
        b1 = spectral_basis(g)
        b2 = spectral_basis(g)
        assert np.array_equal(b1.vertex_vectors, b2.vertex_vectors)
        for c in range(g.n):
            col = b1.vertex_vectors[:, c]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_sign_fix_matches_column_loop(self):
        # Reference: flip a column when its first above-tolerance entry is
        # negative, one column at a time; zero and tiny entries included.
        from specsync.spectral import _fix_signs

        def column_loop(vectors, tol=1e-8):
            out = vectors.copy()
            for c in range(out.shape[1]):
                col = out[:, c]
                nz = np.flatnonzero(np.abs(col) > tol * np.abs(col).max())
                if nz.size and col[nz[0]] < 0:
                    out[:, c] = -col
            return out

        rng = np.random.default_rng(29)
        for n in (1, 2, 5, 40):
            vectors = rng.standard_normal((n, n))
            vectors[: n // 2, ::2] = 0.0
            vectors[0, 1::3] = 1e-14
            vectors[:, 0] = 0.0
            vectors[:, -1] = -1e-14  # tiny, but the tolerance is relative: flipped
            assert np.array_equal(_fix_signs(vectors), column_loop(vectors))
        assert _fix_signs(np.zeros((0, 0))).shape == (0, 0)

    def test_signs_do_not_depend_on_blas_threads(self, tmp_path):
        # On fig4's nested graph, entries near 1e-12 are roundoff whose sign
        # follows the BLAS thread count; they must not decide a column's sign.
        vectors = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            env.update(dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            path = tmp_path / f"v{threads}.npy"
            proc = subprocess.run([sys.executable, "-c", NESTED_EIGENVECTORS, str(path)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            vectors[threads] = np.load(path)
        cosines = np.sum(vectors["1"] * vectors["2"], axis=0)
        assert np.flatnonzero(cosines < 0.5).tolist() == []

    def test_edge_vectors_equal_incidence_product(self):
        # The gathered rows V[i] - V[j] are the entries of B^T V, bit for bit.
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = random_connected_graph(rng, n_max=40, p=rng.uniform(0.1, 0.9))
            basis = spectral_basis(g)
            expected = oracle_incidence(g).T @ basis.vertex_vectors
            assert np.array_equal(basis.edge_vectors, expected)

    def test_down_edge_pairing(self):
        # (e^(r))^T W e^(s) = lambda_s delta_rs.
        rng = np.random.default_rng(12)
        for _ in range(30):
            g = random_connected_graph(rng, n_max=12, n_min=3)
            basis = spectral_basis(g)
            gram = basis.edge_vectors.T @ (g.edge_w[:, None] * basis.edge_vectors)
            assert np.abs(gram - np.diag(basis.eigenvalues)).max() < 1e-8


class TestEigendecomposeGeneral:
    def test_two_by_two_quotient(self):
        vals, vecs = eigendecompose_general(np.array([[1.0, -1.0], [-2.0, 2.0]]))
        assert np.allclose(vals, [0.0, 3.0], atol=1e-12)
        assert np.allclose(vecs[:, 0], [1.0 / np.sqrt(2)] * 2, atol=1e-12)

    def test_trace_determinant_oracle(self):
        # trace 5, determinant 0 pins the spectrum {0, 5}.
        vals, _ = eigendecompose_general(np.array([[3.0, -3.0], [-2.0, 2.0]]))
        assert np.allclose(vals, [0.0, 5.0], atol=1e-12)

    def test_identity(self):
        vals, _ = eigendecompose_general(np.eye(4))
        assert np.allclose(vals, np.ones(4))

    def test_rejects_complex_spectrum(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="complex"):
            eigendecompose_general(rotation)

    def test_residuals_on_random_quotients(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=12)
            k = int(rng.integers(2, 5))
            assignment = rng.integers(0, k, size=g.n)
            assignment[:k] = np.arange(k)  # keep cells nonempty
            p = VertexPartition(assignment, k)
            q = quotient_matrix(laplacian(g), p)
            vals, vecs = eigendecompose_general(q)
            resid = np.linalg.norm(q @ vecs - vecs * vals, axis=0)
            assert resid.max() <= 1e-8 * max(1.0, np.abs(q).max())


def decompose(theta, basis):
    """Coefficients of one vertex signal, through the trajectory projection."""
    return decompose_trajectory(Trajectory(0.0, 1.0, np.asarray(theta)[None, :]), basis).coeffs[0]


class TestDecompose:
    def test_constant_signal_hits_mode_zero(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng)
        basis = spectral_basis(g)
        c = 0.7
        alpha = decompose(np.full(g.n, c), basis)
        assert abs(alpha[0] - c * np.sqrt(g.n)) < 1e-10
        assert np.abs(alpha[1:]).max() < 1e-10

    def test_eigenvector_signal(self):
        rng = np.random.default_rng(15)
        g = random_connected_graph(rng)
        basis = spectral_basis(g)
        alpha = decompose(basis.vertex_vectors[:, 1], basis)
        expected = np.zeros(g.n)
        expected[1] = 1.0
        assert np.abs(alpha - expected).max() < 1e-10

    def test_parseval_and_reconstruction(self):
        rng = np.random.default_rng(16)
        g = random_connected_graph(rng, n_max=10, n_min=10)
        basis = spectral_basis(g)
        theta = rng.normal(size=g.n)
        alpha = decompose(theta, basis)
        assert abs((alpha**2).sum() - (theta**2).sum()) < 1e-10
        assert np.abs(basis.vertex_vectors @ alpha - theta).max() < 1e-10


class TestStructuralIndices:
    def test_path_grouped_endpoints(self, path3):
        basis = spectral_basis(path3)
        p = VertexPartition([0, 1, 0])
        # lambda = 1 mode is proportional to (1, 0, -1): not cell-constant.
        # lambda = 3 mode is proportional to (1, -2, 1): cell-constant.
        assert structural_indices(basis, p) == [0, 2]

    def test_trivial_partition(self, path3):
        basis = spectral_basis(path3)
        assert structural_indices(basis, VertexPartition([0, 0, 0])) == [0]

    def test_discrete_partition(self, path3):
        basis = spectral_basis(path3)
        assert structural_indices(basis, VertexPartition([0, 1, 2])) == [0, 1, 2]

    def test_k33_structural_pair(self):
        edges = [(i, j, 1.0) for i in (0, 1, 2) for j in (3, 4, 5)]
        g = WeightedGraph(6, edges)
        basis = spectral_basis(g)
        # Spectrum {0, 3x4, 6}; the degenerate lambda=3 block holds no
        # cell-constant direction for the bipartition.
        p = VertexPartition([0, 0, 0, 1, 1, 1])
        assert structural_indices(basis, p) == [0, 5]

    def test_degenerate_block_mixing_structural_and_not(self):
        # Two cells {0,1}, {2,3}; complete bipartite cross weight 1 gives
        # the structural contrast eigenvalue 4; an intra edge of weight 1 in
        # cell 0 puts a nonstructural contrast at the same eigenvalue
        # 2 + 2 b. The projection onto col(P) must count exactly one
        # structural direction inside the degenerate block.
        edges = [(i, j, 1.0) for i in (0, 1) for j in (2, 3)]
        edges += [(0, 1, 1.0), (2, 3, 2.0)]
        g = WeightedGraph(4, edges)
        basis = spectral_basis(g)
        assert np.allclose(np.sort(basis.eigenvalues), [0.0, 4.0, 4.0, 6.0], atol=1e-9)
        p = VertexPartition([0, 0, 1, 1])
        idx = structural_indices(basis, p)
        assert len(idx) == 2
        assert idx[0] == 0
        assert idx[1] in (1, 2)

    def test_exact_planted_aep_counts(self):
        from specsync import planted_aep, PlantedAepConfig

        cfg = PlantedAepConfig(
            cell_sizes=(4, 3, 5),
            quotient_weights=((0.0, 1.5, 2.0), (2.0, 0.0, 1.0), (1.6, 0.6, 0.0)),
            intra_density=0.7,
            seed=3,
        )
        g, p = planted_aep(cfg)
        basis = spectral_basis(g)
        assert len(structural_indices(basis, p)) == p.k

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6, 1e-9, 1e-12])
    def test_indices_do_not_depend_on_weight_units(self, scale):
        # fig2's planted graph at intra density 0.3: an absolute 1e-8 gap
        # merged the whole spectrum into one block at weights x1e-9 and
        # x1e-12, and its lowest indices [0, 1, 2] stood in.
        from specsync import planted_aep, PlantedAepConfig

        g, p = planted_aep(PlantedAepConfig(
            cell_sizes=(5, 5, 5),
            quotient_weights=((0.0, 0.7, 0.3), (0.7, 0.0, 0.5), (0.3, 0.5, 0.0)),
            intra_density=0.3,
            intra_weight_range=(1.2, 1.6),
            seed=0,
        ))
        scaled = WeightedGraph(g.n, np.column_stack([g.edge_i, g.edge_j, scale * g.edge_w]))
        assert structural_indices(spectral_basis(scaled), p) == [0, 6, 8]


def _degenerate_instances(n):
    """Cycle, complete and star graphs on n vertices, whose spectra hold
    degenerate blocks, each with a partition they are equitable for."""
    halves = VertexPartition(np.arange(n) % 2)
    yield WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]), halves
    yield WeightedGraph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]), halves
    yield WeightedGraph(n, [(0, j, 1.0) for j in range(1, n)]), VertexPartition([0] + [1] * (n - 1))


class TestStructuralIndicesMatchOracle:
    """The one-residual form returns the per-mode, per-cell oracle's lists."""

    def test_random_graphs_and_partitions(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            g = random_connected_graph(rng, n_max=16)
            p = random_partition(rng, g.n)
            basis = spectral_basis(g)
            assert structural_indices(basis, p) == oracle_structural_indices(basis, p)

    @pytest.mark.parametrize("eta", [0.0, 1e-9, 1e-3, 0.1])
    def test_planted_aeps(self, eta):
        from specsync import planted_aep, perturb, PlantedAepConfig

        rng = np.random.default_rng(int(eta * 1e9) + 5)
        for seed in range(25):
            k = int(rng.integers(2, 5))
            sizes = rng.integers(2, 8, k)
            total = rng.uniform(1.0, 8.0, (k, k))  # cross weight between cells
            total = np.triu(total, 1) + np.triu(total, 1).T
            cfg = PlantedAepConfig(
                cell_sizes=tuple(int(c) for c in sizes),
                quotient_weights=tuple(map(tuple, total / sizes[:, None])),
                intra_density=float(rng.uniform(0.2, 0.9)),
                seed=seed,
            )
            g, p = planted_aep(cfg)
            if eta:
                g = perturb(g, p, eta, seed=seed)
            basis = spectral_basis(g)
            got = structural_indices(basis, p)
            assert got == oracle_structural_indices(basis, p)
            if eta == 0.0:
                assert len(got) == p.k

    def test_lone_mode_threshold_is_on_the_largest_entry(self):
        # Residual entries of +-0.9e-8 (2-norm 1.3e-7) keep mode 1; one
        # entry of 1.1e-8 drops mode 2. perfbench's cell_constant check
        # applies the same max-abs rule.
        n = 200
        p = VertexPartition(np.arange(n) // 100)
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(n, n))
        vecs[:, 0] = 1.0
        vecs[:, 1] = p.assignment + 0.9e-8 * (-1.0) ** np.arange(n)
        vecs[:, 2] = p.assignment + 1.1e-8 * (np.arange(n) == 7)
        basis = SpectralBasis(np.arange(n, dtype=float), vecs, None)
        assert structural_indices(basis, p) == oracle_structural_indices(basis, p) == [0, 1]

    @pytest.mark.parametrize("n", range(4, 13))
    def test_cycle_complete_and_star_blocks(self, n):
        rng = np.random.default_rng(n)
        for g, p in _degenerate_instances(n):
            basis = spectral_basis(g)
            assert np.diff(basis.eigenvalues).min() < 1e-8  # a block is present
            for part in (p, random_partition(rng, n), VertexPartition(np.arange(n))):
                got = structural_indices(basis, part)
                assert got == oracle_structural_indices(basis, part)
                assert all(type(r) is int for r in got)


class TestLiftedEigenpairs:
    def test_quotient_eigenpairs_lift(self):
        # Quotient eigenpairs of an exact AEP lift to Laplacian eigenpairs.
        from specsync import planted_aep, PlantedAepConfig

        rng = np.random.default_rng(17)
        for seed in range(10):
            sizes = tuple(int(s) for s in rng.integers(2, 6, size=3))
            base = rng.uniform(0.5, 2.0, size=(3, 3))
            d = np.zeros((3, 3))
            for i in range(3):
                for j in range(i + 1, 3):
                    d[i, j] = base[i, j]
                    d[j, i] = base[i, j] * sizes[i] / sizes[j]
            cfg = PlantedAepConfig(
                cell_sizes=sizes,
                quotient_weights=tuple(map(tuple, d)),
                intra_density=0.5,
                seed=seed,
            )
            g, p = planted_aep(cfg)
            lap = laplacian(g)
            vals, vecs = eigendecompose_general(quotient_matrix(lap, p))
            pmat = indicator_matrix(p)
            for r in range(p.k):
                lifted = pmat @ vecs[:, r]
                resid = np.linalg.norm(lap @ lifted - vals[r] * lifted)
                assert resid <= 1e-8 * np.linalg.norm(lifted)
