import numpy as np
import pytest

from specsync import (
    WeightedGraph,
    VertexPartition,
    adjacency,
    degrees,
    laplacian,
    indicator_matrix,
    quotient_matrix,
)
from specsync.graph import _connected

from conftest import (
    oracle_canonical_edges,
    oracle_down_edge_laplacian,
    oracle_incidence,
    random_connected_graph,
    random_partition,
)


class TestWeightedGraphValidation:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(2, [(0, 1, -1.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(2, [(0, 2, 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_merges_duplicate_edges_with_warning(self):
        with pytest.warns(UserWarning, match="merged"):
            g = WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.5)])
        assert g.edges == [(0, 1, 3.5)]

    def test_canonical_edge_order(self):
        g = WeightedGraph(3, [(2, 1, 0.5), (1, 0, 2.0)])
        assert g.edges == [(0, 1, 2.0), (1, 2, 0.5)]

    def test_immutable(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(ValueError):
            g.edge_w[0] = 2.0


class TestCanonicalBuild:
    """The one-key sort gives the lexsort-and-merge arrays byte for byte."""

    @staticmethod
    def _random_edges(seed, n=200, density=0.3):
        rng = np.random.default_rng(seed)
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < density
        w = rng.uniform(0.5, 1.5, int(keep.sum()))
        return rng, np.column_stack([iu[keep], ju[keep], w])

    @staticmethod
    def _assert_matches_oracle(n, edges):
        g = WeightedGraph(n, edges)
        for got, want in zip((g.edge_i, g.edge_j, g.edge_w), oracle_canonical_edges(n, edges)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_canonical_input(self):
        _, edges = self._random_edges(0)
        self._assert_matches_oracle(200, edges)

    def test_shuffled_input(self):
        rng, edges = self._random_edges(1)
        self._assert_matches_oracle(200, edges[rng.permutation(len(edges))])

    def test_swapped_endpoints(self):
        rng, edges = self._random_edges(2)
        flip = rng.random(len(edges)) < 0.5
        edges[flip, :2] = edges[flip, 1::-1]
        self._assert_matches_oracle(200, edges[rng.permutation(len(edges))])

    def test_duplicates_merge_in_input_order(self):
        # Pairs given up to three times, with weights whose sum depends on
        # the order of addition.
        rng, edges = self._random_edges(3, n=60)
        extra = edges[rng.random(len(edges)) < 0.2].copy()
        extra[:, :2] = extra[:, 1::-1]
        extra[:, 2] = 0.1
        third = extra[::2].copy()
        third[:, 2] = 0.7
        edges = np.vstack([edges, extra, third])
        edges = edges[rng.permutation(len(edges))]
        with pytest.warns(UserWarning, match="merged"):
            self._assert_matches_oracle(60, edges)


class TestPartitionValidation:
    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            VertexPartition([0, 0, 2], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            VertexPartition([0, 1, 2], 2)

    def test_cells_and_sizes(self):
        p = VertexPartition([0, 1, 1])
        assert p.k == 2
        assert p.sizes().tolist() == [1, 2]
        assert [c.tolist() for c in p.cells()] == [[0], [1, 2]]


class TestLaplacian:
    def test_two_vertex_weight_two(self):
        g = WeightedGraph(2, [(0, 1, 2.0)])
        assert np.array_equal(laplacian(g), [[2.0, -2.0], [-2.0, 2.0]])

    def test_path_graph(self, path3):
        expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        assert np.array_equal(laplacian(path3), expected)

    def test_five_cycle_spectrum_matches_circulant_form(self):
        # Circulant closed form: eigenvalues 2 - 2 cos(2 pi k / 5),
        # cross-checked through the package eigensolver.
        from specsync import spectral_basis

        g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0)])
        expected = np.sort([2.0 - 2.0 * np.cos(2.0 * np.pi * k / 5.0) for k in range(5)])
        got = spectral_basis(g).eigenvalues
        assert np.allclose(got, expected, atol=1e-10)
        assert abs(got[1] - 1.381966011250105) < 1e-9

    def test_symmetry_row_sums_and_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_connected_graph(rng)
            lap = laplacian(g)
            assert np.array_equal(lap, lap.T)
            assert np.abs(lap.sum(axis=1)).max() < 1e-12
            assert np.linalg.eigvalsh(lap).min() > -1e-10


class TestIncidence:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 3.0)])
        assert np.array_equal(oracle_incidence(g), [[1.0], [-1.0]])

    def test_path(self, path3):
        assert np.array_equal(oracle_incidence(path3), [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])

    def test_column_structure(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng)
        b = oracle_incidence(g)
        assert np.all((b == 0).sum(axis=0) == g.n - 2)
        assert np.all(b.sum(axis=0) == 0)
        assert np.all(np.abs(b).sum(axis=0) == 2)

    def test_laplacian_factorization(self):
        # L = B W B^T for randomized graphs.
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_connected_graph(rng)
            b = oracle_incidence(g)
            assert np.abs(b @ np.diag(g.edge_w) @ b.T - laplacian(g)).max() < 1e-12


class TestDownEdgeLaplacian:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1.7)])
        assert np.allclose(oracle_down_edge_laplacian(g), [[3.4]])

    def test_path(self, path3):
        assert np.allclose(oracle_down_edge_laplacian(path3), [[2.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_shares_nonzero_spectrum_with_laplacian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=6, n_min=3)
            lam_l = np.sort(np.linalg.eigvalsh(laplacian(g)))[1:]  # drop the zero
            lam_dn = np.sort(np.linalg.eigvals(oracle_down_edge_laplacian(g)).real)
            nonzero = lam_dn[np.abs(lam_dn) > 1e-8]
            assert nonzero.size == lam_l.size
            assert np.allclose(np.sort(nonzero), lam_l, atol=1e-8)


class TestIndicator:
    def test_basic(self):
        p = VertexPartition([0, 1, 1])
        assert np.array_equal(indicator_matrix(p), [[1, 0], [0, 1], [0, 1]])

    def test_trivial_partition(self):
        p = VertexPartition([0, 0, 0, 0])
        assert np.array_equal(indicator_matrix(p), np.ones((4, 1)))

    def test_discrete_partition(self):
        p = VertexPartition([0, 1, 2])
        assert np.array_equal(indicator_matrix(p), np.eye(3))


class TestQuotient:
    def test_path_grouped_endpoints(self, path3):
        p = VertexPartition([0, 1, 0])
        got = quotient_matrix(laplacian(path3), p)
        assert np.allclose(got, [[1.0, -1.0], [-2.0, 2.0]], atol=1e-12)

    def test_k23_bipartition(self, k23):
        p = VertexPartition([0, 0, 1, 1, 1])
        got = quotient_matrix(laplacian(k23), p)
        assert np.allclose(got, [[3.0, -3.0], [-2.0, 2.0]], atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvals(got).real), [0.0, 5.0], atol=1e-10)

    def test_k23_full_spectrum(self, k23):
        # Known complete-bipartite Laplacian spectrum.
        assert np.allclose(np.linalg.eigvalsh(laplacian(k23)), [0, 2, 2, 3, 5], atol=1e-10)

    def test_discrete_partition_identity(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(5, 5))
        p = VertexPartition(np.arange(5))
        assert np.allclose(quotient_matrix(mat, p), mat, atol=1e-14)

    def test_quotient_laplacian_zero_row_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_connected_graph(rng)
            p = random_partition(rng, g.n)
            q = quotient_matrix(laplacian(g), p)
            assert np.abs(q.sum(axis=1)).max() < 1e-12


def scipy_connected(n, ei, ej):
    """Oracle: one component by scipy's connected_components."""
    pytest.importorskip("scipy")
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adj = coo_matrix((np.ones(ei.size), (ei, ej)), shape=(n, n))
    ncomp, _ = connected_components(adj, directed=False)
    return ncomp == 1


def _path(n):
    ei = np.arange(n - 1, dtype=np.int64)
    return ei, ei + 1


def _bit_reversed(bits):
    """0 .. 2**bits - 1, each with its bits in reverse order."""
    v = np.arange(2**bits, dtype=np.int64)
    return sum(((v >> b) & 1) << (bits - 1 - b) for b in range(bits))


RELABELED_SHAPES = ("bit_reversed_path", "random_label_path", "random_label_binary_tree",
                    "caterpillar")


def _relabeled_shape(shape, rng):
    """A connected 2048-vertex tree labelled so that min-label hooking needs
    5 to 11 rounds, where the plainly labelled path needs one."""
    n = 2048
    if shape == "bit_reversed_path":
        (ei, ej), labels = _path(n), _bit_reversed(11)
    elif shape == "random_label_path":
        (ei, ej), labels = _path(n), rng.permutation(n)
    elif shape == "random_label_binary_tree":
        ej = np.arange(1, n, dtype=np.int64)
        ei, labels = (ej - 1) // 2, rng.permutation(n)
    elif shape == "caterpillar":
        # The spine holds the largest labels; each spine vertex has one leaf.
        spine = np.arange(n // 2, n, dtype=np.int64)
        ei = np.concatenate([spine[:-1], spine])
        ej = np.concatenate([spine[1:], rng.permutation(n // 2)])
        labels = np.arange(n)
    return labels[ei], labels[ej]


class TestConnectivityCheck:
    def test_agrees_with_independent_component_count(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            mask = rng.random((n, n)) < 0.25
            iu, ju = np.triu_indices(n, k=1)
            keep = mask[iu, ju]
            ei, ej = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
            assert _connected(n, ei, ej) == scipy_connected(n, ei, ej)

    @pytest.mark.parametrize(
        "case",
        ["path", "reversed_path", "broken_path", "star", "star_at_last",
         "two_components", "isolated_last", "single_vertex"]
        + [prefix + shape for shape in RELABELED_SHAPES for prefix in ("", "broken_")],
    )
    def test_structured_graphs(self, case):
        n = 2000
        ei, ej = _path(n)
        shape = case.removeprefix("broken_")
        if shape in RELABELED_SHAPES:
            n = 2048
            ei, ej = _relabeled_shape(shape, np.random.default_rng(9))
            if case != shape:
                # A third of the way in: a spine edge of the caterpillar.
                ei, ej = np.delete(ei, ei.size // 3), np.delete(ej, ej.size // 3)
        elif case == "reversed_path":
            ei, ej = ej[::-1].copy(), ei[::-1].copy()
        elif case == "broken_path":
            ei, ej = np.delete(ei, n // 2), np.delete(ej, n // 2)
        elif case == "star":
            ei, ej = np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)
        elif case == "star_at_last":
            ei, ej = np.arange(n - 1, dtype=np.int64), np.full(n - 1, n - 1, dtype=np.int64)
        elif case == "two_components":
            # Two 40-cliques.
            iu, ju = np.triu_indices(40, k=1)
            n, ei, ej = 80, np.concatenate([iu, iu + 40]), np.concatenate([ju, ju + 40])
        elif case == "isolated_last":
            ei, ej = _path(n - 1)
        elif case == "single_vertex":
            n, ei, ej = 1, ei[:0], ej[:0]
        expected = not case.startswith("broken_") and case not in (
            "two_components", "isolated_last"
        )
        assert scipy_connected(n, ei, ej) == expected
        assert _connected(n, ei, ej) == expected

    def test_large_permuted_path_builds(self):
        n = 200_000
        labels = np.random.default_rng(10).permutation(n)
        edges = np.column_stack([labels[:-1], labels[1:], np.ones(n - 1)])
        assert WeightedGraph(n, edges).m == n - 1
        with pytest.raises(ValueError, match="not connected"):
            WeightedGraph(n, np.delete(edges, n // 2, axis=0))


class TestDegrees:
    def test_path_degrees(self, path3):
        assert degrees(path3).tolist() == [1.0, 2.0, 1.0]

    def test_matches_adjacency_row_sums(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng)
        assert np.allclose(degrees(g), adjacency(g).sum(axis=1), atol=1e-14)
