import numpy as np
import pytest

from specsync import generators
from specsync import (
    PlantedAepConfig,
    SbmConfig,
    VertexPartition,
    WeightedGraph,
    adjacency,
    laplacian,
    quotient_matrix,
    spectral_basis,
    structural_indices,
    check_aep,
    qep_score,
    planted_aep,
    nested_aep,
    perturb,
    sample_sbm,
)


FIG4_WEIGHTS = dict(
    levels=(3, 2),
    leaf_size=30,
    level_weights=(0.002, 0.02),
    leaf_weight_range=(0.25, 0.35),
)


class TestPlantedAep:
    def test_two_cell_example(self):
        cfg = PlantedAepConfig(
            cell_sizes=(2, 3),
            quotient_weights=((0.0, 3.0), (2.0, 0.0)),
            intra_density=0.5,
            seed=0,
        )
        g, p = planted_aep(cfg)
        report = check_aep(g, p)
        assert report.is_aep and report.max_deviation <= 1e-9
        # Total cross weight is |V_1| d_12 = |V_2| d_21 = 6.
        a = adjacency(g)
        cross = a[np.ix_([0, 1], [2, 3, 4])].sum()
        assert abs(cross - 6.0) < 1e-9

    def test_infeasible_weights_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            PlantedAepConfig(
                cell_sizes=(2, 3),
                quotient_weights=((0.0, 3.0), (3.0, 0.0)),
            )

    def test_disconnected_quotient_rejected(self):
        with pytest.raises(ValueError, match="connect"):
            PlantedAepConfig(
                cell_sizes=(2, 2, 2),
                quotient_weights=(
                    (0.0, 1.0, 0.0),
                    (1.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0),
                ),
            )

    def test_quotient_off_diagonals_match_targets(self):
        d = ((0.0, 1.2, 0.5), (1.2, 0.0, 0.8), (0.5, 0.8, 0.0))
        cfg = PlantedAepConfig(
            cell_sizes=(5, 5, 5), quotient_weights=d, intra_density=0.9, seed=1
        )
        g, p = planted_aep(cfg)
        q = quotient_matrix(laplacian(g), p)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(q[i, j] + d[i][j]) < 1e-12

    def test_fifteen_vertex_instance_structural_count(self):
        cfg = PlantedAepConfig(
            cell_sizes=(5, 5, 5),
            quotient_weights=((0.0, 1.2, 0.5), (1.2, 0.0, 0.8), (0.5, 0.8, 0.0)),
            intra_density=0.9,
            intra_weight_range=(1.0, 1.4),
            seed=2,
        )
        g, p = planted_aep(cfg)
        assert len(structural_indices(spectral_basis(g), p)) == 3

    def test_config_normalises_json_lists(self):
        cfg = PlantedAepConfig(
            cell_sizes=[3, 4],
            quotient_weights=[[0, 2], [1.5, 0]],
            intra_weight_range=[1, 2],
        )
        assert cfg.cell_sizes == (3, 4)
        assert cfg.quotient_weights == ((0.0, 2.0), (1.5, 0.0))
        assert cfg.intra_weight_range == (1.0, 2.0)
        assert all(type(x) is float for x in cfg.intra_weight_range)

    def test_deterministic(self):
        cfg = PlantedAepConfig(
            cell_sizes=(3, 4),
            quotient_weights=((0.0, 2.0), (1.5, 0.0)),
            seed=11,
        )
        g1, p1 = planted_aep(cfg)
        g2, p2 = planted_aep(cfg)
        assert g1 == g2 and p1 == p2

    def test_exactness_across_random_configs(self):
        rng = np.random.default_rng(60)
        for seed in range(20):
            k = int(rng.integers(2, 5))
            sizes = tuple(int(s) for s in rng.integers(2, 6, size=k))
            d = np.zeros((k, k))
            for i in range(k):
                for j in range(i + 1, k):
                    w = rng.uniform(0.5, 2.0)
                    d[i, j] = w
                    d[j, i] = w * sizes[i] / sizes[j]
            cfg = PlantedAepConfig(
                cell_sizes=sizes,
                quotient_weights=tuple(map(tuple, d)),
                intra_density=float(rng.uniform(0.2, 1.0)),
                seed=seed,
            )
            g, p = planted_aep(cfg)
            assert check_aep(g, p).max_deviation <= 1e-9


def reference_planted_aep(config):
    """Oracle: the tuple-per-edge construction, each cross block edge by edge
    in (a, b) order."""
    rng = np.random.default_rng(config.seed)
    sizes = np.asarray(config.cell_sizes, dtype=int)
    k = sizes.size
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    d = np.asarray(config.quotient_weights, dtype=float)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if d[i, j] <= 0.0:
                continue
            block = generators._fit_cross_block(rng, sizes[i], sizes[j], d[i, j], d[j, i])
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    edges.append((offsets[i] + a, offsets[j] + b, block[a, b]))
    lo, hi = config.intra_weight_range
    for i in range(k):
        for a in range(sizes[i]):
            for b in range(a + 1, sizes[i]):
                if rng.random() < config.intra_density:
                    edges.append((offsets[i] + a, offsets[i] + b, rng.uniform(lo, hi)))
    return WeightedGraph(int(offsets[-1]), edges)


class TestPlantedAepReference:
    def test_bit_identical_to_tuple_loop(self):
        # Random spanning trees of cells plus optional extra cross pairs, so
        # some cell pairs share no edges; cells of one vertex included.
        rng = np.random.default_rng(61)
        for seed in range(30):
            k = int(rng.integers(2, 6))
            sizes = tuple(int(s) for s in rng.integers(1, 7, size=k))
            d = np.zeros((k, k))
            pairs = {(int(rng.integers(0, j)), j) for j in range(1, k)}
            pairs |= {(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.4}
            for i, j in pairs:
                d[i, j] = rng.uniform(0.5, 2.0)
                d[j, i] = d[i, j] * sizes[i] / sizes[j]
            lo = float(rng.uniform(0.2, 1.0))
            cfg = PlantedAepConfig(
                cell_sizes=sizes,
                quotient_weights=tuple(map(tuple, d)),
                intra_density=float(rng.uniform(0.0, 1.0)),
                intra_weight_range=(lo, lo * float(rng.uniform(1.0, 2.0))),
                seed=seed,
            )
            g, p = planted_aep(cfg)
            assert g == reference_planted_aep(cfg), seed
            assert np.array_equal(p.assignment, np.repeat(np.arange(k), sizes))


def reference_nested_aep(levels, leaf_size, level_weights, leaf_weight_range, jitter, seed,
                         max_retries=5):
    """Oracle: the tuple-per-edge construction, one scalar draw per sibling
    pair and per leaf edge in loop order. Returns (graph, attempt that
    passed), or None at the retry cap."""
    counts = np.cumprod(levels)
    n = int(counts[-1]) * leaf_size
    parts = [VertexPartition(np.arange(n) // (n // int(cells)), int(cells)) for cells in counts]
    lo, hi = leaf_weight_range
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        edges = []
        for depth, cells in enumerate(counts):
            group = n // int(cells)
            parent_group = group * levels[depth]
            for c1 in range(int(cells)):
                for c2 in range(c1 + 1, int(cells)):
                    if (c1 * group) // parent_group != (c2 * group) // parent_group:
                        continue  # not siblings: handled at a coarser level
                    w = level_weights[depth] * (1.0 + jitter * rng.uniform(-1.0, 1.0))
                    for u in range(c1 * group, (c1 + 1) * group):
                        for v in range(c2 * group, (c2 + 1) * group):
                            edges.append((u, v, w))
        for leaf in range(int(counts[-1])):
            base = leaf * leaf_size
            for a in range(leaf_size):
                for b in range(a + 1, leaf_size):
                    edges.append((base + a, base + b, rng.uniform(lo, hi)))
        graph = WeightedGraph(n, edges)
        if generators._spectrally_ordered(graph, parts):
            return graph, attempt
        jitter *= 0.5
    return None


class TestNestedAep:
    @pytest.mark.parametrize("jitter", [0.05, 0.9])
    @pytest.mark.parametrize("levels, leaf_size, level_weights", [
        ((3, 2), 4, (0.05, 0.3)),
        ((3,), 5, (0.1,)),
        ((2, 2, 2), 3, (0.02, 0.1, 0.4)),
    ])
    def test_matches_tuple_loop_reference(self, levels, leaf_size, level_weights, jitter):
        for seed in range(4):
            expected, _ = reference_nested_aep(levels, leaf_size, level_weights, (1.0, 1.4),
                                               jitter, seed)
            g, _ = nested_aep(levels, leaf_size, level_weights, (1.0, 1.4), jitter=jitter,
                              seed=seed)
            assert np.array_equal(g.edge_i, expected.edge_i)
            assert np.array_equal(g.edge_j, expected.edge_j)
            assert np.array_equal(g.edge_w, expected.edge_w)
            assert g.m == g.n * (g.n - 1) // 2

    def test_reference_seeds_include_a_retry(self):
        # Seed 0 at jitter 0.9 fails the ordering check and passes on the
        # retry with half the jitter, so the comparison above covers it.
        for levels, leaf_size, level_weights in [((3, 2), 4, (0.05, 0.3)),
                                                 ((2, 2, 2), 3, (0.02, 0.1, 0.4))]:
            _, attempt = reference_nested_aep(levels, leaf_size, level_weights, (1.0, 1.4),
                                              0.9, 0)
            assert attempt == 1

    def test_fig4_shape(self):
        g, parts = nested_aep(**FIG4_WEIGHTS, jitter=0.05, seed=0)
        assert g.n == 180
        assert [p.k for p in parts] == [3, 6]
        for p in parts:
            assert check_aep(g, p).is_aep
        basis = spectral_basis(g)
        coarse = structural_indices(basis, parts[0])
        fine = structural_indices(basis, parts[1])
        assert set(coarse) <= set(fine)
        assert sorted(fine) == [0, 1, 2, 3, 4, 5]
        # Coarse contrasts sit strictly below the fine-only contrasts.
        assert basis.eigenvalues[[1, 2]].max() < basis.eigenvalues[[3, 4, 5]].min()

    @pytest.mark.parametrize("seed", [4, 9, 37])
    def test_zero_eigenvalue_roundoff_does_not_reject(self, seed, monkeypatch):
        # eigh returns the zero eigenvalue as a tiny negative number for these
        # seeds; the ordering check must accept them on the first attempt.
        monkeypatch.setattr(generators, "_NESTED_ATTEMPTS", 1)
        g, parts = nested_aep(**FIG4_WEIGHTS, jitter=0.05, seed=seed)
        basis = spectral_basis(g)
        assert sorted(structural_indices(basis, parts[0])) == [0, 1, 2]
        assert sorted(structural_indices(basis, parts[1])) == [0, 1, 2, 3, 4, 5]

    def test_single_level_reduces_to_flat_planted_structure(self):
        g, parts = nested_aep(
            levels=(3,),
            leaf_size=4,
            level_weights=(0.05,),
            leaf_weight_range=(0.8, 1.2),
            seed=1,
        )
        assert g.n == 12
        assert len(parts) == 1 and parts[0].k == 3
        assert check_aep(g, parts[0]).is_aep

    def test_deterministic(self):
        g1, _ = nested_aep(**FIG4_WEIGHTS, seed=5)
        g2, _ = nested_aep(**FIG4_WEIGHTS, seed=5)
        assert g1 == g2

    def test_unorderable_weights_raise(self, monkeypatch):
        # Leaf weights far below the cross weights invert the spectrum.
        monkeypatch.setattr(generators, "_NESTED_ATTEMPTS", 2)
        with pytest.raises(RuntimeError, match="ordering"):
            nested_aep(
                levels=(2,),
                leaf_size=4,
                level_weights=(5.0,),
                leaf_weight_range=(0.001, 0.002),
                seed=2,
            )


class TestPerturb:
    def _instance(self):
        return planted_aep(
            PlantedAepConfig(
                cell_sizes=(5, 4),
                quotient_weights=((0.0, 1.6), (2.0, 0.0)),
                intra_density=0.7,
                seed=3,
            )
        )

    def test_eta_zero_identity(self):
        g, p = self._instance()
        assert perturb(g, p, 0.0, seed=1) == g

    def test_small_eta_breaks_aep_mildly(self):
        g, p = self._instance()
        noisy = perturb(g, p, 0.05, seed=1)
        assert not check_aep(noisy, p).is_aep
        assert 0.0 < qep_score(noisy, p) < 0.1
        assert noisy.m == g.m
        assert np.array_equal(noisy.edge_i, g.edge_i)

    def test_mean_score_monotone_in_eta(self):
        g, p = self._instance()
        etas = (0.01, 0.05, 0.1, 0.2)
        means = []
        for eta in etas:
            scores = [qep_score(perturb(g, p, eta, seed=s), p) for s in range(20)]
            means.append(np.mean(scores))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_negative_eta_rejected(self):
        g, p = self._instance()
        with pytest.raises(ValueError, match="eta"):
            perturb(g, p, -0.1, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
    def test_non_finite_eta_rejected(self, eta):
        g, p = self._instance()
        with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
            perturb(g, p, eta, seed=0)


def reference_sbm(config, draws):
    """Oracle: the triu_indices sampler, one uniform per pair i < j in
    row-major order and scipy's component count; None when each of the
    `draws` samples is disconnected."""
    pytest.importorskip("scipy")
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(config.seed)
    sizes = np.asarray(config.block_sizes)
    n = int(sizes.sum())
    assignment = np.repeat(np.arange(sizes.size), sizes)
    iu, ju = np.triu_indices(n, k=1)
    probs = np.asarray(config.probabilities)[assignment[iu], assignment[ju]]
    for _ in range(draws):
        mask = rng.random(probs.size) < probs
        adj = coo_matrix((np.ones(int(mask.sum())), (iu[mask], ju[mask])), shape=(n, n))
        if connected_components(adj, directed=False)[0] == 1:
            return iu[mask], ju[mask]
    return None


class TestSampleSbm:
    @pytest.mark.parametrize(
        "sizes, probabilities",
        [
            ((9,), ((0.4,),)),
            ((6, 11), ((0.6, 0.2), (0.2, 0.5))),
            ((5, 1, 7), ((0.7, 0.3, 0.2), (0.3, 0.0, 0.4), (0.2, 0.4, 0.5))),
            ((4, 3, 5), ((1.0, 0.0, 0.3), (0.0, 1.0, 1.0), (0.3, 1.0, 0.0))),
            ((4, 4), ((0.5, 0.1), (0.1, 0.5))),
            ((6, 6), ((0.2, 0.0), (0.0, 0.2))),
        ],
    )
    def test_matches_triu_indices_reference(self, sizes, probabilities, monkeypatch):
        monkeypatch.setattr(generators, "_SBM_DRAWS", 5)
        for seed in range(6):
            cfg = SbmConfig(block_sizes=sizes, probabilities=probabilities, seed=seed)
            expected = reference_sbm(cfg, draws=5)
            if expected is None:
                with pytest.raises(RuntimeError, match="connected"):
                    sample_sbm(cfg)
                continue
            g, p = sample_sbm(cfg)
            assert g.n == sum(sizes) and p.sizes().tolist() == list(sizes)
            assert g.edge_i.tolist() == expected[0].tolist()
            assert g.edge_j.tolist() == expected[1].tolist()
            assert np.all(g.edge_w == 1.0)

    def test_all_ones_probabilities_give_complete_graph(self):
        cfg = SbmConfig(block_sizes=(3, 4), probabilities=((1.0, 1.0), (1.0, 1.0)), seed=0)
        g, p = sample_sbm(cfg)
        assert g.m == 7 * 6 // 2
        assert np.all(g.edge_w == 1.0)
        assert check_aep(g, p).max_deviation < 1e-12

    def test_disconnected_blocks_error(self, monkeypatch):
        monkeypatch.setattr(generators, "_SBM_DRAWS", 5)
        cfg = SbmConfig(
            block_sizes=(4, 4),
            probabilities=((1.0, 0.0), (0.0, 1.0)),
            seed=0,
        )
        with pytest.raises(RuntimeError, match="connected"):
            sample_sbm(cfg)

    def test_resampled_seed_keeps_its_edges(self):
        # Seed 0 draws two disconnected samples before a connected one. Pinned
        # edges keep the resampling loop from changing which graph a seed gives.
        cfg = SbmConfig(block_sizes=(4, 4), probabilities=((0.5, 0.1), (0.1, 0.5)), seed=0)
        g, _ = sample_sbm(cfg)
        assert g.edge_i.tolist() == [0, 0, 0, 0, 1, 2, 4, 5]
        assert g.edge_j.tolist() == [1, 3, 4, 7, 3, 3, 6, 6]
        assert np.all(g.edge_w == 1.0)

    def test_asymmetric_probabilities_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            SbmConfig(block_sizes=(3, 3), probabilities=((0.5, 0.2), (0.3, 0.5)))

    def test_deterministic(self):
        cfg = SbmConfig(
            block_sizes=(10, 10), probabilities=((0.6, 0.2), (0.2, 0.5)), seed=4
        )
        g1, _ = sample_sbm(cfg)
        g2, _ = sample_sbm(cfg)
        assert g1 == g2

    def test_block_partition_matches_sizes(self):
        cfg = SbmConfig(
            block_sizes=(6, 9), probabilities=((0.7, 0.3), (0.3, 0.6)), seed=5
        )
        _, p = sample_sbm(cfg)
        assert p.sizes().tolist() == [6, 9]
