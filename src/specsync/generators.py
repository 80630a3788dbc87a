"""Synthetic graphs with planted partition structure.

planted_aep builds graphs that are exact weighted almost equitable
partitions: cross-cell weights are random but constrained to exact row and
column sums by iterative proportional fitting, while intra-cell edges are
free. nested_aep stacks such structure hierarchically so that coarser
partitions occupy smaller Laplacian eigenvalues (verified, with retries).
perturb applies multiplicative edge-weight noise to turn an exact partition
into a quasi-equitable one, and sample_sbm draws stochastic block model
graphs whose equitable error concentrates away as blocks grow.

All generators are deterministic functions of their seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, VertexPartition, _connected, laplacian
from .equitable import check_aep
from .spectral import eigendecompose, structural_indices

__all__ = [
    "PlantedAepConfig",
    "SbmConfig",
    "planted_aep",
    "nested_aep",
    "perturb",
    "sample_sbm",
]

_NESTED_ATTEMPTS = 5
_SBM_DRAWS = 50


@dataclass(frozen=True)
class PlantedAepConfig:
    """Target structure for an exact planted almost equitable partition.

    quotient_weights[i][j] = d_ij is the total edge weight each vertex of
    cell i sends into cell j (zero diagonal). Undirected feasibility forces
    |V_i| d_ij == |V_j| d_ji, and the positive entries must connect all
    cells. Intra-cell edges are sampled freely with the given density and
    weight range; they do not affect the partition property.
    """

    cell_sizes: tuple[int, ...]
    quotient_weights: tuple[tuple[float, ...], ...]
    intra_density: float = 0.5
    intra_weight_range: tuple[float, float] = (0.5, 1.5)
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.cell_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("cell sizes must be positive integers")
        d = np.asarray(self.quotient_weights, dtype=float)
        k = len(sizes)
        if d.shape != (k, k):
            raise ValueError("quotient_weights must be k x k")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("quotient_weights diagonal must be zero")
        if np.any(d < 0.0) or not np.all(np.isfinite(d)):
            raise ValueError("quotient_weights must be finite and nonnegative")
        ns = np.asarray(sizes, dtype=float)
        total = ns[:, None] * d
        if not np.allclose(total, total.T, rtol=1e-12, atol=1e-12):
            raise ValueError(
                "infeasible quotient weights: need |V_i| d_ij == |V_j| d_ji"
            )
        if not (0.0 <= self.intra_density <= 1.0):
            raise ValueError("intra_density must be in [0, 1]")
        lo, hi = (float(x) for x in self.intra_weight_range)
        if not 0.0 < lo <= hi:
            raise ValueError("intra_weight_range must be positive and ordered")
        # Positive cross weights must connect the quotient, else the graph
        # cannot be connected regardless of intra edges.
        ei, ej = np.nonzero(np.triu(d, 1))
        if not _connected(k, ei.astype(np.int64), ej.astype(np.int64)):
            raise ValueError("positive quotient weights do not connect the cells")
        object.__setattr__(self, "cell_sizes", sizes)
        object.__setattr__(
            self, "quotient_weights", tuple(tuple(row) for row in d.tolist())
        )
        object.__setattr__(self, "intra_weight_range", (lo, hi))


def _fit_cross_block(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    row_sum: float,
    col_sum: float,
) -> np.ndarray:
    """Random positive rows x cols matrix with exact row sums and column
    sums matched to ~1e-14 relative, via iterative proportional fitting."""
    mat = rng.uniform(0.5, 1.5, size=(rows, cols))
    for _ in range(1000):
        mat *= (row_sum / mat.sum(axis=1))[:, None]
        col = mat.sum(axis=0)
        if np.abs(col - col_sum).max() <= 1e-14 * col_sum:
            break
        mat *= (col_sum / col)[None, :]
    # Final row scaling: row sums exact, column residual stays ~1e-14.
    mat *= (row_sum / mat.sum(axis=1))[:, None]
    return mat


def planted_aep(config: PlantedAepConfig) -> tuple[WeightedGraph, VertexPartition]:
    """Sample a graph admitting the configured exact weighted AEP."""
    rng = np.random.default_rng(config.seed)
    sizes = np.asarray(config.cell_sizes, dtype=int)
    k = sizes.size
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    d = np.asarray(config.quotient_weights, dtype=float)

    blocks = []
    for i in range(k):
        for j in range(i + 1, k):
            if d[i, j] <= 0.0:
                continue
            block = _fit_cross_block(rng, sizes[i], sizes[j], d[i, j], d[j, i])
            a, b = np.indices(block.shape).reshape(2, -1)
            blocks.append(np.column_stack([offsets[i] + a, offsets[j] + b, block.ravel()]))
    lo, hi = config.intra_weight_range
    # Pair by pair, because one generator draws one random() per pair and one
    # uniform() per kept pair: array draws would change every planted graph.
    intra = []
    for i in range(k):
        for a in range(sizes[i]):
            for b in range(a + 1, sizes[i]):
                if rng.random() < config.intra_density:
                    intra.append((offsets[i] + a, offsets[i] + b, rng.uniform(lo, hi)))

    graph = WeightedGraph(n, np.concatenate(blocks + [np.reshape(intra, (-1, 3))]))
    assignment = np.repeat(np.arange(k), sizes)
    return graph, VertexPartition(assignment, k)


def nested_aep(
    levels,
    leaf_size: int,
    level_weights,
    leaf_weight_range: tuple[float, float] = (1.0, 1.4),
    jitter: float = 0.05,
    seed: int = 0,
) -> tuple[WeightedGraph, list[VertexPartition]]:
    """Hierarchically clustered complete graph whose every level is an exact AEP.

    levels are branching factors from the top (e.g. (3, 2) with leaf_size 30
    gives 3 super-clusters of 2 sub-clusters of 30 vertices). level_weights
    assigns the edge weight scale between subtrees that diverge at each
    level; weights should ascend with depth so coarser cuts are weaker
    (assortative). Each sibling-subtree pair draws one jittered weight
    shared by all of its edges, which splits eigenvalue degeneracies while
    keeping every level exactly equitable; pairs inside a leaf draw free
    random weights.

    Returns the graph and the partitions, coarsest first. The construction
    is verified to place structural modes of coarser levels at strictly
    smaller eigenvalues than finer ones (and all of them below the
    nonstructural modes); if the check fails the jitter is halved and the
    construction retried, and RuntimeError is raised after 5 attempts.
    """
    levels = tuple(int(b) for b in levels)
    if not levels or any(b < 2 for b in levels):
        raise ValueError("levels must be branching factors >= 2")
    if leaf_size < 2:
        raise ValueError("leaf_size must be at least 2")
    weights = tuple(float(w) for w in level_weights)
    if len(weights) != len(levels) or any(w <= 0 for w in weights):
        raise ValueError("level_weights must be positive, one per level")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")

    counts = np.cumprod(levels)
    n = int(counts[-1]) * leaf_size
    groups = n // counts
    parts = [VertexPartition(np.arange(n) // g, int(c)) for g, c in zip(groups, counts)]
    lo, hi = leaf_weight_range
    i, j = np.triu_indices(n, 1)
    # The depth at which each pair splits; len(levels) inside one leaf.
    split = sum((i // group == j // group).astype(int) for group in groups)

    for attempt in range(_NESTED_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        w = np.empty(i.size)
        # One jittered weight per sibling-subtree pair, drawn in (c1, c2)
        # order and shared by all of the pair's edges.
        for depth, (group, cells) in enumerate(zip(groups, counts)):
            at = split == depth
            pairs, which = np.unique(i[at] // group * cells + j[at] // group,
                                     return_inverse=True)
            w[at] = (weights[depth] * (1.0 + jitter * rng.uniform(-1.0, 1.0, pairs.size)))[which]
        leaf = split == len(levels)
        w[leaf] = rng.uniform(lo, hi, np.count_nonzero(leaf))

        graph = WeightedGraph(n, np.column_stack([i, j, w]))
        for part in parts:
            report = check_aep(graph, part)
            if not report.is_aep:
                raise RuntimeError(
                    f"construction lost exactness: deviation {report.max_deviation}"
                )
        if _spectrally_ordered(graph, parts):
            return graph, parts
        jitter *= 0.5
    raise RuntimeError(
        "could not achieve the required spectral ordering; "
        "increase the separation between level weights"
    )


def _spectrally_ordered(graph: WeightedGraph, parts: list[VertexPartition]) -> bool:
    """Coarser structural modes strictly below finer ones, all below the rest.

    The constant mode 0 is structural for every partition and its eigenvalue
    is zero up to roundoff of either sign, so it is left out of the order.
    """
    basis = eigendecompose(laplacian(graph))
    sets = [set(structural_indices(basis, p)) for p in parts]
    previous: set[int] = {0}
    boundary = 0.0
    for part, struct in zip(parts, sets):
        if len(struct) != part.k or not previous <= struct:
            return False
        fresh = sorted(struct - previous)
        lams = basis.eigenvalues[fresh]
        if lams.min(initial=np.inf) <= boundary:
            return False
        boundary = lams.max(initial=boundary)
        previous = struct
    rest = sorted(set(range(basis.n)) - previous)
    return basis.eigenvalues[rest].min(initial=np.inf) > boundary


def perturb(
    g: WeightedGraph,
    partition: VertexPartition,
    eta: float,
    seed: int = 0,
) -> WeightedGraph:
    """Multiplicative edge-weight noise: w -> w (1 + u), u ~ U[-eta, eta].

    Topology is unchanged and weights are clamped positive. The partition is
    the one whose equitable structure the noise degrades; it is validated
    against the graph and returned untouched by the caller. With the same
    seed, noise directions are identical across eta values, so QEP quality
    degrades monotonically as eta grows.
    """
    if partition.n != g.n:
        raise ValueError("partition does not match graph size")
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    rng = np.random.default_rng(seed)
    factor = 1.0 + eta * rng.uniform(-1.0, 1.0, size=g.m)
    new_w = np.maximum(g.edge_w * factor, 1e-12 * g.edge_w)
    return WeightedGraph(g.n, np.column_stack([g.edge_i, g.edge_j, new_w]))


@dataclass(frozen=True)
class SbmConfig:
    """Stochastic block model: symmetric connection probabilities per block
    pair, unit edge weights, resampled until connected."""

    block_sizes: tuple[int, ...]
    probabilities: tuple[tuple[float, ...], ...]
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive integers")
        pr = np.asarray(self.probabilities, dtype=float)
        k = len(sizes)
        if pr.shape != (k, k):
            raise ValueError("probabilities must be k x k")
        if not np.allclose(pr, pr.T, atol=0.0):
            raise ValueError("probabilities must be symmetric")
        if np.any(pr < 0.0) or np.any(pr > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(
            self, "probabilities", tuple(tuple(row) for row in pr.tolist())
        )


def sample_sbm(config: SbmConfig) -> tuple[WeightedGraph, VertexPartition]:
    """Draw one connected SBM sample with its block partition: one uniform
    per pair i < j in row-major order, each row's probabilities one run per
    contiguous block. Raises RuntimeError when 50 consecutive samples come
    out disconnected (probabilities too sparse).
    """
    rng = np.random.default_rng(config.seed)
    sizes = np.asarray(config.block_sizes, dtype=int)
    n = int(sizes.sum())
    assignment = np.repeat(np.arange(sizes.size), sizes)
    pr = np.asarray(config.probabilities, dtype=float)
    rows = np.arange(n)
    row_start = rows * (2 * n - 1 - rows) // 2  # sum of n - 1 - r over r < i
    runs = np.clip(np.cumsum(sizes) - 1 - rows[:, None], 0, sizes)
    probs = np.repeat(pr[assignment].ravel(), runs.ravel())
    for _ in range(_SBM_DRAWS):
        hits = np.flatnonzero(rng.random(probs.size) < probs)
        i = np.repeat(rows, np.diff(np.searchsorted(hits, row_start), append=hits.size))
        edges = np.ones((hits.size, 3))
        edges[:, 0], edges[:, 1] = i, hits - row_start[i] + i + 1
        try:
            graph = WeightedGraph(n, edges)
        except ValueError:
            # In-range i < j unit-weight edges: only disconnection is rejected.
            continue
        return graph, VertexPartition(assignment, sizes.size)
    raise RuntimeError(
        f"no connected sample in {_SBM_DRAWS} draws; "
        "probabilities are too sparse"
    )
