"""Almost equitable partition verification and its quantitative relaxation.

The central object is the equitable-error matrix E = P L^pi - L P. Column q
of L P holds each vertex's (negated) out-weight sum into cell q, while
P L^pi holds the cell averages of those sums, so E collects per-vertex
deviations from cell-average connectivity. E vanishes exactly when the
partition is almost equitable; otherwise each quotient eigenpair (lambda, v)
satisfies L (P v) = lambda (P v) - E v, and the residual eps = E v is bounded
through the singular values and row sums of E. Small-but-nonzero E defines a
quasi-equitable partition (QEP), scored here by a dimensionless quality
number.

E is formed from the edge list in O(m + nk): each vertex's out-weight into
each cell gives L P, its cell averages give the k x k L^pi, and no n x n
matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, VertexPartition, _cell_means, degrees
from .spectral import SpectralBasis, eigendecompose

__all__ = [
    "AepReport",
    "ModeErrorBound",
    "EquitableErrorReport",
    "ApproximationBoundReport",
    "equitable_error_matrix",
    "check_aep",
    "equitable_error",
    "approximation_bound",
    "qep_score",
]


@dataclass(frozen=True)
class AepReport:
    """Outcome of an almost-equitable-partition check at a tolerance.

    max_deviation is the largest absolute entry of E = P L^pi - L P, i.e.
    the worst per-vertex deviation of an out-weight sum from its cell
    average; per_vertex_deviations is E itself (n x k). is_aep holds when
    max_deviation <= tol times the largest vertex degree, at any weight scale.
    """

    is_aep: bool
    max_deviation: float
    per_vertex_deviations: np.ndarray


@dataclass(frozen=True)
class ModeErrorBound:
    """Equitable error of one quotient eigenpair with its bound chain.

    epsilon_norm = ||E v||, bound_sigma = sigma_1(E) ||v||, and
    bound_rowsum = 2 k ||v|| max_i sum_j |E_ij|. epsilon_norm <= bound_sigma
    always holds. bound_rowsum is a row-sum estimate of the same quantity,
    not a bound on bound_sigma: sigma_1 of an n x k matrix can reach
    sqrt(n) times its largest absolute row sum, and on some stochastic
    block model samples it exceeds 2k times that row sum.
    """

    eigenvalue: float
    vector: np.ndarray
    epsilon_norm: float
    bound_sigma: float
    bound_rowsum: float


@dataclass(frozen=True)
class EquitableErrorReport:
    E: np.ndarray
    sigma1: float
    max_row_sum: float
    per_mode: tuple[ModeErrorBound, ...]


@dataclass(frozen=True)
class ApproximationBoundReport:
    """Truncated eigenbasis approximation of a lifted quotient eigenvector.

    retained holds the indices i with |lambda_i - lambda| <= gamma; the
    approximation u is the projection of P v onto those eigenvectors, and
    actual_error = ||P v - u|| <= bound = (delta / gamma) sqrt(n - |A|)
    with delta = ||E v||. The eigenvectors are orthonormal, so ||P v - u||
    is the norm of P v's coefficients outside the window.
    """

    eigenvalue: float
    gamma: float
    retained: tuple[int, ...]
    delta: float
    actual_error: float
    bound: float


def _error_and_quotient(g: WeightedGraph, partition: VertexPartition):
    """(E, L^pi) from the edge list. Entry (i, q) of the n x k L P is
    deg(i) [cell(i) = q] minus the weight i sends into cell q."""
    if partition.n != g.n:
        raise ValueError("partition does not match graph size")
    n, k, cell = g.n, partition.k, partition.assignment
    out = sum(np.bincount(a * k + cell[b], weights=g.edge_w, minlength=n * k)
              for a, b in ((g.edge_i, g.edge_j), (g.edge_j, g.edge_i))).reshape(n, k)
    lp = -out
    lp[np.arange(n), cell] += out.sum(axis=1)  # the degree
    quotient = _cell_means(partition, lp)
    return quotient[cell] - lp, quotient


def equitable_error_matrix(g: WeightedGraph, partition: VertexPartition) -> np.ndarray:
    """E = P L^pi - L P (n x k), formed from the edge list."""
    return _error_and_quotient(g, partition)[0]


def _sigma1(mat: np.ndarray) -> float:
    """Largest singular value via the symmetric k x k Gram matrix."""
    gram = mat.T @ mat
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(gram)[-1])))


def check_aep(
    g: WeightedGraph, partition: VertexPartition, tol: float = 1e-9
) -> AepReport:
    """Check whether a partition is a (weighted) almost equitable partition.

    Equivalent characterizations: every vertex of cell i carries the same
    total edge weight into each other cell j, and the indicator column space
    is Laplacian-invariant (L P = P L^pi). The report compares the algebraic
    deviation max |P L^pi - L P|, zero exactly when the combinatorial
    condition holds, with tol times the largest vertex degree.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    err = equitable_error_matrix(g, partition)
    max_dev = float(np.abs(err).max(initial=0.0))
    return AepReport(
        is_aep=max_dev <= tol * float(degrees(g).max(initial=0.0)),
        max_deviation=max_dev,
        per_vertex_deviations=err,
    )


def equitable_error(g: WeightedGraph, partition: VertexPartition) -> EquitableErrorReport:
    """Equitable-error matrix with per-quotient-mode norms and bounds."""
    err, quotient = _error_and_quotient(g, partition)
    sigma1 = _sigma1(err)
    max_row_sum = float(np.abs(err).sum(axis=1).max(initial=0.0))
    # L^pi = N^{-1} P^T L P is similar to the symmetric N^{1/2} L^pi N^{-1/2},
    # whose eigenvectors u stay real on a repeated eigenvalue; v = N^{-1/2} u.
    root = np.sqrt(partition.sizes())
    sym = root[:, None] * quotient / root
    q_basis = eigendecompose(0.5 * (sym + sym.T))
    q_eigenvalues, q_vectors = q_basis.eigenvalues, q_basis.vertex_vectors / root[:, None]
    q_vectors /= np.linalg.norm(q_vectors, axis=0)
    per_mode = []
    for r in range(partition.k):
        v = q_vectors[:, r]
        vnorm = float(np.linalg.norm(v))
        per_mode.append(
            ModeErrorBound(
                eigenvalue=float(q_eigenvalues[r]),
                vector=v,
                epsilon_norm=float(np.linalg.norm(err @ v)),
                bound_sigma=sigma1 * vnorm,
                bound_rowsum=2.0 * partition.k * vnorm * max_row_sum,
            )
        )
    return EquitableErrorReport(
        E=err, sigma1=sigma1, max_row_sum=max_row_sum, per_mode=tuple(per_mode)
    )


def approximation_bound(
    g: WeightedGraph,
    partition: VertexPartition,
    basis: SpectralBasis,
    mode: tuple[float, np.ndarray],
    gamma: float,
) -> ApproximationBoundReport:
    """Bound the truncation error of P v in a spectral window around lambda.

    mode is a quotient eigenpair (lambda, v); v is used exactly as supplied.
    Retains eigenvectors of L with eigenvalues within gamma of lambda and
    reports the actual error of projecting P v onto them next to the
    guaranteed bound (||E v|| / gamma) sqrt(n - |retained|).
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if partition.n != g.n or basis.n != g.n:
        raise ValueError("graph, partition, and basis sizes must agree")
    lam, v = mode
    v = np.asarray(v, dtype=float)
    if v.shape != (partition.k,):
        raise ValueError("quotient eigenvector length does not match cell count")
    err = equitable_error_matrix(g, partition)
    delta = float(np.linalg.norm(err @ v))
    coeffs = basis.vertex_vectors.T @ v[partition.assignment]
    near = np.abs(basis.eigenvalues - lam) <= gamma
    retained = np.flatnonzero(near)
    bound = (delta / gamma) * np.sqrt(g.n - retained.size)
    return ApproximationBoundReport(
        eigenvalue=float(lam),
        gamma=float(gamma),
        retained=tuple(int(i) for i in retained),
        delta=delta,
        actual_error=float(np.linalg.norm(coeffs[~near])),
        bound=float(bound),
    )


def qep_score(g: WeightedGraph, partition: VertexPartition) -> float:
    """Dimensionless quasi-equitable-partition quality: sigma_1(E) over the
    mean vertex out-weight sum. Zero exactly for an almost equitable
    partition; grows with the deviation from cell-average connectivity.
    """
    err = equitable_error_matrix(g, partition)
    return _sigma1(err) / float(degrees(g).mean())
