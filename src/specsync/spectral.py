"""Laplacian eigenbasis machinery.

Symmetric eigendecomposition with a deterministic sign convention, the
paired down-edge eigenvectors e^(r) = B^T v^(r) (on edge (i, j) simply
v_i^(r) - v_j^(r)), a dense general eigensolver for (small, nonsymmetric)
quotient Laplacians, and detection of the partition-constant "structural"
modes that carry cluster-synchronized dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, VertexPartition, _cell_means, laplacian

__all__ = [
    "SpectralBasis",
    "eigendecompose",
    "eigendecompose_general",
    "spectral_basis",
    "structural_indices",
]


# Thresholds; none is settable by callers.
_SIGN_TOL = 1e-8  # entries below this times the column's largest |entry| count as zero
_GENERAL_TOL = 1e-8  # imaginary parts and eigenpair residuals, times the matrix scale
_STRUCTURAL_TOL = 1e-8  # largest residual of a cell-constant unit direction
_GAP_TOL = 1e-8  # eigenvalues closer than this times lambda_max form one degenerate block


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry above _SIGN_TOL x its largest |entry| is positive.

    Eigenvectors are only defined up to sign; pinning the sign makes
    decompositions and trajectories reproducible, also across BLAS thread counts.
    """
    if vectors.size == 0:  # argmax needs a row; an empty basis stays empty
        return vectors.copy()
    mag = np.abs(vectors)
    above = mag > _SIGN_TOL * mag.max(axis=0)
    first = vectors[above.argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where(above.any(axis=0) & (first < 0), -vectors, vectors)


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal Laplacian eigenbasis with paired edge-space vectors.

    eigenvalues:    (n,) ascending, eigenvalue 0 first on a connected graph.
    vertex_vectors: (n, n), column r is the unit eigenvector v^(r).
    edge_vectors:   (m, n), column r is e^(r) = B^T v^(r), an eigenvector of
                    the down-edge Laplacian B^T B W with the same eigenvalue;
                    row a of edge (i, j), i < j, is v_i - v_j. None when the
                    basis was built from a bare matrix with no edge list.
    """

    eigenvalues: np.ndarray
    vertex_vectors: np.ndarray
    edge_vectors: np.ndarray | None

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def m(self) -> int:
        if self.edge_vectors is None:
            raise ValueError("basis carries no edge vectors")
        return int(self.edge_vectors.shape[0])


def eigendecompose(lap: np.ndarray) -> SpectralBasis:
    """Eigendecompose a symmetric (Laplacian) matrix into a SpectralBasis.

    Eigenvalues come out ascending and eigenvectors orthonormal, signed by
    _fix_signs. The basis carries no edge vectors; spectral_basis attaches
    them from the graph's edge list.

    Raises ValueError if the input is not symmetric within 1e-10;
    propagates numpy.linalg.LinAlgError if the iteration fails to converge.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(lap - lap.T).max(initial=0.0) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    eigenvalues, vectors = np.linalg.eigh(lap)
    return SpectralBasis(
        eigenvalues=eigenvalues, vertex_vectors=_fix_signs(vectors), edge_vectors=None
    )


def spectral_basis(g: WeightedGraph) -> SpectralBasis:
    """Full spectral basis of a graph: Laplacian eigenpairs plus edge vectors.

    B^T V is gathered by edge, V[edge_i] minus V[edge_j] in place, without
    forming the n x m incidence B; each entry is the same single subtraction.
    """
    basis = eigendecompose(laplacian(g))
    v = basis.vertex_vectors
    e = v[g.edge_i]
    e -= v[g.edge_j]
    return SpectralBasis(basis.eigenvalues, v, e)


def eigendecompose_general(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenpairs of a small dense matrix, e.g. a quotient Laplacian.

    Quotient Laplacians of symmetric matrices are similar to symmetric
    matrices, so their spectra are real; imaginary parts beyond 1e-8
    (relative to the matrix scale) signal that the input is not such a
    quotient and raise ValueError. Returns (eigenvalues ascending, unit
    eigenvectors as columns, signed by _fix_signs); each pair satisfies
    ||M v - lambda v|| <= 1e-8 scale ||v||.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    eigenvalues, vectors = np.linalg.eig(mat)
    scale = max(1.0, np.abs(mat).max(initial=0.0))
    if np.abs(eigenvalues.imag).max(initial=0.0) > _GENERAL_TOL * scale:
        raise ValueError("matrix has complex eigenvalues beyond tolerance")
    if np.abs(vectors.imag).max(initial=0.0) > _GENERAL_TOL:
        # Complex-conjugate vector pairs with real eigenvalues: realign by
        # taking real/imag parts would change the pairs, so reject instead.
        raise ValueError("matrix has complex eigenvectors beyond tolerance")
    eigenvalues = eigenvalues.real
    vectors = vectors.real
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    vectors = _fix_signs(vectors)
    resid = np.linalg.norm(mat @ vectors - vectors * eigenvalues, axis=0)
    if np.any(resid > _GENERAL_TOL * scale):
        raise ValueError("eigenpair residual exceeds tolerance")
    return eigenvalues, vectors


def _degenerate_blocks(lam: np.ndarray, rel_gap: float) -> list[np.ndarray]:
    """Index runs of ascending eigenvalues whose neighbours lie closer than
    rel_gap times the largest |eigenvalue|, so weight units do not matter."""
    gap = rel_gap * np.abs(lam).max(initial=0.0)
    return np.split(np.arange(lam.size), np.flatnonzero(np.diff(lam) >= gap) + 1)


def structural_indices(basis: SpectralBasis, partition: VertexPartition) -> list[int]:
    """Indices of eigenvectors constant within each partition cell.

    A mode is structural when its eigenvector lies in the column space of
    the partition indicator P. All modes are read off one residual
    R = V - P N^{-1} P^T V, the part of each eigenvector that leaves col(P).
    A lone mode r is structural when max_i |R_ir| <= 1e-8. Eigenvalues
    closer than 1e-8 lambda_max form one degenerate block, whose individual
    representatives are arbitrary: the number of structural directions in
    the block is the number of singular values of R[:, block] at most 1e-8,
    and the lowest indices of the block stand in for those directions. Both
    thresholds are free of units: the eigenvectors have unit length, and
    the gap scales with the weights, so w -> c w leaves the indices alone.
    Mode 0 is always structural on a connected graph, and an exact almost
    equitable partition gives exactly k indices.
    """
    if partition.n != basis.n:
        raise ValueError("partition does not match basis size")
    vecs = basis.vertex_vectors
    resid = _cell_means(partition, vecs)[partition.assignment]
    np.subtract(vecs, resid, out=resid)
    # max_i |R_ir| per column, without a second n x n array for |R|.
    keep = np.maximum(resid.max(axis=0), -resid.min(axis=0)) <= _STRUCTURAL_TOL
    for block in _degenerate_blocks(basis.eigenvalues, _GAP_TOL):
        if block.size > 1:
            # Singular values of the residual directly: the 1 - s^2 route
            # through the cosines Q^T U, Q an orthonormal basis of col(P),
            # loses half the float precision near s = 1.
            resid_sv = np.linalg.svd(resid[:, block], compute_uv=False)
            keep[block] = np.arange(block.size) < np.sum(resid_sv <= _STRUCTURAL_TOL)
    return np.flatnonzero(keep).tolist()
