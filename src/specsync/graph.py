"""Weighted undirected graphs and the matrix operators built from them.

A graph is the single source for every operator used downstream: adjacency
A, degree diagonal D, Laplacian L = D - A, partition indicator P, and
quotient matrices (P^T P)^{-1} P^T M P. Edge-space quantities index the
canonical edge arrays (edge_i, edge_j) directly; no incidence matrix is
formed.

Construction sorts the keys i*n + j once, stably (linear time on the
canonical input every generator and loader emits), and checks connectivity
by root hooking with pointer jumping: O(m) vectorized work per round.
"""
from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "WeightedGraph",
    "VertexPartition",
    "adjacency",
    "degrees",
    "laplacian",
    "indicator_matrix",
    "quotient_matrix",
]


def _connected(n: int, edge_i: np.ndarray, edge_j: np.ndarray) -> bool:
    """Whether an undirected edge list joins all n vertices: each round hooks
    every root onto the least smaller root it shares an edge with, jumps
    pointers to the roots, and keeps only edges between two trees. A root is
    its tree's least label, so all end at 0 iff the graph is connected."""
    parent = np.arange(n)
    a, b = edge_i, edge_j
    while a.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        a, b = parent[a], parent[b]
        keep = np.flatnonzero(a != b)
        a, b = a[keep], b[keep]
    return bool(np.all(parent == 0))


class WeightedGraph:
    """Connected undirected graph with strictly positive edge weights.

    Edges are canonicalized at construction: endpoints reordered so i < j,
    then sorted lexicographically by (i, j). Duplicate vertex pairs are
    merged by summing their weights, with a warning. Self-loops, nonpositive
    weights, and disconnected vertex sets are rejected; a single zero
    Laplacian eigenvalue is assumed everywhere downstream.

    Instances are immutable after construction and safe to share across
    threads.
    """

    __slots__ = ("n", "edge_i", "edge_j", "edge_w")

    def __init__(self, n: int, edges) -> None:
        if not isinstance(n, (int, np.integer)) or int(n) <= 0:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        n = int(n)
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("edges must be a sequence of (i, j, w) triples")
        ii, jj, ww = arr.T
        if not np.all(ii == np.floor(ii)) or not np.all(jj == np.floor(jj)):
            raise ValueError("edge endpoints must be integers")
        ei, ej = ii.astype(np.int64), jj.astype(np.int64)
        if np.any(ei < 0) or np.any(ej < 0) or np.any(ei >= n) or np.any(ej >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(ei == ej):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(ww)) or np.any(ww <= 0.0):
            raise ValueError("edge weights must be finite and strictly positive")

        key = np.minimum(ei, ej) * n + np.maximum(ei, ej)
        order = np.argsort(key, kind="stable")
        key, ww = key[order], ww[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():
            warnings.warn("duplicate edges merged by summing weights", stacklevel=2)
            ww = np.bincount(np.cumsum(first) - 1, weights=ww)
            key = key[first]
        lo, hi = np.divmod(key, n)

        if not _connected(n, lo, hi):
            raise ValueError("graph is not connected")

        for a in (lo, hi, ww):
            a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_i", lo)
        object.__setattr__(self, "edge_j", hi)
        object.__setattr__(self, "edge_w", ww)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.edge_i.size)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """Canonically ordered (i, j, w) triples with i < j."""
        return [
            (int(i), int(j), float(w))
            for i, j, w in zip(self.edge_i, self.edge_j, self.edge_w)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.edge_i, other.edge_i)
            and np.array_equal(self.edge_j, other.edge_j)
            and np.array_equal(self.edge_w, other.edge_w)
        )

    def __hash__(self):
        return hash((self.n, self.edge_i.tobytes(), self.edge_j.tobytes(), self.edge_w.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


class VertexPartition:
    """Assignment of each vertex to one of k cells, every cell nonempty."""

    __slots__ = ("assignment", "k")

    def __init__(self, assignment, k: int | None = None) -> None:
        a = np.asarray(assignment)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a nonempty 1-d sequence")
        if not np.issubdtype(a.dtype, np.integer):
            if not np.all(a == np.floor(a)):
                raise ValueError("cell indices must be integers")
        a = a.astype(np.int64)
        if k is None:
            k = int(a.max()) + 1
        k = int(k)
        if k <= 0:
            raise ValueError("number of cells must be positive")
        if np.any(a < 0) or np.any(a >= k):
            raise ValueError("cell index out of range")
        counts = np.bincount(a, minlength=k)
        if np.any(counts == 0):
            empty = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"cell {empty} is empty")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("VertexPartition is immutable")

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        """Cell sizes, indexed by cell."""
        return np.bincount(self.assignment, minlength=self.k)

    def cells(self) -> list[np.ndarray]:
        """Vertex index array per cell."""
        return [np.flatnonzero(self.assignment == c) for c in range(self.k)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexPartition):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.assignment, other.assignment)

    def __hash__(self):
        return hash((self.k, self.assignment.tobytes()))

    def __repr__(self) -> str:
        return f"VertexPartition(n={self.n}, k={self.k})"


def adjacency(g: WeightedGraph) -> np.ndarray:
    """Symmetric weighted adjacency matrix A."""
    a = np.zeros((g.n, g.n))
    a[g.edge_i, g.edge_j] = g.edge_w
    a[g.edge_j, g.edge_i] = g.edge_w
    return a


def degrees(g: WeightedGraph) -> np.ndarray:
    """Incident weight sum per vertex (the diagonal of D)."""
    return np.bincount(g.edge_i, weights=g.edge_w, minlength=g.n) + np.bincount(
        g.edge_j, weights=g.edge_w, minlength=g.n
    )


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph Laplacian L = D - A: symmetric, zero row sums, PSD."""
    lap = -adjacency(g)
    lap[np.arange(g.n), np.arange(g.n)] = degrees(g)
    return lap


def indicator_matrix(p: VertexPartition) -> np.ndarray:
    """Binary n x k indicator P with one 1 per row; column sums are cell sizes."""
    mat = np.zeros((p.n, p.k))
    mat[np.arange(p.n), p.assignment] = 1.0
    return mat


def _cell_means(p: VertexPartition, x: np.ndarray) -> np.ndarray:
    """N^{-1} P^T x, row c the mean of x over cell c; gathered by
    p.assignment it is the projection of x's columns onto col(P)."""
    return (indicator_matrix(p).T @ x) / p.sizes()[:, None]


def quotient_matrix(mat: np.ndarray, p: VertexPartition) -> np.ndarray:
    """Quotient (P^T P)^{-1} P^T M P of a square matrix over partition cells.

    For a Laplacian this is the quotient Laplacian: entry (p, q), p != q, is
    minus the average out-weight sum from cell p into cell q, and rows sum
    to zero.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("quotient_matrix expects a square matrix")
    if mat.shape[0] != p.n:
        raise ValueError("matrix size does not match partition")
    # Dense on purpose, not _cell_means of the edge-list L P: sbm_limit's
    # noise identity checks the edge-list E against this form.
    pmat = indicator_matrix(p)
    return (pmat.T @ mat @ pmat) / p.sizes()[:, None]
