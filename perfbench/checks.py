"""Reference computations the benchmark checks specsync's outputs against.

Everything here is plain numpy on edge lists and arrays; nothing calls
specsync. Each check returns a list of problems, empty when the output
passes, so that the self-test can feed it deliberately wrong answers.
"""
from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps


def laplacian(n, ei, ej, w) -> np.ndarray:
    """Dense L = D - A from an undirected edge list."""
    lap = np.zeros((n, n))
    np.add.at(lap, (ei, ej), -w)
    np.add.at(lap, (ej, ei), -w)
    lap[np.arange(n), np.arange(n)] = -lap.sum(axis=1)
    return lap


def equitable_error(n, ei, ej, w, assignment, k) -> np.ndarray:
    """E = P L^pi - L P from per-vertex out-weight sums.

    W[i, q] is the weight vertex i sends into cell q. Column q of L P is
    deg(i) [q == cell(i)] - W[i, q]; E is each cell's average of those
    entries minus the vertex's own.
    """
    out = np.zeros((n, k))
    np.add.at(out, (ei, assignment[ej]), w)
    np.add.at(out, (ej, assignment[ei]), w)
    lp = -out
    lp[np.arange(n), assignment] += out.sum(axis=1)
    sizes = np.bincount(assignment, minlength=k)
    cell_mean = np.zeros((k, k))
    np.add.at(cell_mean, assignment, lp)
    cell_mean /= sizes[:, None]
    return cell_mean[assignment] - lp


def quotient_eigenvalues(lap, assignment, k) -> np.ndarray:
    """Eigenvalues of the quotient (P^T P)^{-1} P^T L P, through its
    symmetric similar form N^{-1/2} P^T L P N^{-1/2}."""
    p = np.zeros((lap.shape[0], k))
    p[np.arange(lap.shape[0]), assignment] = 1.0
    root = 1.0 / np.sqrt(np.bincount(assignment, minlength=k))
    return np.linalg.eigvalsh(root[:, None] * (p.T @ lap @ p) * root[None, :])


def cell_constant(vec, assignment, tol=1e-8) -> bool:
    """Constant within every cell, as structural_indices decides it."""
    scale = max(1.0, float(np.abs(vec).max()))
    for c in np.unique(assignment):
        vals = vec[assignment == c]
        if np.abs(vals - vals.mean()).max() > tol * scale:
            return False
    return True


# ----------------------------------------------------------------------
# checks on specsync outputs


def close(name, got, want, atol, rtol=0.0) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    dev = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if np.any(dev > lim):
        worst = int(np.argmax(dev - lim))
        return [f"{name}: deviation {dev.flat[worst]:.3e} exceeds {lim.flat[worst]:.3e}"]
    return []


def eigenbasis(lap, eigenvalues, vectors) -> list[str]:
    """L V = V Lambda and V^T V = I to roundoff, eigenvalues ascending."""
    n = lap.shape[0]
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    tol = 64 * n * EPS
    problems = []
    resid = np.abs(lap @ vectors - vectors * eigenvalues).max()
    if not resid <= tol * scale:
        problems.append(f"||LV - V Lambda|| = {resid:.3e} above roundoff {tol * scale:.1e}")
    ortho = np.abs(vectors.T @ vectors - np.eye(n)).max()
    if not ortho <= tol:
        problems.append(f"||V^T V - I|| = {ortho:.3e} above roundoff {tol:.1e}")
    if np.any(np.diff(eigenvalues) < -tol * scale):
        problems.append("eigenvalues not ascending")
    return problems


def edge_vectors(vectors, ei, ej, edge_vecs) -> list[str]:
    """Column r of the edge vectors is B^T v^(r): row a is V[i_a] - V[j_a]."""
    return close("edge vectors", edge_vecs, vectors[ei] - vectors[ej], atol=1e-12)


def bound_chain(modes, sigma1, max_row_sum, k, full=True, rtol=1e-12) -> list[str]:
    """eps <= sigma_1 ||v|| <= 2 k ||v|| max-row-sum for every quotient mode,
    given as (eps, sigma_1 ||v||, 2 k ||v|| max-row-sum).

    Both bounds must also be the products they stand for. With full=False
    the second link is not required: it is no bound in general (sigma_1
    of an n x k matrix can reach sqrt(n) times its largest row sum), and
    SBM samples break it.
    """
    problems = []
    for i, (eps, b_sigma, b_row) in enumerate(modes):
        if not eps <= b_sigma * (1 + rtol) + 1e-15:
            problems.append(f"mode {i}: eps {eps:.3e} above sigma_1 ||v|| = {b_sigma:.3e}")
        if abs(b_row * sigma1 - b_sigma * 2 * k * max_row_sum) > 1e-10 * b_sigma * 2 * k * max_row_sum:
            problems.append(f"mode {i}: bounds {b_sigma:.6e}, {b_row:.6e} are not "
                            f"sigma_1 ||v|| and 2 k ||v|| max-row-sum")
        if full and not b_sigma <= b_row * (1 + rtol) + 1e-15:
            problems.append(f"mode {i}: sigma_1 ||v|| = {b_sigma:.3e} above 2k ||v|| max-row-sum {b_row:.3e}")
    return problems


def truncation_bound(actual, bound) -> list[str]:
    if not actual <= bound * (1 + 1e-10) + 1e-12:
        return [f"truncation error {actual:.3e} above bound {bound:.3e}"]
    return []


def strictly_increasing(name, values) -> list[str]:
    values = list(values)
    if all(a < b for a, b in zip(values, values[1:])):
        return []
    return [f"{name} not strictly increasing: {values}"]


def coefficient_identity(theta, alpha) -> list[str]:
    """Orthonormal coordinates: sum alpha_r^2 = sum theta_i^2 per row, and
    alpha_0 = sqrt(n) mean(theta) for the constant eigenvector."""
    n = theta.shape[1]
    norm_t = (theta ** 2).sum(axis=1)
    problems = close("sum alpha^2 vs sum theta^2", (alpha ** 2).sum(axis=1), norm_t,
                     atol=1e-12, rtol=1e-9)
    scale = np.abs(theta).max(axis=1)
    problems += close("alpha_0 vs sqrt(n) mean(theta)", alpha[:, 0],
                      np.sqrt(n) * theta.mean(axis=1), atol=1e-9 * max(1.0, scale.max()))
    return problems


def degenerate_groups(eigenvalues, tol) -> list[list[int]]:
    groups = [[0]]
    for r in range(1, eigenvalues.size):
        if eigenvalues[r] - eigenvalues[r - 1] <= tol:
            groups[-1].append(r)
        else:
            groups.append([r])
    return groups


def asymptotics(lap, omega, sigma, eigenvalues, alpha_inf_abs) -> list[str]:
    """predict's eigenvalues and |alpha_inf| against a fresh eigensolve.

    alpha_inf_r = (v^(r) . omega) / (sigma lambda_r) for r >= 1. Inside a
    degenerate eigenvalue group single eigenvectors are arbitrary, so the
    group's sum of squares is compared instead.
    """
    lam, vecs = np.linalg.eigh(lap)
    scale = max(1.0, float(lam[-1]))
    problems = close("predict eigenvalues", eigenvalues, lam, atol=1e-9 * scale)
    want = (vecs.T @ omega)[1:] / (sigma * lam[1:])
    got = np.asarray(alpha_inf_abs, dtype=float)
    for group in degenerate_groups(lam[1:], 1e-8 * scale):
        g = np.asarray(group)
        problems += close(f"|alpha_inf| modes {g[0] + 1}..{g[-1] + 1}",
                          np.sqrt((got[g] ** 2).sum()), np.sqrt((want[g] ** 2).sum()),
                          atol=1e-9, rtol=1e-6)
    return problems

