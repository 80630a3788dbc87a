"""Kuramoto and Kuramoto-Sakaguchi integration.

Vertex form:
    dtheta_i/dt = omega_i - sigma sum_j A_ij sin(theta_i - theta_j + beta_ij)

with antisymmetric per-edge phase lag (beta_ji = -beta_ij; beta indexes the
canonical edge orientation i < j and zero lag recovers plain Kuramoto).

Coefficient form, after decomposing theta = sum_r alpha_r v^(r) in the
Laplacian eigenbasis with edge vectors e^(r) = B^T v^(r):

    dalpha_r/dt = omega.v^(r) - sigma sum_a W_aa e_a^(r)
                      sin(sum_{s>0} e_a^(s) alpha_s + beta_a)   for r >= 1
    dalpha_0/dt = sqrt(n) * mean(omega)

The vertex coupling sum_j A_ij sin(theta_i - theta_j + beta_ij) has two
kernels, chosen from the graph's density alone. Dense graphs (32 m >= n^2)
use the order-parameter identity

    sum_j A_ij sin(theta_i - theta_j + beta_ij) = Im(z_i (K conj(z))_i),

with z = exp(i theta) and the Hermitian K_ij = A_ij exp(i beta_ij)
(K_ji = conj(K_ij) because beta is antisymmetric): one n x n complex
matvec per call, with or without lag. Sparse graphs gather the m edge
terms and scatter them with bincount, O(m) per call. The coefficient form
stays in edge space as written above, so comparing the two forms remains
an independent check.

Both forms are integrated with fixed-step classical RK4; fixed stepping
keeps the two trajectories aligned in time so they can be compared sample
by sample. Phases live in R (unwrapped); rezero() reduces a trajectory
mod 2 pi when winding offsets need to be removed before decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph
from .spectral import SpectralBasis

__all__ = [
    "BlowUpError",
    "OscillatorSystem",
    "Trajectory",
    "CoefficientTrajectory",
    "integrate_vertex",
    "integrate_coefficient",
    "decompose_trajectory",
    "reconstruct_trajectory",
    "rezero",
    "cluster_spread",
]


class BlowUpError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(frozen=True)
class OscillatorSystem:
    """Coupled phase oscillators on a weighted graph.

    omega: natural frequency per vertex (rad / time unit).
    sigma: coupling constant multiplying every edge term; zero switches the
           coupling off entirely (the closed-form analyses require it
           positive, the integrators do not).
    beta:  antisymmetric phase lag per canonically oriented edge;
           defaults to zero (plain Kuramoto).
    """

    graph: WeightedGraph
    omega: np.ndarray
    sigma: float
    beta: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (self.graph.n,):
            raise ValueError("omega length does not match vertex count")
        if not np.isfinite(omega).all():
            raise ValueError("omega must be finite")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        beta = self.beta
        if beta is None:
            beta = np.zeros(self.graph.m)
        else:
            beta = np.asarray(beta, dtype=float)
            if beta.shape != (self.graph.m,):
                raise ValueError("beta length does not match edge count")
            if not np.isfinite(beta).all():
                raise ValueError("beta must be finite")
        omega.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass(frozen=True)
class Trajectory:
    """Vertex phases on a uniform time grid t0 + dt * [0..steps]."""

    t0: float
    dt: float
    states: np.ndarray  # (steps + 1, n)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.states.shape[0])

    @property
    def n(self) -> int:
        return int(self.states.shape[1])


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Spectral coefficients alpha_r(t) on a uniform time grid."""

    t0: float
    dt: float
    coeffs: np.ndarray  # (steps + 1, n)
    basis: SpectralBasis

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.coeffs.shape[0])

    @property
    def n(self) -> int:
        return int(self.coeffs.shape[1])


def _rk4(rhs, y0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4; raises BlowUpError on non-finite states.

    A non-finite state stays non-finite under every later step, so one
    check after the loop finds the same first bad step as a per-step test.
    """
    out = np.empty((steps + 1, y0.size))
    out[0] = y = y0
    half = 0.5 * dt
    sixth = dt / 6.0
    # Overflow surfaces as the BlowUpError below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1 = rhs(y)
            k2 = rhs(y + half * k1)
            k3 = rhs(y + half * k2)
            k4 = rhs(y + dt * k3)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            out[k] = y
    bad = ~np.isfinite(out[1:]).all(axis=1)
    if bad.any():
        raise BlowUpError(int(np.argmax(bad)) + 1)
    return out


def _initial_state(state, name: str, size: int, dt, steps) -> np.ndarray:
    """Check an integrator's run inputs and return its initial state as floats.

    Non-finite inputs would otherwise surface as a BlowUpError at step 1,
    and a non-integer step count as a TypeError inside the RK4 loop.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (size,):
        raise ValueError(f"{name} length does not match the system size {size}")
    if not np.isfinite(state).all():
        raise ValueError(f"{name} must be finite")
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    return state


def _edge_coupling(g: WeightedGraph, beta: np.ndarray):
    """Edge-list kernel: gather the m edge terms, scatter them with bincount."""
    ei, ej, w, n = g.edge_i, g.edge_j, g.edge_w, g.n

    def edge_flow(theta):
        s = w * np.sin(theta[ei] - theta[ej] + beta)
        return np.bincount(ei, weights=s, minlength=n) - np.bincount(
            ej, weights=s, minlength=n
        )

    return edge_flow


def _dense_coupling(g: WeightedGraph, beta: np.ndarray):
    """Dense kernel: Im(z (K conj(z))) with the Hermitian K = A o exp(i beta)."""
    kmat = np.zeros((g.n, g.n), dtype=complex)
    kmat[g.edge_i, g.edge_j] = g.edge_w * np.exp(1j * beta)
    kmat[g.edge_j, g.edge_i] = kmat[g.edge_i, g.edge_j].conj()

    def dense_flow(theta):
        z = np.exp(1j * theta)
        return (z * (kmat @ z.conj())).imag

    return dense_flow


def _vertex_coupling(system: OscillatorSystem):
    """Return theta -> sum_j A_ij sin(theta_i - theta_j + beta_ij), per vertex.

    The kernel depends only on the graph's density. Single-threaded, one
    gathered edge term costs about as much as 40 matrix entries of the
    complex matvec, so graphs with 32 m < n^2 keep the edge list.
    """
    g = system.graph
    build = _edge_coupling if 32 * g.m < g.n * g.n else _dense_coupling
    return build(g, system.beta)


def integrate_vertex(
    system: OscillatorSystem,
    theta0: np.ndarray,
    dt: float,
    steps: int,
) -> Trajectory:
    """Integrate the vertex-form dynamics from theta0 at t = 0 over `steps` RK4 steps.

    Phases are tracked unwrapped in R. With sigma-coupling switched off the
    integration is exact (RK4 reproduces linear-in-t flows), which the tests
    use as a sanity anchor.
    """
    theta0 = _initial_state(theta0, "theta0", system.graph.n, dt, steps)
    omega, sigma = system.omega, system.sigma
    flow = _vertex_coupling(system)

    def rhs(theta):
        return omega - sigma * flow(theta)

    return Trajectory(t0=0.0, dt=float(dt), states=_rk4(rhs, theta0, dt, steps))


def integrate_coefficient(
    system: OscillatorSystem,
    basis: SpectralBasis,
    alpha0: np.ndarray,
    dt: float,
    steps: int,
) -> CoefficientTrajectory:
    """Integrate the coefficient-form dynamics from alpha0 at t = 0.

    The basis must come from system.graph. Mode 0 is uncoupled and advances
    at sqrt(n) * mean(omega); an arbitrary alpha_0(0) intercept is carried
    additively. Reconstructing theta = V alpha reproduces integrate_vertex
    output from theta0 = V alpha0 up to floating-point roundoff.
    """
    if basis.edge_vectors is None:
        raise ValueError("basis carries no edge vectors; build it from the graph")
    if basis.n != system.graph.n or basis.m != system.graph.m:
        raise ValueError("basis does not match the system graph")
    alpha0 = _initial_state(alpha0, "alpha0", basis.n, dt, steps)
    w = system.graph.edge_w
    sigma, beta = system.sigma, system.beta
    omega_spec = basis.vertex_vectors.T @ system.omega
    evec = basis.edge_vectors          # (m, n)
    evec_pos = evec[:, 1:]             # modes s >= 1 drive the edge phases

    def rhs(alpha):
        edge_phase = evec_pos @ alpha[1:] + beta
        s = w * np.sin(edge_phase)
        coupling = evec.T @ s
        coupling[0] = 0.0
        return omega_spec - sigma * coupling

    return CoefficientTrajectory(
        t0=0.0, dt=float(dt), coeffs=_rk4(rhs, alpha0, dt, steps), basis=basis
    )


def decompose_trajectory(traj: Trajectory, basis: SpectralBasis) -> CoefficientTrajectory:
    """Project every sampled state onto the eigenbasis."""
    if basis.n != traj.n:
        raise ValueError("basis does not match trajectory width")
    return CoefficientTrajectory(
        t0=traj.t0, dt=traj.dt, coeffs=traj.states @ basis.vertex_vectors, basis=basis
    )


def reconstruct_trajectory(ctraj: CoefficientTrajectory) -> Trajectory:
    """Map coefficients back to vertex phases, theta = V alpha."""
    return Trajectory(
        t0=ctraj.t0, dt=ctraj.dt, states=ctraj.coeffs @ ctraj.basis.vertex_vectors.T
    )


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Wrap values into (-pi, pi]."""
    out = x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    out[out <= -np.pi] += 2.0 * np.pi
    return out


def rezero(traj: Trajectory, at: int) -> Trajectory:
    """Return the suffix of a trajectory re-centered and wrapped mod 2 pi.

    From the sample index `at` on, each state is shifted by its circular
    mean and wrapped into (-pi, pi]. This removes whole-2pi winding offsets
    accumulated during transients, restoring the eigenbasis interpretation
    of the decomposed suffix; relative phases within the principal branch
    are unchanged.
    """
    count = traj.states.shape[0]
    if not -count <= at < count:
        raise IndexError(f"sample index {at} out of range")
    at = at % count
    suffix = traj.states[at:]
    mean = np.arctan2(np.sin(suffix).mean(axis=1), np.cos(suffix).mean(axis=1))
    centered = _wrap_pi(suffix - mean[:, None])
    return Trajectory(t0=traj.t0 + traj.dt * at, dt=traj.dt, states=centered)


def cluster_spread(traj: Trajectory, partition, at: int) -> np.ndarray:
    """Largest pairwise circular phase distance within each cell at a sample.

    Quantifies how tightly each cluster is synchronized; exactly zero for a
    perfectly phase-clustered state.
    """
    if partition.n != traj.n:
        raise ValueError("partition does not match trajectory width")
    count = traj.states.shape[0]
    if not -count <= at < count:
        raise IndexError(f"sample index {at} out of range")
    theta = traj.states[at]
    spreads = np.zeros(partition.k)
    for c, cell in enumerate(partition.cells()):
        if cell.size < 2:
            continue
        vals = theta[cell]
        diffs = _wrap_pi(vals[:, None] - vals[None, :])
        spreads[c] = float(np.abs(diffs).max())
    return spreads
