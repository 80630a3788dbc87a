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
use the real stacked identity, with S = sin theta, C = cos theta, the
symmetric Kc = A o cos beta and the antisymmetric Ks = A o sin beta
(beta_ji = -beta_ij):

    sum_j A_ij sin(theta_i - theta_j + beta_ij)
        = S o (Kc C) - C o (Kc S) + C o (Ks C) + S o (Ks S):

one real matrix product per call, of the stacked rows [S; C] with Kc, or
with [Kc, Ks] when there is lag. Sparse graphs gather the m edge terms and
scatter them with bincount, O(m) per call. The coefficient form stays in
edge space as written above, so comparing the two forms remains an
independent check. Its matrices are built once per run: edge_phase, the
(m, n) edge vectors with mode 0's column zeroed, and gain = sigma
(W edge_phase)^T, whose row 0 is then zero, so mode 0 is uncoupled.

integrate_vertex also advances a batch of B initial states on one system:
theta0 of shape (B, n) gives states of shape (steps + 1, B, n), with one
RK4 step loop and one kernel call per stage for the whole batch.

Both forms are integrated with fixed-step classical RK4; fixed stepping
keeps the two trajectories aligned in time so they can be compared sample
by sample. Each form's step is fused: the stage steps and weights are folded
into per-run copies of the drift and the coupling (the vertex kernels take
the scale h sigma / 2 and write into one row of a stage buffer), and one
product joins the four stages. Phases live in R (unwrapped); rezero()
reduces a trajectory mod 2 pi when winding offsets need to be removed
before decomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph, degrees
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
    """Integration produced a non-finite state, first at step (time = step * dt) in
    batch row row; components are the indices of that state's non-finite entries,
    and last_state is that row's last finite state, one step earlier."""

    def __init__(self, step: int, row: int, time: float, last_state: np.ndarray,
                 components: np.ndarray):
        super().__init__(f"non-finite state at step {step} (t = {time:g}), batch row {row}, "
                         f"components {components.tolist()}")
        self.step = step
        self.row = row
        self.time = time
        self.last_state = last_state
        self.components = components


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
    states: np.ndarray  # (steps + 1, n), or (steps + 1, B, n) for a batch

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.states.shape[0])

    @property
    def n(self) -> int:
        return int(self.states.shape[-1])


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Spectral coefficients alpha_r(t) on a uniform time grid."""

    t0: float
    dt: float
    coeffs: np.ndarray  # (steps + 1, n), or (steps + 1, B, n) for a batch
    basis: SpectralBasis

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.coeffs.shape[0])

    @property
    def n(self) -> int:
        return int(self.coeffs.shape[-1])


def _check_finite(out: np.ndarray, dt: float) -> np.ndarray:
    """Return a run's states, or raise BlowUpError at its first non-finite step
    and batch row. A non-finite row stays non-finite under every later step,
    so one check after the loop finds the step and row a per-step test would.
    An array is finite exactly when its min and max are: both pass nan through."""
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        rows = out.reshape(out.shape[0], -1, out.shape[-1])
        bad = ~(np.isfinite(rows.min(axis=2)) & np.isfinite(rows.max(axis=2)))
        step, row = (int(i) for i in np.argwhere(bad)[0])
        raise BlowUpError(step, row, step * float(dt), rows[step - 1, row].copy(),
                          np.flatnonzero(~np.isfinite(rows[step, row])))
    return out


def _one_trajectory(states: np.ndarray, what: str) -> np.ndarray:
    """states, or a ValueError when they hold a batch of trajectories."""
    if states.ndim != 2:
        raise ValueError(f"{what} takes one trajectory; pass states[:, b] of a batch")
    return states


def _initial_state(system: OscillatorSystem, state: np.ndarray, name: str, shape: tuple,
                   dt, steps) -> np.ndarray:
    """Check an integrator's run inputs against the initial state's shape.

    Non-finite inputs would otherwise surface as a BlowUpError at step 1,
    and a non-integer step count as a TypeError inside the RK4 loop. Both
    forms have the Jacobian -sigma L_c, L_c the Laplacian with weights
    A_ij cos(theta_i - theta_j + beta_ij), whose eigenvalues lie within
    2 d_max of zero (Gershgorin; d_max the largest weighted degree). RK4 is
    stable on the negative real axis down to -2.785 (Hairer and Wanner,
    Solving ODEs II, Sec. IV.2); past that, sin keeps the run bounded and
    its errors silent, so such a step is rejected.
    """
    if state.shape != shape or not state.size:
        raise ValueError(f"{name} length does not match the system size {shape[-1]}: {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError(f"{name} must be finite")
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    reach = 2.0 * float(degrees(system.graph).max())
    if system.sigma * reach * float(dt) > 2.785:
        raise ValueError(f"sigma {system.sigma:g} x 2 d_max {reach:g} x dt {float(dt):g} "
                         "is past RK4's stability limit 2.785; take a smaller dt")
    return state


def _edge_coupling(g: WeightedGraph, beta: np.ndarray, shape: tuple, scale: float):
    """Edge-list kernel: gather the m scaled edge terms of every row, scatter
    them with one bincount over the flat index b * n + i."""
    size = math.prod(shape)
    offset = g.n * np.arange(size // g.n)[:, None]
    flat_i, flat_j = (offset + g.edge_i).ravel(), (offset + g.edge_j).ravel()
    w, beta = np.tile(scale * g.edge_w, len(offset)), np.tile(beta, len(offset))

    def edge_flow(theta, row):
        flat = theta.ravel()
        s = w * np.sin(flat[flat_i] - flat[flat_j] + beta)
        return np.subtract(np.bincount(flat_i, weights=s, minlength=size).reshape(shape),
                           np.bincount(flat_j, weights=s, minlength=size).reshape(shape),
                           out=row)

    return edge_flow


def _dense_coupling(g: WeightedGraph, beta: np.ndarray, shape: tuple, scale: float):
    """Dense kernel: S o (Kc C) - C o (Kc S), plus C o (Ks C) + S o (Ks S)
    with lag, from one matrix product per call; Kc and Ks carry the scale.

    Every row's sin and cos go into one preallocated (B, 2, n) buffer whose
    (2B, n) view multiplies Kc, or [Kc, Ks] when beta is not all zero. The
    views read and written per call have the state's own shape, so a single
    state stays one-dimensional.
    """
    n, ei, ej = g.n, g.edge_i, g.edge_j
    batch = math.prod(shape) // n
    lagged = bool(beta.any())
    kmat = np.zeros((n, 2 * n if lagged else n))
    kmat[ei, ej] = kmat[ej, ei] = scale * g.edge_w * np.cos(beta)
    if lagged:
        kmat[ei, n + ej] = scale * g.edge_w * np.sin(beta)
        kmat[ej, n + ei] = -kmat[ei, n + ej]
    trig = np.empty((batch, 2, n))
    prod = np.empty((batch, 2, kmat.shape[1]))
    trig_rows, prod_rows = trig.reshape(2 * batch, n), prod.reshape(2 * batch, -1)
    sin_t, cos_t = trig[:, 0].reshape(shape), trig[:, 1].reshape(shape)
    # Rows of the product: S Kc = Kc S, C Kc = Kc C, and with lag
    # S Ks = -Ks S, C Ks = -Ks C.
    kc_s, kc_c = prod[:, 0, :n].reshape(shape), prod[:, 1, :n].reshape(shape)
    swapped = prod[:, ::-1, :n]  # [Kc C; Kc S] against [S; C]
    if lagged:
        ks_s, ks_c = prod[:, 0, n:].reshape(shape), prod[:, 1, n:].reshape(shape)

    def dense_flow(theta, row):
        np.sin(theta, out=sin_t)
        np.cos(theta, out=cos_t)
        np.matmul(trig_rows, kmat, out=prod_rows)
        if lagged:
            np.subtract(kc_c, ks_s, out=kc_c)
            np.add(kc_s, ks_c, out=kc_s)
        np.multiply(trig, swapped, out=trig)
        return np.subtract(sin_t, cos_t, out=row)

    return dense_flow


def _vertex_coupling(system: OscillatorSystem, shape: tuple, scale: float):
    """Return (theta, row) -> scale sum_j A_ij sin(theta_i - theta_j + beta_ij),
    written into row, for a state theta of the given shape, (n,) or (B, n).

    The kernel depends only on the graph's density. Single-threaded at
    n = 60-300, the two kernels cost the same near 32 m = n^2 with lag and
    near 16 m = n^2 without, so graphs with 32 m < n^2 keep the edge list.
    """
    g = system.graph
    build = _edge_coupling if 32 * g.m < g.n * g.n else _dense_coupling
    return build(g, system.beta, shape, scale)


def integrate_vertex(
    system: OscillatorSystem,
    theta0: np.ndarray,
    dt: float,
    steps: int,
) -> Trajectory:
    """Integrate the vertex-form dynamics from theta0 at t = 0 over `steps` RK4 steps.

    theta0 is one state, shape (n,), or a batch of B states, shape (B, n);
    the states returned have shape (steps + 1, n) or (steps + 1, B, n). The
    rows of a batch share the step loop and each kernel call, and each
    equals its own single run up to roundoff. Phases are tracked unwrapped
    in R. With sigma-coupling switched off the integration is exact (RK4
    reproduces linear-in-t flows), which the tests use as a sanity anchor.
    The RK4 step is fused: for f = w - sigma c, the kernel writes (h sigma / 2) c
    into row k of a (4, *shape) buffer F, the stages take y, y + (h/2) w - F_0,
    y + (h/2) w - F_1 and y + h w - 2 F_2, and the step is y + h w - [1, 2, 2, 1] F / 3.
    """
    theta0 = np.asarray(theta0, dtype=float)
    shape = (theta0.shape[:1] if theta0.ndim == 2 else ()) + (system.graph.n,)
    theta0 = _initial_state(system, theta0, "theta0", shape, dt, steps)
    flow = _vertex_coupling(system, shape, 0.5 * dt * system.sigma)
    drift_half, drift = 0.5 * dt * system.omega, dt * system.omega
    # One row of scaled coupling per stage, joined by one product per step.
    rows = list((stacked := np.empty((4, math.prod(shape)))).reshape((4,) + shape))
    combine = (np.array([1.0, 2.0, 2.0, 1.0]) / 3.0).dot
    out = np.empty((steps + 1,) + shape)
    out[0] = y = theta0
    # Overflow surfaces as the BlowUpError below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            mid, end = y + drift_half, y + drift
            f = flow(y, rows[0])
            f = flow(mid - f, rows[1])
            f = flow(mid - f, rows[2])
            flow(end - 2.0 * f, rows[3])
            y = np.subtract(end, combine(stacked).reshape(shape), out=out[k])
    return Trajectory(t0=0.0, dt=float(dt), states=_check_finite(out, dt))


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
    output from theta0 = V alpha0 up to floating-point roundoff. The edge
    phases take beta only when it is not all zero. The RK4 step is fused: for
    f = w - G sin(E alpha + beta), stage 2 writes sin(E (y + (h/2) w -
    (h/2) G s1) + beta) into row 2 of a (4, m) buffer S of sines, and the
    step is y + h w - (h/6) [G, 2G, 2G, G] S, one product for all four stages.
    """
    if basis.edge_vectors is None:
        raise ValueError("basis carries no edge vectors; build it from the graph")
    if basis.n != system.graph.n or basis.m != system.graph.m:
        raise ValueError("basis does not match the system graph")
    alpha0 = _initial_state(system, np.asarray(alpha0, dtype=float), "alpha0", (basis.n,),
                            dt, steps)
    omega_spec = basis.vertex_vectors.T @ system.omega
    # Mode 0's zero column: it drives no edge phase, and gain's row 0 is zero.
    edge_phase = basis.edge_vectors.copy()                                 # (m, n)
    edge_phase[:, 0] = 0.0
    gain = system.sigma * (system.graph.edge_w[:, None] * edge_phase).T   # (n, m)
    beta, lagged = system.beta, bool(system.beta.any())
    drift_half, drift = 0.5 * dt * omega_spec, dt * omega_spec
    gain_half, gain_full = (0.5 * dt * gain).dot, (dt * gain).dot
    gain_rk4 = (dt / 6.0 * np.hstack((gain, 2.0 * gain, 2.0 * gain, gain))).dot  # (n, 4m)
    rows = np.split(stacked := np.empty(4 * basis.m), 4)   # one row of sines per stage

    def sines(alpha, row):
        phase = edge_phase.dot(alpha)
        if lagged:
            phase += beta
        return np.sin(phase, out=row)

    out = np.empty((steps + 1, basis.n))
    out[0] = y = alpha0
    # Overflow surfaces as the BlowUpError below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            mid, end = y + drift_half, y + drift
            s = sines(y, rows[0])
            s = sines(mid - gain_half(s), rows[1])
            s = sines(mid - gain_half(s), rows[2])
            sines(end - gain_full(s), rows[3])
            out[k] = y = end - gain_rk4(stacked)
    return CoefficientTrajectory(t0=0.0, dt=float(dt), coeffs=_check_finite(out, dt), basis=basis)


def decompose_trajectory(traj: Trajectory, basis: SpectralBasis) -> CoefficientTrajectory:
    """Project every sampled state onto the eigenbasis."""
    if basis.n != traj.n:
        raise ValueError("basis does not match trajectory width")
    return CoefficientTrajectory(
        t0=traj.t0, dt=traj.dt, coeffs=traj.states @ basis.vertex_vectors, basis=basis
    )


def _project_in_place(states: np.ndarray, vectors: np.ndarray) -> None:
    """Overwrite states (..., n) with states @ vectors in row blocks of 256-512, none a
    single row (numpy sends those to gemv), so no second trajectory-sized array."""
    flat = states.reshape(-1, states.shape[-1])
    if not np.may_share_memory(flat, states):  # a copy would lose the write
        raise ValueError("states do not flatten to a view")
    for block in np.array_split(flat, -(-len(flat) // 512)):
        block[:] = block @ vectors


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
    mean = np.arctan2(np.sin(suffix).mean(axis=-1), np.cos(suffix).mean(axis=-1))
    centered = _wrap_pi(suffix - mean[..., None])
    return Trajectory(t0=traj.t0 + traj.dt * at, dt=traj.dt, states=centered)


def cluster_spread(traj: Trajectory, partition, at: int) -> np.ndarray:
    """Largest pairwise circular phase distance within each cell at a sample.

    Quantifies how tightly each cluster is synchronized; exactly zero for a
    perfectly phase-clustered state.
    """
    if partition.n != traj.n:
        raise ValueError("partition does not match trajectory width")
    theta = _one_trajectory(traj.states, "cluster_spread")[at]
    spreads = np.zeros(partition.k)
    for c, cell in enumerate(partition.cells()):
        if cell.size < 2:
            continue
        vals = theta[cell]
        diffs = _wrap_pi(vals[:, None] - vals[None, :])
        spreads[c] = float(np.abs(diffs).max())
    return spreads
