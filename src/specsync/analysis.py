"""Closed-form predictions for the coefficient dynamics.

Near frequency-locked synchronization, linearizing the coefficient
equations mode by mode gives

    alpha_r(t) = alpha_r^inf (1 - exp(-sigma lambda_r t))
                 + alpha_r(0) exp(-sigma lambda_r t),          r >= 1,

    alpha_r^inf = (omega.v^(r) - sigma sum_a W_aa e_a^(r) beta_a)
                  / (sigma lambda_r),

which reduces to omega^(r) / (sigma lambda_r) without phase lag. Keeping
the quadratic correction for a single still-dynamical mode r1 (all other
modes pinned at their limits) yields

    dalpha/dt = omega^(r1) - sigma lambda_r1 alpha + sigma x_r1 alpha^2,
    x_r1 = sum_{s != 0, r1} omega^(s) / (2 sigma lambda_s) O[s, r1],

where the cubic edge overlaps O[s, r] = sum_a W_aa (e_a^(r))^3 e_a^(s) of
all mode pairs come from one product E^T (W E^3) of the edge vectors. The
discriminant Delta = (sigma lambda_r1)^2 - 4 sigma omega^(r1) x_r1
separates settling to a fixed point (Delta > 0) from unbounded, limit-cycle
style mode dynamics (Delta < 0, solved by a tangent branch that diverges in
finite time). Transient regime structure is read off a coefficient
trajectory by thresholding mode activity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientTrajectory, OscillatorSystem, _one_trajectory
from .spectral import SpectralBasis

__all__ = [
    "LinearPrediction",
    "DiscriminantEntry",
    "Regime",
    "asymptotic_coefficients",
    "linear_solution",
    "discriminant_report",
    "single_mode_solution",
    "segment_regimes",
    "fit_decay_rates",
]


@dataclass(frozen=True)
class LinearPrediction:
    """Per-mode linearized quantities; index 0 entries are placeholders.

    omega_spec:  omega . v^(r)
    lag_spec:    sum_a W_aa e_a^(r) beta_a (zero without phase lag)
    decay_rates: sigma lambda_r
    alpha_inf:   (omega_spec - sigma * lag_spec) / (sigma lambda_r),
                 NaN at r = 0 where the mode drifts linearly instead.
    """

    omega_spec: np.ndarray
    lag_spec: np.ndarray
    decay_rates: np.ndarray
    alpha_inf: np.ndarray


@dataclass(frozen=True)
class DiscriminantEntry:
    """Single-mode discriminant classification for candidate mode r1 >= 1."""

    mode: int
    omega_r: float
    x: float
    delta: float

    @property
    def classification(self) -> str:
        return "fixed_point" if self.delta > 0 else "limit_cycle"


@dataclass(frozen=True)
class Regime:
    t_start: float
    t_end: float
    active: tuple[int, ...]


def asymptotic_coefficients(
    system: OscillatorSystem, basis: SpectralBasis
) -> LinearPrediction:
    """Linearized equilibrium coefficients of a synchronizing system."""
    if basis.edge_vectors is None or basis.n != system.graph.n:
        raise ValueError("basis must be built from the system graph")
    if system.sigma <= 0:
        raise ValueError("equilibrium analysis requires positive coupling")
    omega_spec = basis.vertex_vectors.T @ system.omega
    lag_spec = basis.edge_vectors.T @ (system.graph.edge_w * system.beta)
    decay = system.sigma * basis.eigenvalues
    alpha_inf = np.full(basis.n, np.nan)
    alpha_inf[1:] = (omega_spec[1:] - system.sigma * lag_spec[1:]) / decay[1:]
    return LinearPrediction(
        omega_spec=omega_spec,
        lag_spec=lag_spec,
        decay_rates=decay,
        alpha_inf=alpha_inf,
    )


def linear_solution(pred: LinearPrediction, r: int, alpha_r0: float, t):
    """Evaluate the linearized solution of mode r at time(s) t."""
    if not 1 <= r < pred.decay_rates.size:
        raise ValueError(f"mode index must be in 1..{pred.decay_rates.size - 1}, got {r}")
    rate = pred.decay_rates[r]
    if rate <= 0:
        raise ValueError("linearized solution requires a positive eigenvalue")
    decay = np.exp(-rate * np.asarray(t, dtype=float))
    return pred.alpha_inf[r] * (1.0 - decay) + alpha_r0 * decay


def discriminant_report(
    system: OscillatorSystem, basis: SpectralBasis
) -> tuple[DiscriminantEntry, ...]:
    """Delta_r = (sigma lambda_r)^2 - 4 sigma omega^(r) x_r for every mode r >= 1.

    With w_s = omega^(s) / (2 sigma lambda_s), w_0 = 0, x_r = sum_a W_a e_ar^3
    sum_{s != r} w_s e_as, summed over edge row blocks of about 65536 cells: no
    (m, n) array. The sums left and right of r never hold w_r e_ar, so a dominant
    mode r cannot cancel itself, and x_r is 0.0 when only mode r is weighted.
    """
    pred = asymptotic_coefficients(system, basis)
    evec, edge_w = basis.edge_vectors, system.graph.edge_w
    weights = np.zeros(basis.n)
    weights[1:] = pred.omega_spec[1:] / (2.0 * system.sigma * basis.eigenvalues[1:])
    x = np.zeros(basis.n)
    rows = max(1, 65536 // basis.n)
    for s in range(0, len(evec), rows):
        e = evec[s:s + rows]
        we = np.pad(e * weights, ((0, 0), (1, 1)))  # a zero column at each end
        other = np.cumsum(we, 1)[:, :-2] + np.cumsum(we[:, ::-1], 1)[:, -3::-1]
        x += (edge_w[s:s + rows, None] * e * e * e * other).sum(0)
    delta = pred.decay_rates**2 - 4.0 * system.sigma * pred.omega_spec * x
    return tuple(
        DiscriminantEntry(
            mode=r, omega_r=float(pred.omega_spec[r]), x=float(x[r]), delta=float(delta[r])
        )
        for r in range(1, basis.n)
    )


def single_mode_solution(
    system: OscillatorSystem,
    basis: SpectralBasis,
    r1: int,
    alpha0: float,
    t,
    tan_margin: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form single-unstable-mode solution and its validity mask.

    Solves dalpha/dt = omega^(r1) - sigma lambda alpha + sigma x alpha^2
    with every other mode pinned at its linearized limit. For Delta > 0 the
    stable branch (with the integration constant fixed from alpha0) decays
    to the stable root of sigma lambda alpha - sigma x alpha^2 = omega^(r1).
    For Delta < 0 the solution is a tangent branch,

        alpha(t) = [sigma lambda + sqrt(-Delta) tan( arctan((2 sigma x
                   alpha0 - sigma lambda)/sqrt(-Delta)) + sqrt(-Delta) t/2 )]
                   / (2 sigma x),

    which diverges in finite time; samples past the first singularity, or
    where |2 sigma x alpha - sigma lambda| exceeds tan_margin (default
    10 sqrt(-Delta)), are flagged invalid. With x = 0 the quadratic term
    vanishes and the linearized solution is returned (always valid).
    """
    if not 1 <= r1 < basis.n:
        raise ValueError(f"mode index must be in 1..{basis.n - 1}, got {r1}")
    entry = discriminant_report(system, basis)[r1 - 1]
    lam = float(basis.eigenvalues[r1])
    sigma = system.sigma
    omega_r, x, delta = entry.omega_r, entry.x, entry.delta
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sl = sigma * lam

    if x == 0.0:
        pred = asymptotic_coefficients(system, basis)
        values = np.asarray(linear_solution(pred, r1, alpha0, t), dtype=float)
        return values, np.ones_like(values, dtype=bool)

    if delta > 0:
        root = np.sqrt(delta)
        a_plus = (sl + root) / (2.0 * sigma * x)
        a_minus = (sl - root) / (2.0 * sigma * x)
        if np.isclose(alpha0, a_minus):
            values = np.full_like(t, a_minus)
            return values, np.ones_like(values, dtype=bool)
        p = (alpha0 - a_plus) / (alpha0 - a_minus)
        # Decaying form of (a_plus - a_minus p e^{rt}) / (1 - p e^{rt}):
        # multiply through by e^{-rt} so t -> inf tends to a_minus without
        # overflowing the exponential.
        decay = np.exp(-root * t)
        values = (a_plus * decay - a_minus * p) / (decay - p)
        # Outside the stable basin the denominator crosses zero in finite
        # time; samples past that pole are flagged invalid.
        valid = np.isfinite(values) & (np.sign(decay - p) == np.sign(1.0 - p))
        return values, valid

    if delta == 0.0:
        a_star = sl / (2.0 * sigma * x)
        denom = 1.0 - sigma * x * (alpha0 - a_star) * t
        values = a_star + (alpha0 - a_star) / denom
        return values, denom > 0

    root = np.sqrt(-delta)
    if tan_margin is None:
        tan_margin = 10.0 * root
    phi0 = np.arctan((2.0 * sigma * x * alpha0 - sl) / root)
    phase = phi0 + 0.5 * root * t
    values = (sl + root * np.tan(phase)) / (2.0 * sigma * x)
    # Valid until the tangent's first singularity and within the margin on
    # |2 sigma x alpha - sigma lambda| = sqrt(-Delta) |tan|.
    valid = (phase < 0.5 * np.pi) & (np.abs(2.0 * sigma * x * values - sl) < tan_margin)
    return values, valid


def segment_regimes(
    sim: CoefficientTrajectory,
    threshold: float,
    min_dwell: float = 5.0,
) -> tuple[Regime, ...]:
    """Partition a trajectory into maximal intervals of constant mode activity.

    Mode r >= 1 is active at a sample when |alpha_r| > threshold. Runs of a
    constant active set shorter than min_dwell are absorbed into their
    neighbor, so brief threshold flickers do not fragment the segmentation.
    The returned regimes, in time order, tile [t0, t_end].
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    coeffs = _one_trajectory(sim.coeffs, "segment_regimes")[:, 1:]
    active = coeffs > threshold  # |alpha| > threshold with no float temporary
    active |= coeffs < -threshold

    # Run-length encode the per-sample active sets.
    changes = np.flatnonzero(np.any(active[1:] != active[:-1], axis=1)) + 1
    starts = np.concatenate([[0], changes])
    ends = np.concatenate([changes, [active.shape[0]]])
    runs = [
        [int(s), int(e), tuple((np.flatnonzero(active[s]) + 1).tolist())]
        for s, e in zip(starts, ends)
    ]

    # Absorb sub-dwell runs, shortest first. Neighboring runs always differ,
    # so absorbing run idx into run idx - 1 can only make that run equal to
    # run idx + 1, which then joins it as well.
    while len(runs) > 1:
        idx = min(range(len(runs)), key=lambda i: (runs[i][1] - runs[i][0], i))
        if (runs[idx][1] - runs[idx][0]) * sim.dt >= min_dwell:
            break
        if idx == 0:
            runs[1][0] = runs[0][0]
            del runs[0]
        else:
            last = idx + (idx + 1 < len(runs) and runs[idx + 1][2] == runs[idx - 1][2])
            runs[idx - 1][1] = runs[last][1]
            del runs[idx:last + 1]

    times = sim.times
    return tuple(
        Regime(
            t_start=float(times[s]),
            t_end=float(times[e - 1] if e == len(times) else times[e]),
            active=modes,
        )
        for s, e, modes in runs
    )


def fit_decay_rates(
    sim: CoefficientTrajectory,
    t_start: float,
    t_end: float,
    amp_floor: float = 1e-12,
) -> np.ndarray:
    """Least-squares decay rate of log |alpha_r(t)| per mode over a window.

    In the linearized regime with no forcing, |alpha_r| decays at
    sigma lambda_r. Returns one rate per mode: NaN for mode 0, for all modes
    if the window holds fewer than 5 samples, and for a mode with a sample
    in the window below amp_floor, zero or non-finite; no mode's rate
    depends on another mode's samples.
    """
    times = sim.times
    window = (times >= t_start) & (times <= t_end)
    vals = np.abs(_one_trajectory(sim.coeffs, "fit_decay_rates")[window])
    # A zero or inf column would make the joint solve NaN for every mode.
    fit = np.all((vals >= amp_floor) & (vals > 0) & np.isfinite(vals), axis=0)
    fit[0] = False
    rates = np.full(sim.n, np.nan)
    if vals.shape[0] >= 5:
        rates[fit] = -np.polyfit(times[window], np.log(vals[:, fit]), 1)[0]
    return rates
