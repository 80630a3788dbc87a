"""End-to-end scenario harness.

Each scenario builds its system from (config, seed), runs the relevant
simulation or computation, evaluates a fixed list of named assertions, and
names its CSV artifacts for external plotting, each with the function that
writes it; only run_scenario touches the file system. Assertion failures
are reported in the returned ScenarioResult, never raised; every scenario
is a deterministic function of (name, config, seed).

Scenarios
---------
basis_equivalence      vertex-basis and coefficient-basis integration agree
fig2_cluster_sync      cluster synchronization on a planted AEP: structural
                       modes dominate, spreads collapse, limits match
fig3_linearization_error  linearization error grows with coefficient size
fig4_hierarchical      nested AEP: disordered -> 6 -> 3 -> synchronized,
                       decay rates match sigma * lambda_r
fig5_qep               perturbed AEP: error bounds hold, spreads and QEP
                       score shrink with the noise
fig6_single_mode       one structural mode with a negative discriminant
                       oscillates; the tangent branch tracks it
phase_lag_ex1          intra-cluster phase lag: nonstructural equilibria are
                       coupling-independent
phase_lag_ex2          uniform edge weight: equilibria follow the lag
                       alignment formula
sbm_limit              stochastic block model: equitable error concentrates
                       away as blocks grow

Default configs ship as JSON files under specsync/configs/.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from functools import partial
from importlib import resources
from itertools import groupby
from pathlib import Path

import numpy as np

from .graph import WeightedGraph, VertexPartition, indicator_matrix, laplacian, quotient_matrix
from .spectral import _degenerate_blocks, eigendecompose, spectral_basis, structural_indices
from .equitable import approximation_bound, equitable_error, equitable_error_matrix, qep_score
from .dynamics import (
    CoefficientTrajectory,
    OscillatorSystem,
    Trajectory,
    _project_in_place,
    integrate_vertex,
    integrate_coefficient,
    cluster_spread,
)
from .analysis import (
    asymptotic_coefficients,
    discriminant_report,
    fit_decay_rates,
    segment_regimes,
    single_mode_solution,
)
from .generators import PlantedAepConfig, SbmConfig, planted_aep, nested_aep, perturb, sample_sbm
from . import fileio

__all__ = [
    "Assertion", "ScenarioResult", "available_scenarios", "scenario_config", "run_scenario",
]


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):  # a numpy bool would not render in result.json
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    seed: int
    config: dict
    passed: bool
    assertions: tuple[Assertion, ...]
    metrics: dict
    artifacts: tuple[str, ...]


def _load_default_config(name: str) -> dict:
    ref = resources.files("specsync").joinpath(f"configs/{name}.json")
    return json.loads(ref.read_text())


_JSON_TYPES = (
    (bool, "boolean"), (int, "integer"), (float, "number"),
    (str, "string"), ((list, tuple), "array"), (dict, "object"),
)


# The fewest seeds, systems, sweep points or passing seeds a config may ask
# for; fewer leave a check nothing to count, or a trend nothing to compare.
_LEAST = {"seeds": 1, "systems": 1, "etas": 2, "sizes": 2, "required_pass": 1, "required": 1}


def _json_type(value) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)),
                type(value).__name__)


def _fits(default, value) -> bool:
    """Whether value has the JSON type of default; array elements must fit its elements."""
    want, got = _json_type(default), _json_type(value)
    if got != want and (want, got) != ("number", "integer"):
        return False
    return want != "array" or not default or all(any(_fits(d, v) for d in default) for v in value)


def _spearman(x, y) -> float | None:
    """Rank correlation, tied values sharing their average rank; None when
    x or y is constant and so has no correlation."""
    ranks = np.empty((2, len(x)))
    for row, v in zip(ranks, (x, y)):
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        row[:] = (np.cumsum(counts) - (counts + 1) / 2)[inverse]
    return float(np.corrcoef(ranks)[0, 1]) if np.ptp(ranks, axis=1).all() else None


def _table(header: list[str], rows):
    """Writer of a CSV table, called with the path it should write."""
    return partial(fileio.write_table, header=header, rows=rows)


def _planted(config: dict, seed: int):
    """(graph, partition, spectral basis, structural indices) of a planted AEP."""
    g, p = planted_aep(PlantedAepConfig(
        cell_sizes=tuple(config["cell_sizes"]),
        quotient_weights=tuple(map(tuple, config["quotient_weights"])),
        intra_density=config["intra_density"],
        intra_weight_range=tuple(config["intra_weight_range"]),
        seed=seed,
    ))
    basis = spectral_basis(g)
    return g, p, basis, structural_indices(basis, p)


def _relative_match(got, want, select, rtol, atol=0.0, floor=0.0):
    """(passed, count checked, worst relative error or None) of got against
    want on the selected entries, each error taken relative to
    max(|want|, floor). Passes only when the selection is nonempty and every
    error is within rtol of its scale or within atol."""
    err = np.abs(got[select] - want[select])
    scale = np.maximum(np.abs(want[select]), floor)
    if not err.size:
        return False, 0, None
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float((err / scale).max())
    return bool(np.all((err <= rtol * scale) | (err <= atol))), err.size, worst


def _fmt(worst, spec=".4f") -> str:
    return "none (0 checked)" if worst is None else format(worst, spec)


def _structural_drive(basis, struct, targets, sigma):
    """Cell-constant frequency vector whose linearized limits hit `targets`
    exactly on the nonzero structural modes."""
    omega = np.zeros(basis.n)
    for target, r in zip(targets, struct[1:]):
        omega += sigma * target * basis.eigenvalues[r] * basis.vertex_vectors[:, r]
    return omega


# --------------------------------------------------------------------------
# scenarios


def _scn_basis_equivalence(config, seed):
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for idx in range(config["systems"]):
        n = int(rng.integers(config["n_min"], config["n_max"] + 1))
        while True:
            edges = [
                (i, j, rng.uniform(0.5, 1.5))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            try:
                g = WeightedGraph(n, edges)
                break
            except ValueError:
                continue
        omega = rng.normal(0.0, 0.3, n)
        beta = rng.uniform(-0.2, 0.2, g.m) if idx % 2 else None
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=config["sigma"], beta=beta)
        basis = spectral_basis(g)
        theta0 = rng.uniform(-0.5, 0.5, n)
        steps = int(round(config["t_final"] / config["dt"]))
        traj = integrate_vertex(sys_, theta0, config["dt"], steps)
        alpha0 = basis.vertex_vectors.T @ theta0
        phases = integrate_coefficient(sys_, basis, alpha0, config["dt"], steps).coeffs
        _project_in_place(phases, basis.vertex_vectors.T)  # theta = V alpha
        diff = float(np.abs(phases - traj.states).max())
        worst = max(worst, diff)
        rows.append((idx, n, g.m, diff))
    assertions = [
        Assertion(
            "vertex_vs_coefficient_max_phase_diff",
            worst <= config["tol"],
            f"max |dtheta| = {worst:.3e} (tol {config['tol']:.1e})",
        )
    ]
    files = {"discrepancies.csv": _table(["system", "n", "m", "max_abs_diff"], rows)}
    return assertions, {"max_phase_diff": worst}, files


def _scn_fig2(config, seed):
    g, p, basis, struct = _planted(config, seed)
    nonstruct = [r for r in range(1, g.n) if r not in struct]
    sigma = config["sigma"]
    omega = _structural_drive(basis, struct, config["target_coeffs"], sigma)
    sys_ = OscillatorSystem(graph=g, omega=omega, sigma=sigma)
    pred = asymptotic_coefficients(sys_, basis)
    rng = np.random.default_rng(seed + 1)
    theta0 = rng.uniform(-config["theta0_scale"], config["theta0_scale"], g.n)
    alpha0 = basis.vertex_vectors.T @ theta0
    ctraj = integrate_coefficient(sys_, basis, alpha0, config["dt"], config["steps"])
    terminal = ctraj.coeffs[-1]
    energy = float((terminal[nonstruct] ** 2).sum() / (terminal[1:] ** 2).sum())
    traj = Trajectory(ctraj.t0, ctraj.dt, ctraj.coeffs @ basis.vertex_vectors.T)
    spread = float(cluster_spread(traj, p, -1).max())
    rtol = config["match_rtol"]
    small_ok, small, _ = _relative_match(
        terminal[1:], pred.alpha_inf[1:], np.abs(pred.alpha_inf[1:]) < 0.1, rtol, atol=1e-6
    )
    assertions = [
        Assertion(
            "structural_modes_are_lowest",
            struct == list(range(p.k)),
            f"structural indices {struct}",
        ),
        Assertion(
            "nonstructural_energy_fraction",
            energy < config["energy_tol"],
            f"fraction = {energy:.2e} (tol {config['energy_tol']:.0e})",
        ),
        Assertion(
            "cluster_spreads",
            spread <= config["spread_tol"],
            f"max spread = {spread:.2e} (tol {config['spread_tol']:.0e})",
        ),
        Assertion(
            "small_mode_limits_match",
            small_ok,
            f"{small} modes below 0.1 checked at {rtol:.0%}",
        ),
    ]
    metrics = {
        "nonstructural_energy_fraction": energy,
        "max_cluster_spread": spread,
        "structural_alpha_inf": [float(pred.alpha_inf[r]) for r in struct[1:]],
    }
    files = {
        "coefficients.csv": partial(fileio.write_coefficient_csv, ctraj),
        "phases.csv": partial(fileio.write_phase_csv, traj),
    }
    return assertions, metrics, files


def _scn_fig3(config, seed):
    mags, errs, per_seed = [], [], []
    rows = []
    for s in range(config["seeds"]):
        g, p, basis, _ = _planted(config, seed + s)
        rng = np.random.default_rng(seed + 100 + s)
        omega = rng.normal(0.0, config["omega_scale"], g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=config["sigma"])
        pred = asymptotic_coefficients(sys_, basis)
        ctraj = integrate_coefficient(
            sys_, basis, np.zeros(g.n), config["dt"], config["steps"]
        )
        terminal = ctraj.coeffs[-1]
        m = np.abs(pred.alpha_inf[1:])
        e = np.abs(terminal[1:] - pred.alpha_inf[1:])
        mags += m.tolist()
        errs += e.tolist()
        per_seed.append(_spearman(m, e))
        rows += [(s, r + 1, m[r], e[r]) for r in range(m.size)]
    pooled = _spearman(np.asarray(mags), np.asarray(errs))
    assertions = [
        Assertion(
            "error_grows_with_magnitude",
            pooled is not None and pooled >= config["min_spearman"],
            f"pooled Spearman = {'undefined' if pooled is None else format(pooled, '.3f')} "
            f"(min {config['min_spearman']})",
        )
    ]
    metrics = {"pooled_spearman": pooled, "per_seed_spearman": per_seed}
    files = {"error_profile.csv": _table(["seed", "mode", "alpha_inf_abs", "abs_error"], rows)}
    return assertions, metrics, files


def _classify_active(active, coarse, fine):
    s = set(active)
    if not s:
        return "synchronized"
    if not s <= (fine - {0}):
        return "disordered"
    if not s <= (coarse - {0}):
        return "six_cluster"
    return "three_cluster"


def _scn_fig4(config, seed):
    g, parts = nested_aep(
        levels=tuple(config["levels"]),
        leaf_size=config["leaf_size"],
        level_weights=tuple(config["level_weights"]),
        leaf_weight_range=tuple(config["leaf_weight_range"]),
        jitter=config["jitter"],
        seed=seed,
    )
    # Only eigenvalues and vertex vectors are read; no edge vectors needed.
    basis = eigendecompose(laplacian(g))
    coarse = set(structural_indices(basis, parts[0]))
    fine = set(structural_indices(basis, parts[1]))
    sigma = config["sigma"]
    sys_ = OscillatorSystem(graph=g, omega=np.zeros(g.n), sigma=sigma)
    expected_states = ["disordered", "six_cluster", "three_cluster", "synchronized"]

    sequence_pass = rate_pass = rates_checked = 0
    regime_rows, rate_rows = [], []
    # Skip decay-rate assertions for modes inside near-degenerate blocks:
    # neighbours closer than 1e-7 lambda_max, about 1e-6 at the shipped
    # weights (lambda_max near 10.3).
    lam = basis.eigenvalues
    lone = {int(b[0]) for b in _degenerate_blocks(lam, 1e-7) if b.size == 1}
    scale = config["theta0_scale"]
    theta0 = [np.random.default_rng(seed + s).uniform(-scale, scale, g.n)
              for s in range(config["seeds"])]
    batch = integrate_vertex(sys_, np.array(theta0), config["dt"], config["steps"])
    # The coefficients overwrite the batch: no second trajectory-sized array.
    _project_in_place(batch.states, basis.vertex_vectors)
    ctrajs = [CoefficientTrajectory(batch.t0, batch.dt, c) for c in batch.states.swapaxes(0, 1)]
    for s, ctraj in enumerate(ctrajs):
        # The integrator rejects non-finite states, so this is max |alpha_r|.
        c = ctraj.coeffs[:, 1:]
        threshold = config["threshold_frac"] * float(max(c.max(), -c.min()))
        regimes = segment_regimes(ctraj, threshold, min_dwell=config["min_dwell"])
        # Jitter splits deactivation times inside a level, so consecutive
        # intervals sharing a qualitative state are collapsed before
        # comparing against the four expected states.
        labels = [_classify_active(regime.active, coarse, fine) for regime in regimes]
        sequence_pass += [label for label, _ in groupby(labels)] == expected_states
        regime_rows += [(s, regime.t_start, regime.t_end, " ".join(map(str, regime.active)))
                        for regime in regimes]

        lo, hi = config["struct_window"]
        rates_late = fit_decay_rates(ctraj, lo, hi, amp_floor=1e-9)
        lo, hi = config["nonstruct_window"]
        rates_early = fit_decay_rates(ctraj, lo, hi, amp_floor=1e-8)
        rates = np.where(np.isin(np.arange(g.n), list(fine)), rates_late, rates_early)
        # A seed passes only on at least one finite fitted rate.
        checked = [r for r in range(1, g.n) if r in lone and not np.isnan(rates[r])]
        passed, count, _ = _relative_match(rates, sigma * lam, checked, config["rate_rtol"])
        rate_rows += [(s, r, float(lam[r]), float(rates[r]),
                       float(abs(rates[r] - sigma * lam[r]) / (sigma * lam[r])))
                      for r in checked]
        rate_pass += passed
        rates_checked += count

    assertions = [
        Assertion(
            "structural_modes_nested_and_lowest",
            coarse == {0, 1, 2} and fine == {0, 1, 2, 3, 4, 5},
            f"coarse {sorted(coarse)}, fine {sorted(fine)}",
        ),
        Assertion(
            "four_state_sequence",
            sequence_pass >= config["required_pass"],
            f"{sequence_pass}/{config['seeds']} seeds showed disordered -> six -> three -> synchronized",
        ),
        Assertion(
            "decay_rates_match",
            rate_pass >= config["required_pass"],
            f"{rate_pass}/{config['seeds']} seeds matched sigma*lambda within "
            f"{config['rate_rtol']:.0%} ({rates_checked} finite fitted rates checked)",
        ),
    ]
    metrics = {"sequence_pass": sequence_pass, "rate_pass": rate_pass}
    files = {
        "regimes.csv": _table(["seed", "t_start", "t_end", "active_modes"], regime_rows),
        "decay_rates.csv": _table(["seed", "mode", "eigenvalue", "fitted_rate", "rel_error"], rate_rows),
        "coefficients_seed0.csv": partial(fileio.write_coefficient_csv, ctrajs[0]),
    }
    return assertions, metrics, files


def _scn_fig5(config, seed):
    etas = config["etas"]
    chain_total = chain_ok = bound_ok = 0
    mean_scores, mean_spreads = [], []
    rows = []
    # Each seed's clean instance and its cell-constant drive serve every eta;
    # only the coupling weights carry the noise.
    clean = []
    for s in range(config["seeds"]):
        g0, p, basis, struct = _planted(config, seed + s)
        omega = _structural_drive(basis, struct, config["target_coeffs"], config["sigma"])
        clean.append((g0, p, omega))
    for eta in etas:
        scores, spreads = [], []
        for s, (g0, p, omega) in enumerate(clean):
            g = perturb(g0, p, eta, seed=seed + 50 + s)
            basis = spectral_basis(g)
            report = equitable_error(g, p)
            abs_e = np.abs(report.E)
            schur = float(np.sqrt(abs_e.sum(axis=0).max() * abs_e.sum(axis=1).max()))
            for m in report.per_mode:
                schur_v = schur * float(np.linalg.norm(m.vector))
                chain_total += 1
                chain_ok += (
                    m.epsilon_norm <= m.bound_sigma * (1 + 1e-12) + 1e-15
                    and m.bound_sigma <= schur_v * (1 + 1e-12) + 1e-15
                )
            q_vals = [m.eigenvalue for m in report.per_mode]
            gamma = config["gamma_frac"] * float(np.diff(q_vals).min())
            for m in report.per_mode:
                ab = approximation_bound(g, p, basis, (m.eigenvalue, m.vector), gamma)
                bound_ok += ab.actual_error <= ab.bound * (1 + 1e-10) + 1e-12
            sys_ = OscillatorSystem(graph=g, omega=omega, sigma=config["sigma"])
            rng = np.random.default_rng(seed + 500 + s)
            theta0 = rng.uniform(-config["theta0_scale"], config["theta0_scale"], g.n)
            alpha0 = basis.vertex_vectors.T @ theta0
            traj = Trajectory(0.0, config["dt"], integrate_coefficient(
                sys_, basis, alpha0, config["dt"], config["steps"]).coeffs)
            _project_in_place(traj.states, basis.vertex_vectors.T)  # theta = V alpha
            spread = float(cluster_spread(traj, p, -1).max())
            score = qep_score(g, p)
            scores.append(score)
            spreads.append(spread)
            rows.append((eta, s, score, spread))
        mean_scores.append(float(np.mean(scores)))
        mean_spreads.append(float(np.mean(spreads)))
    monotone_scores = all(a > b for a, b in zip(mean_scores, mean_scores[1:]))
    monotone_spreads = all(a > b for a, b in zip(mean_spreads, mean_spreads[1:]))
    assertions = [
        Assertion(
            "error_bound_chain",
            chain_ok == chain_total,
            f"{chain_ok}/{chain_total} quotient modes satisfied "
            "eps <= sigma_1 ||v|| <= sqrt(||E||_1 ||E||_inf) ||v|| (Schur test)",
        ),
        Assertion(
            "truncated_approximation_bound",
            bound_ok == chain_total,
            f"{bound_ok}/{chain_total} truncations satisfied the (delta/gamma) sqrt(n-|A|) bound",
        ),
        Assertion(
            "qep_score_monotone",
            monotone_scores,
            f"mean scores over eta {etas}: {[round(v, 5) for v in mean_scores]}",
        ),
        Assertion(
            "cluster_spread_monotone",
            monotone_spreads,
            f"mean spreads over eta {etas}: {[round(v, 6) for v in mean_spreads]}",
        ),
    ]
    metrics = {"mean_scores": mean_scores, "mean_spreads": mean_spreads}
    files = {"sweep.csv": _table(["eta", "seed", "qep_score", "max_spread"], rows)}
    return assertions, metrics, files


def _fig6_system(config: dict, seed: int):
    """Construct the multi-frequency demonstration system.

    Three cells: a tightly locked pair asymmetrically attached to a third,
    weakly coupled cell. The frequency vector drives the weak-cut mode far
    past locking while holding the pair mode at a small equilibrium whose
    cubic overlap with the weak mode pushes that mode's discriminant
    negative. Returns (graph, partition, basis, system, slip_mode,
    partner_mode).
    """
    g, p, basis, struct = _planted(config, seed)
    r1, r2 = struct[1], struct[2]
    sigma = config["sigma"]
    overlap = float(basis.edge_vectors[:, r2] @ (g.edge_w * basis.edge_vectors[:, r1] ** 3))
    drive = config["drive_ratio"] * sigma * basis.eigenvalues[r1]
    partner = config["partner_ratio"] * sigma * basis.eigenvalues[r2] * np.sign(overlap)
    omega = drive * basis.vertex_vectors[:, r1] + partner * basis.vertex_vectors[:, r2]
    sys_ = OscillatorSystem(graph=g, omega=omega, sigma=sigma)
    return g, p, basis, sys_, r1, r2


def _scn_fig6(config, seed):
    g, p, basis, sys_, r1, r2 = _fig6_system(config, seed)
    entries = {e.mode: e for e in discriminant_report(sys_, basis)}
    delta1 = entries[r1].delta
    others_min = min(e.delta for m, e in entries.items() if m != r1)

    dt = config["dt"]
    steps = int(round(config["t_final"] / dt))
    ctraj = integrate_coefficient(sys_, basis, np.zeros(g.n), dt, steps)
    t = ctraj.times
    alpha1 = ctraj.coeffs[:, r1]
    nonstruct = [r for r in range(1, g.n) if r not in (r1, r2)]
    final = slice(2 * len(t) // 3, None)
    peak_to_peak = float(alpha1[final].max() - alpha1[final].min())
    nonstruct_max = float(np.abs(ctraj.coeffs[final][:, nonstruct]).max())
    threshold = config["threshold"]

    # Tangent-branch prediction anchored after the partner mode settles.
    anchor = int(round(config["anchor_time"] / dt))
    root = np.sqrt(max(-delta1, 0.0))
    t_rel = t[anchor:] - t[anchor]
    pred, valid = single_mode_solution(
        sys_, basis, r1, float(alpha1[anchor]), t_rel,
        tan_margin=config["margin_frac"] * root if root > 0 else None,
    )
    cut = int(np.argmax(~valid)) if (~valid).any() else len(t_rel)
    sim = alpha1[anchor:][:cut]
    tracks, _, rel_err = _relative_match(pred[:cut], sim, slice(None), config["track_rtol"],
                                         floor=0.1 * float(np.abs(sim).max(initial=0.0)))
    window = float(t_rel[cut - 1]) if cut else 0.0
    gamma1 = abs(
        basis.vertex_vectors[p.cells()[0][0], r1] - basis.vertex_vectors[p.cells()[2][0], r1]
    )
    slip_period = 2.0 * np.pi / (gamma1 * abs(entries[r1].omega_r))

    assertions = [
        Assertion(
            "discriminant_pattern",
            delta1 < 0 < others_min,
            f"Delta_{r1} = {delta1:.4f}; min over other modes = {others_min:.4f}",
        ),
        Assertion(
            "persistent_oscillation",
            peak_to_peak > 10.0 * threshold,
            f"final-third peak-to-peak = {peak_to_peak:.1f} vs 10 x threshold = {10 * threshold:.1f}",
        ),
        Assertion(
            "nonstructural_quiet",
            nonstruct_max < threshold,
            f"final-third max |alpha_r| over nonstructural = {nonstruct_max:.2e} < {threshold}",
        ),
        Assertion(
            "tangent_tracks_simulation",
            tracks and window >= config["min_window_slips"] * slip_period,
            f"rel err {_fmt(rel_err, '.3f')} over {window:.1f} time units "
            f"(~{window / slip_period:.1f} slips)",
        ),
    ]
    metrics = {
        "delta_slip_mode": float(delta1),
        "min_other_delta": float(others_min),
        "peak_to_peak": peak_to_peak,
        "nonstructural_max": nonstruct_max,
        "tracking_rel_err": rel_err,
        "tracking_window": window,
        "slip_period": float(slip_period),
        "slip_mode": r1,
        "partner_mode": r2,
    }
    # A generator, so the sweep runs only when its table is written.
    sweep_rows = (
        (float(sigma), e.mode, e.delta)
        for sigma in np.linspace(0.05, 1.0, 20)
        for e in discriminant_report(
            OscillatorSystem(graph=g, omega=sys_.omega, sigma=float(sigma)), basis
        )
    )
    files = {
        "coefficients.csv": partial(fileio.write_coefficient_csv, ctraj),
        "tangent_prediction.csv": _table(
            ["t", "simulated", "predicted"],
            zip(t_rel[:cut].tolist(), sim.tolist(), pred[:cut].tolist()),
        ),
        "discriminant_sweep.csv": _table(["sigma", "mode", "delta"], sweep_rows),
    }
    return assertions, metrics, files


def _scn_phase_lag_ex1(config, seed):
    g, p, basis, struct = _planted(config, seed)
    intra = p.assignment[g.edge_i] == p.assignment[g.edge_j]
    beta = np.where(intra, config["beta_intra"], 0.0)
    sigma = config["sigma"]
    omega = _structural_drive(basis, struct, config["target_coeffs"], sigma)

    systems = [OscillatorSystem(graph=g, omega=omega, sigma=sigma * mult, beta=beta)
               for mult in (1.0, 2.0)]
    term1, term2 = (integrate_coefficient(sys_, basis, np.zeros(g.n), config["dt"],
                                          config["steps"]).coeffs[-1] for sys_ in systems)
    pred1 = asymptotic_coefficients(systems[0], basis)

    rtol = config["match_rtol"]
    significant = [r for r in range(1, g.n) if r not in struct and abs(term1[r]) > 1e-4]
    invariant, n_significant, worst_change = _relative_match(
        term2, term1, significant, config["sigma_change_tol"]
    )
    match_ok, matched, _ = _relative_match(
        term1[1:], pred1.alpha_inf[1:], np.abs(pred1.alpha_inf[1:]) > 1e-4, rtol
    )
    # Structural limits ignore the intra-cluster lag entirely.
    plain = pred1.omega_spec[struct[1:]] / (sigma * basis.eigenvalues[struct[1:]])
    lag_free, _, struct_err = _relative_match(term1[struct[1:]], plain, slice(None), rtol)

    assertions = [
        Assertion(
            "nonstructural_sigma_invariant",
            invariant,
            f"max change over {n_significant} modes = {_fmt(worst_change)} "
            f"(tol {config['sigma_change_tol']})",
        ),
        Assertion(
            "equilibria_match_prediction",
            match_ok,
            f"{matched} modes checked at {rtol:.0%}",
        ),
        Assertion(
            "structural_limits_lag_free",
            lag_free,
            f"max structural deviation from omega/(lambda sigma) = {_fmt(struct_err)}",
        ),
    ]
    metrics = {
        "max_sigma_change": worst_change,
        "significant_nonstructural": n_significant,
    }
    rows = [(r, float(term1[r]), float(pred1.alpha_inf[r]), r in struct) for r in range(1, g.n)]
    files = {"equilibria.csv": _table(["mode", "simulated", "predicted", "structural"], rows)}
    return assertions, metrics, files


def _scn_phase_lag_ex2(config, seed):
    c = config["clique_size"]
    w = config["weight"]
    # Two c-cliques joined by the matching a -- a + c.
    a, b = np.triu_indices(c, 1)
    ends = np.hstack([[a, b], [a + c, b + c], [range(c), range(c, 2 * c)]])
    g = WeightedGraph(2 * c, np.column_stack([*ends, np.full(ends.shape[1], w)]))
    p = VertexPartition([0] * c + [1] * c)
    basis = spectral_basis(g)
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-config["beta_scale"], config["beta_scale"], g.m)
    omega = np.where(p.assignment == 0, config["omega_contrast"], -config["omega_contrast"])
    sigma = config["sigma"]
    sys_ = OscillatorSystem(graph=g, omega=omega, sigma=sigma, beta=beta)
    pred = asymptotic_coefficients(sys_, basis)
    # Uniform weight closed form: (omega^(r) - w beta^(r)) / (lambda_r sigma)
    beta_spec = basis.edge_vectors.T @ beta
    closed = (pred.omega_spec[1:] - w * beta_spec[1:]) / (basis.eigenvalues[1:] * sigma)
    formula_dev = float(np.abs(pred.alpha_inf[1:] - closed).max())
    ctraj = integrate_coefficient(sys_, basis, np.zeros(g.n), config["dt"], config["steps"])
    terminal = ctraj.coeffs[-1][1:]
    rtol = config["match_rtol"]
    match_ok, checked, worst = _relative_match(terminal, closed, np.abs(closed) > 1e-3, rtol)
    assertions = [
        Assertion(
            "uniform_weight_formula_is_exact",
            formula_dev < 1e-12,
            f"max |general - uniform-weight form| = {formula_dev:.2e}",
        ),
        Assertion(
            "simulated_equilibria_match",
            match_ok,
            f"max rel err over {checked} modes = {_fmt(worst)} (tol {rtol})",
        ),
    ]
    metrics = {"max_rel_err": worst, "modes_checked": checked}
    rows = [(r + 1, float(terminal[r]), float(closed[r])) for r in range(g.n - 1)]
    files = {"equilibria.csv": _table(["mode", "simulated", "closed_form"], rows)}
    return assertions, metrics, files


def _sbm_concentration(g, p, probabilities):
    """max |E_iq| / (p_pq |C_q|) over vertices i and cells q != cell(i)."""
    err = equitable_error_matrix(g, p)
    other = p.assignment[:, None] != np.arange(p.k)
    denom = np.asarray(probabilities)[p.assignment] * p.sizes()
    return float((np.abs(err[other]) / denom[other]).max())


def _scn_sbm_limit(config, seed):
    pr = tuple(map(tuple, config["probabilities"]))
    sizes = config["sizes"]
    rows = []
    wins = 0
    for s in range(config["seeds"]):
        stats = {}
        for n in sizes:
            cfg = SbmConfig(
                block_sizes=(n // 2, n - n // 2),
                probabilities=pr,
                seed=seed + 1000 * s + n,
            )
            g, p = sample_sbm(cfg)
            stats[n] = _sbm_concentration(g, p, pr)
            rows.append((s, n, stats[n]))
        wins += stats[sizes[-1]] < stats[sizes[0]]

    # Noise-form identity on a small instance: with L = expected Laplacian
    # (an exact AEP) and N the sampling deviation, E collapses to the
    # quotient form of N alone. The right side is formed densely, so the
    # check compares two independent computations of E.
    cfg = SbmConfig(block_sizes=(sizes[0] // 2, sizes[0] - sizes[0] // 2), probabilities=pr, seed=seed)
    g, p = sample_sbm(cfg)
    expected_adj = np.asarray(pr)[p.assignment[:, None], p.assignment[None, :]].copy()
    np.fill_diagonal(expected_adj, 0.0)
    expected_lap = np.diag(expected_adj.sum(axis=1)) - expected_adj
    noise = laplacian(g) - expected_lap
    pmat = indicator_matrix(p)
    identity_dev = float(
        np.abs(
            equitable_error_matrix(g, p)
            - (pmat @ quotient_matrix(noise, p) - noise @ pmat)
        ).max()
    )

    assertions = [
        Assertion(
            "statistic_decreases_with_n",
            wins >= config["required"],
            f"{wins}/{config['seeds']} seeds decreased from n={sizes[0]} to n={sizes[-1]}",
        ),
        Assertion(
            "noise_form_identity",
            identity_dev <= config["identity_tol"],
            f"max |E - (P N^pi - N P)| = {identity_dev:.2e} (tol {config['identity_tol']:.0e})",
        ),
    ]
    metrics = {"wins": wins, "identity_dev": identity_dev}
    files = {"concentration.csv": _table(["seed", "n", "statistic"], rows)}
    return assertions, metrics, files


_SCENARIOS = {
    "basis_equivalence": _scn_basis_equivalence,
    "fig2_cluster_sync": _scn_fig2,
    "fig3_linearization_error": _scn_fig3,
    "fig4_hierarchical": _scn_fig4,
    "fig5_qep": _scn_fig5,
    "fig6_single_mode": _scn_fig6,
    "phase_lag_ex1": _scn_phase_lag_ex1,
    "phase_lag_ex2": _scn_phase_lag_ex2,
    "sbm_limit": _scn_sbm_limit,
}


def available_scenarios() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


def scenario_config(name: str, config: dict | None = None) -> dict:
    """The config run_scenario(name, config) runs with, checked: defaults updated by config."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {available_scenarios()}")
    overrides = {} if config is None else config
    if not isinstance(overrides, dict):
        raise ValueError(f"config must be a JSON object, got {_json_type(config)} {config!r}")
    merged = _load_default_config(name)
    unknown = set(overrides) - set(merged)
    if unknown:
        raise ValueError(f"unknown config keys for {name}: {sorted(unknown)}")
    for key, value in overrides.items():
        if not _fits(merged[key], value):
            raise ValueError(f"config key {key!r} of {name} must have the JSON types "
                             f"of {merged[key]!r}, got {value!r}")
        count = len(value) if isinstance(value, (list, tuple)) else value
        if key in _LEAST and count < _LEAST[key]:
            raise ValueError(f"config key {key!r} of {name} must count at least "
                             f"{_LEAST[key]}, got {value!r}")
        if key == "sizes" and min(value) < 2:  # n // 2 = 0 leaves an SBM block empty
            raise ValueError(f"config key 'sizes' of {name} must list sizes >= 2, got {value!r}")
    merged |= overrides
    if "n_min" in merged and not 2 <= merged["n_min"] <= merged["n_max"]:  # 1 vertex: no coupling
        raise ValueError(f"config keys 'n_min' and 'n_max' of {name} must satisfy 2 <= n_min "
                         f"<= n_max, got {merged['n_min']!r} and {merged['n_max']!r}")
    return merged


def run_scenario(
    name: str,
    config: dict | None = None,
    seed: int = 0,
    out_dir=None,
) -> ScenarioResult:
    """Run one named scenario and report its assertions.

    config is None or a dict whose entries override the scenario's shipped
    defaults; each must have its default's JSON type, element by element in
    arrays (an integer may stand for a number). seed must be a nonnegative
    integer. Both are checked, and out_dir/<name>/ is created when out_dir
    is given, before the scenario runs; a scenario raises ValueError only
    for a bad config. The scenario's CSV files are then written there
    together with a result.json rendering of the returned ScenarioResult,
    which is rendered before any file is written. Without out_dir nothing
    is written and no file writer runs.
    """
    merged = scenario_config(name, config)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    out = None if out_dir is None else Path(out_dir) / name
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    assertions, metrics, files = _SCENARIOS[name](merged, seed)
    result = ScenarioResult(
        name=name,
        seed=seed,
        config=merged,
        passed=all(a.passed for a in assertions),
        assertions=tuple(assertions),
        metrics=metrics,
        artifacts=() if out is None else tuple(str(out / file_name) for file_name in files),
    )
    if out is not None:
        text = json.dumps(asdict(result), indent=2) + "\n"
        for file_name, write in files.items():
            write(out / file_name)
        (out / "result.json").write_text(text)
    return result
