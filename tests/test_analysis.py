import tracemalloc

import numpy as np
import pytest

from specsync import (
    WeightedGraph,
    PlantedAepConfig,
    OscillatorSystem,
    CoefficientTrajectory,
    spectral_basis,
    integrate_coefficient,
    planted_aep,
    asymptotic_coefficients,
    linear_solution,
    discriminant_report,
    single_mode_solution,
    segment_regimes,
    fit_decay_rates,
    Regime,
)

from conftest import oracle_x_coupling, random_connected_graph


def make_system(rng, n_max=10, sigma=1.0, omega_scale=0.3, beta_scale=0.0):
    g = random_connected_graph(rng, n_max=n_max, n_min=5)
    omega = rng.normal(0.0, omega_scale, size=g.n)
    beta = rng.uniform(-beta_scale, beta_scale, size=g.m) if beta_scale else None
    return OscillatorSystem(graph=g, omega=omega, sigma=sigma, beta=beta)


def report_entry(system, basis, r):
    """The discriminant_report entry of mode r."""
    entry = discriminant_report(system, basis)[r - 1]
    assert entry.mode == r
    return entry


def synthetic_traj(basis, times, coeffs):
    dt = times[1] - times[0]
    return CoefficientTrajectory(t0=float(times[0]), dt=float(dt), coeffs=coeffs, basis=basis)


def reference_segment_regimes(sim, threshold, min_dwell):
    """Oracle: the absorption loop that rebuilt the whole run list after
    every absorption to re-merge equal neighbors."""
    active = np.abs(sim.coeffs[:, 1:]) > threshold
    changes = np.flatnonzero(np.any(active[1:] != active[:-1], axis=1)) + 1
    starts = np.concatenate([[0], changes])
    ends = np.concatenate([changes, [active.shape[0]]])
    runs = [[int(s), int(e), frozenset(np.flatnonzero(active[s]) + 1)]
            for s, e in zip(starts, ends)]

    def duration(run):
        return (run[1] - run[0]) * sim.dt

    while len(runs) > 1:
        idx = min(range(len(runs)), key=lambda i: (duration(runs[i]), i))
        if duration(runs[idx]) >= min_dwell:
            break
        if idx == 0:
            runs[1][0] = runs[0][0]
            del runs[0]
        else:
            runs[idx - 1][1] = runs[idx][1]
            del runs[idx]
        merged = [runs[0]]
        for run in runs[1:]:
            if run[2] == merged[-1][2]:
                merged[-1][1] = run[1]
            else:
                merged.append(run)
        runs = merged

    times = sim.times
    return tuple(
        Regime(float(times[s]), float(times[e - 1] if e == len(times) else times[e]),
               tuple(sorted(modes)))
        for s, e, modes in runs
    )


def reference_fit_decay_rates(sim, t_start, t_end, amp_floor=1e-12):
    """Oracle: one np.polyfit per mode."""
    times = sim.times
    window = (times >= t_start) & (times <= t_end)
    rates = np.full(sim.n, np.nan)
    for r in range(1, sim.n):
        vals = np.abs(sim.coeffs[window, r])
        if vals.size < 5 or np.any(vals < amp_floor):
            continue
        rates[r] = -np.polyfit(times[window], np.log(vals), 1)[0]
    return rates


def noisy_decays(rng, samples, n, dt=0.01):
    """Signed exponentials at random rates with log-normal noise, every
    sample finite and far above 1e-12."""
    times = rng.uniform(0.0, 2.0) + dt * np.arange(samples)
    logs = (rng.normal(0.0, 1.0, n) - rng.uniform(0.0, 3.0, n) * times[:, None]
            + 0.05 * rng.normal(size=(samples, n)))
    coeffs = rng.choice([-1.0, 1.0], size=(samples, n)) * np.exp(logs)
    return CoefficientTrajectory(t0=float(times[0]), dt=dt, coeffs=coeffs, basis=None)


class TestLinearSolution:
    def path_prediction(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        basis = spectral_basis(g)
        sys_ = OscillatorSystem(graph=g, omega=np.array([1.0, 0.0, -1.0]), sigma=2.0)
        return asymptotic_coefficients(sys_, basis)

    def test_initial_value(self):
        pred = self.path_prediction()
        assert abs(linear_solution(pred, 1, 0.37, 0.0) - 0.37) < 1e-15

    def test_limit_matches_alpha_inf(self):
        # Hand computation on the path: v1 = (1, 0, -1)/sqrt 2, lambda_1 = 1,
        # omega.v1 = sqrt 2, so alpha_1^inf = sqrt 2 / 2.
        pred = self.path_prediction()
        assert abs(pred.alpha_inf[1] - 0.7071067811865476) < 1e-12
        assert abs(pred.alpha_inf[2]) < 1e-12
        assert abs(linear_solution(pred, 1, 5.0, 1e3) - pred.alpha_inf[1]) < 1e-12

    def test_pure_decay(self):
        # omega orthogonal to the mode: alpha(1) = exp(-sigma lambda t).
        g = WeightedGraph(2, [(0, 1, 1.0)])
        basis = spectral_basis(g)
        sys_ = OscillatorSystem(graph=g, omega=np.zeros(2), sigma=1.0)
        pred = asymptotic_coefficients(sys_, basis)
        assert abs(pred.decay_rates[1] - 2.0) < 1e-12
        assert abs(linear_solution(pred, 1, 1.0, 1.0) - np.exp(-2.0)) < 1e-12
        assert abs(np.exp(-2.0) - 0.1353352832366127) < 1e-15

    def test_rejects_mode_zero(self):
        pred = self.path_prediction()
        with pytest.raises(ValueError, match="mode"):
            linear_solution(pred, 0, 1.0, 1.0)


class TestAsymptoticCoefficients:
    def test_uniform_frequency_full_synchronization(self):
        rng = np.random.default_rng(40)
        g = random_connected_graph(rng)
        sys_ = OscillatorSystem(graph=g, omega=np.full(g.n, 0.7), sigma=1.3)
        pred = asymptotic_coefficients(sys_, spectral_basis(g))
        assert np.abs(pred.alpha_inf[1:]).max() < 1e-12
        assert np.isnan(pred.alpha_inf[0])

    def test_sigma_scaling_without_lag(self):
        rng = np.random.default_rng(41)
        g = random_connected_graph(rng)
        omega = rng.normal(size=g.n)
        basis = spectral_basis(g)
        p1 = asymptotic_coefficients(OscillatorSystem(graph=g, omega=omega, sigma=1.0), basis)
        p2 = asymptotic_coefficients(OscillatorSystem(graph=g, omega=omega, sigma=2.0), basis)
        assert np.allclose(p2.alpha_inf[1:], 0.5 * p1.alpha_inf[1:], atol=1e-14)

    def test_lag_term_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        g = random_connected_graph(rng, n_max=8)
        beta = rng.uniform(-0.2, 0.2, size=g.m)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=1.5, beta=beta)
        basis = spectral_basis(g)
        pred = asymptotic_coefficients(sys_, basis)
        for r in range(g.n):
            direct = sum(
                g.edge_w[a] * basis.edge_vectors[a, r] * beta[a] for a in range(g.m)
            )
            assert abs(pred.lag_spec[r] - direct) < 1e-12
        expected = (pred.omega_spec[1:] - 1.5 * pred.lag_spec[1:]) / (1.5 * basis.eigenvalues[1:])
        assert np.allclose(pred.alpha_inf[1:], expected, atol=1e-14)


class TestXCoupling:
    def test_zero_when_omega_aligned_with_mode(self):
        rng = np.random.default_rng(45)
        g = random_connected_graph(rng, n_max=8)
        basis = spectral_basis(g)
        omega = 0.8 * basis.vertex_vectors[:, 2]
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        assert abs(report_entry(sys_, basis, 2).x) < 1e-12

    def test_single_edge_graph_has_no_coupling(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        basis = spectral_basis(g)
        sys_ = OscillatorSystem(graph=g, omega=np.array([0.4, -0.4]), sigma=1.0)
        assert report_entry(sys_, basis, 1).x == 0.0

    def test_matches_brute_force_sum(self):
        g, _ = planted_aep(
            PlantedAepConfig(
                cell_sizes=(2, 3),
                quotient_weights=((0.0, 1.5), (1.0, 0.0)),
                intra_density=1.0,
                seed=10,
            )
        )
        rng = np.random.default_rng(46)
        basis = spectral_basis(g)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=1.7)
        omega_spec = basis.vertex_vectors.T @ sys_.omega
        report = discriminant_report(sys_, basis)
        for r1 in range(1, g.n):
            brute = 0.0
            for s in range(1, g.n):
                if s == r1:
                    continue
                inner = 0.0
                for a in range(g.m):
                    inner += (
                        g.edge_w[a]
                        * basis.edge_vectors[a, r1] ** 3
                        * basis.edge_vectors[a, s]
                    )
                brute += omega_spec[s] / (2.0 * sys_.sigma * basis.eigenvalues[s]) * inner
            assert abs(report[r1 - 1].x - brute) < 1e-12

    def test_rejects_foreign_basis_and_nonpositive_coupling(self):
        rng = np.random.default_rng(44)
        g = random_connected_graph(rng, n_max=8, n_min=5)
        omega = rng.normal(size=g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        other = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="system graph"):
            discriminant_report(sys_, spectral_basis(other))
        uncoupled = OscillatorSystem(graph=g, omega=omega, sigma=0.0)
        with pytest.raises(ValueError, match="positive coupling"):
            discriminant_report(uncoupled, spectral_basis(g))


def sparse_connected_graph(rng, n, extra):
    """Random spanning tree on n vertices plus `extra` distinct random chords."""
    pairs = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    while len(pairs) < n - 1 + extra:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    return WeightedGraph(n, [(i, j, rng.uniform(0.5, 1.5)) for i, j in sorted(pairs)])


# 24 graphs: dense to sparse (density < 0.1), with and without lag.
ORACLE_KINDS = [(kind, lag) for kind in ("dense", "medium", "sparse") for lag in (False, True)]
ORACLE_CASES = [(seed, *ORACLE_KINDS[seed % len(ORACLE_KINDS)]) for seed in range(24)]


class TestReportMatchesOracle:
    def build(self, seed, kind):
        rng = np.random.default_rng(900 + seed)
        if kind == "sparse":
            n = int(rng.integers(40, 61))
            g = sparse_connected_graph(rng, n, extra=n // 2)
            assert g.m / (n * (n - 1) / 2) < 0.1
        else:
            p = 0.9 if kind == "dense" else 0.4
            g = random_connected_graph(rng, n_max=25, n_min=6, p=p)
        return rng, g

    @pytest.mark.parametrize("seed, kind, lagged", ORACLE_CASES)
    def test_x_and_delta_match_per_mode_oracle(self, seed, kind, lagged):
        rng, g = self.build(seed, kind)
        beta = rng.uniform(-0.3, 0.3, size=g.m) if lagged else None
        sigma = float(rng.uniform(0.3, 2.0))
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=sigma, beta=beta)
        basis = spectral_basis(g)
        report = discriminant_report(sys_, basis)
        assert [e.mode for e in report] == list(range(1, g.n))
        x = np.array([e.x for e in report])
        want_x = np.array([oracle_x_coupling(sys_, basis, r) for r in range(1, g.n)])
        omega_r = basis.vertex_vectors[:, 1:].T @ sys_.omega
        lam = basis.eigenvalues[1:]
        want_delta = (sigma * lam) ** 2 - 4.0 * sigma * omega_r * want_x
        delta = np.array([e.delta for e in report])
        assert np.abs(x - want_x).max() <= 1e-12 * np.abs(want_x).max()
        assert np.abs(delta - want_delta).max() <= 1e-12 * np.abs(want_delta).max()
        got_omega = np.array([e.omega_r for e in report])
        assert np.abs(got_omega - omega_r).max() <= 1e-12 * np.abs(omega_r).max()


class TestDiscriminant:
    def test_orthogonal_omega_gives_positive_delta(self):
        rng = np.random.default_rng(47)
        g = random_connected_graph(rng, n_max=8)
        basis = spectral_basis(g)
        omega = basis.vertex_vectors[:, 1] * 0.5  # omega^(2) = 0
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.2)
        entry = report_entry(sys_, basis, 2)
        expected = (1.2 * basis.eigenvalues[2]) ** 2
        assert abs(entry.delta - expected) < 1e-10
        assert entry.classification == "fixed_point"

    def test_large_sigma_always_fixed_point(self):
        rng = np.random.default_rng(48)
        g = random_connected_graph(rng, n_max=8)
        basis = spectral_basis(g)
        omega = rng.normal(size=g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=50.0)
        for entry in discriminant_report(sys_, basis):
            assert entry.delta > 0

    def test_report_covers_all_modes(self):
        rng = np.random.default_rng(49)
        g = random_connected_graph(rng, n_max=7)
        basis = spectral_basis(g)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=1.0)
        report = discriminant_report(sys_, basis)
        assert [e.mode for e in report] == list(range(1, g.n))


def reduced_ode_oracle(omega_r, sl, sx, alpha0, times):
    """RK4 on dalpha/dt = omega_r - sl * alpha + sx * alpha^2."""
    dt = times[1] - times[0]
    out = np.empty_like(times)
    out[0] = alpha0
    y = alpha0
    for i in range(times.size - 1):
        f = lambda a: omega_r - sl * a + sx * a * a
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * (k2 + k3) + k4)
        out[i + 1] = y
    return out


class TestSingleModeSolution:
    def _system_with_coupling(self, seed=50):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n_max=8, n_min=6)
        basis = spectral_basis(g)
        omega = rng.normal(0.0, 0.5, size=g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        return sys_, basis

    def test_stable_branch_solves_reduced_ode(self):
        sys_, basis = self._system_with_coupling()
        r1 = 1
        entry = report_entry(sys_, basis, r1)
        assert entry.delta > 0
        sl = sys_.sigma * basis.eigenvalues[r1]
        sx = sys_.sigma * entry.x
        times = np.linspace(0.0, 8.0, 801)
        alpha0 = 0.05
        values, valid = single_mode_solution(sys_, basis, r1, alpha0, times)
        oracle = reduced_ode_oracle(entry.omega_r, sl, sx, alpha0, times)
        assert valid.all()
        assert np.abs(values - oracle).max() < 1e-8

    def test_stable_branch_limit_is_stable_root(self):
        sys_, basis = self._system_with_coupling(seed=51)
        r1 = 2
        entry = report_entry(sys_, basis, r1)
        assert entry.delta > 0
        sl = sys_.sigma * basis.eigenvalues[r1]
        sx = sys_.sigma * entry.x
        values, _ = single_mode_solution(sys_, basis, r1, 0.0, np.array([500.0]))
        root = values[-1]
        # Equilibrium of the reduced flow and local stability.
        assert abs(entry.omega_r - sl * root + sx * root**2) < 1e-9
        assert -sl + 2 * sx * root < 0

    def test_tangent_branch_solves_reduced_ode(self):
        # Force delta < 0 by handing the discriminant a strongly aligned
        # frequency vector on a weakly coupled pair of cells.
        sys_, basis = self._fabricated_negative_delta()
        entry = report_entry(sys_, basis, 1)
        assert entry.delta < 0
        sl = sys_.sigma * basis.eigenvalues[1]
        sx = sys_.sigma * entry.x
        times = np.linspace(0.0, 4.0, 4001)
        alpha0 = 0.0
        values, valid = single_mode_solution(sys_, basis, 1, alpha0, times, tan_margin=1e12)
        oracle = reduced_ode_oracle(entry.omega_r, sl, sx, alpha0, times)
        keep = valid & (np.abs(oracle) < 50.0)
        assert keep.sum() > 100
        assert np.abs(values[keep] - oracle[keep]).max() < 1e-6 * max(1.0, np.abs(oracle[keep]).max())

    def test_tangent_validity_mask_cuts_past_singularity(self):
        sys_, basis = self._fabricated_negative_delta()
        entry = report_entry(sys_, basis, 1)
        root = np.sqrt(-entry.delta)
        sl = sys_.sigma * basis.eigenvalues[1]
        phi0 = np.arctan((2 * sys_.sigma * entry.x * 0.0 - sl) / root)
        t_div = (0.5 * np.pi - phi0) * 2.0 / root
        times = np.linspace(0.0, 3.0 * t_div, 300)
        _, valid = single_mode_solution(sys_, basis, 1, 0.0, times)
        assert not valid[times > t_div].any()

    def _fabricated_negative_delta(self):
        # x_1 depends only on the frequency components of the other modes,
        # so align the mode-1 component with the sign of x_1 and shrink
        # sigma until the quadratic term wins.
        rng = np.random.default_rng(52)
        g = random_connected_graph(rng, n_max=8, n_min=6)
        basis = spectral_basis(g)
        noise = rng.normal(0.0, 1.0, size=g.n)
        probe = OscillatorSystem(graph=g, omega=noise, sigma=1.0)
        x1 = report_entry(probe, basis, 1).x
        assert abs(x1) > 1e-6
        omega = noise + np.sign(x1) * 3.0 * basis.vertex_vectors[:, 1]
        for sigma in (0.05, 0.1, 0.2, 0.4):
            sys_ = OscillatorSystem(graph=g, omega=omega, sigma=sigma)
            if report_entry(sys_, basis, 1).delta < 0:
                return sys_, basis
        raise AssertionError("no sigma produced a negative discriminant")

    def test_zero_coupling_reduces_to_linear(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        basis = spectral_basis(g)
        sys_ = OscillatorSystem(graph=g, omega=np.array([0.6, -0.2]), sigma=1.0)
        pred = asymptotic_coefficients(sys_, basis)
        times = np.linspace(0.0, 5.0, 51)
        values, valid = single_mode_solution(sys_, basis, 1, 0.3, times)
        assert valid.all()
        assert np.allclose(values, linear_solution(pred, 1, 0.3, times), atol=1e-12)


class TestSegmentRegimes:
    def _basis(self, n):
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        return spectral_basis(WeightedGraph(n, edges))

    def test_all_zero_single_empty_regime(self):
        basis = self._basis(4)
        times = np.arange(0.0, 10.0, 0.1)
        traj = synthetic_traj(basis, times, np.zeros((times.size, 4)))
        regimes = segment_regimes(traj, threshold=0.01, min_dwell=1.0)
        assert len(regimes) == 1
        assert regimes[0].active == ()

    def test_staircase_deactivation(self):
        basis = self._basis(4)
        times = np.arange(0.0, 30.0, 0.1)
        coeffs = np.zeros((times.size, 4))
        coeffs[:, 1] = np.where(times < 20.0, 1.0, 0.0)
        coeffs[:, 2] = np.where(times < 10.0, 1.0, 0.0)
        # A sub-dwell flicker that must be absorbed.
        coeffs[150:152, 3] = 1.0
        traj = synthetic_traj(basis, times, coeffs)
        regimes = segment_regimes(traj, threshold=0.5, min_dwell=2.0)
        actives = [r.active for r in regimes]
        assert actives == [(1, 2), (1,), ()]
        assert abs(regimes[0].t_end - 10.0) < 0.2
        assert abs(regimes[1].t_end - 20.0) < 0.2
        # The intervals tile the full time range.
        assert regimes[0].t_start == 0.0
        assert regimes[-1].t_end == pytest.approx(times[-1])
        for a, b in zip(regimes, regimes[1:]):
            assert a.t_end == pytest.approx(b.t_start)

    def test_exponential_decay_ordering(self):
        # Oracle: alpha_r(t) = alpha_r(0) exp(-sigma lambda_r t) deactivates
        # in increasing eigenvalue order of reactivation... deactivation
        # times are ordered inversely to the decay rates.
        basis = self._basis(5)
        sigma = 1.0
        times = np.arange(0.0, 40.0, 0.05)
        coeffs = np.zeros((times.size, 5))
        for r in range(1, 5):
            coeffs[:, r] = np.exp(-sigma * basis.eigenvalues[r] * times)
        traj = synthetic_traj(basis, times, coeffs)
        regimes = segment_regimes(traj, threshold=1e-3, min_dwell=0.5)
        last_active = {}
        for regime in regimes:
            for r in regime.active:
                last_active[r] = regime.t_end
        lams = basis.eigenvalues
        for r in range(1, 5):
            for s in range(1, 5):
                if lams[r] < lams[s] - 1e-9:
                    assert last_active[r] >= last_active[s]

    def test_matches_rescan_reference(self):
        # Piecewise-constant activity with short flickers, so that absorbing
        # a flicker often makes its two neighbors equal.
        rng = np.random.default_rng(81)
        for trial in range(1200):
            n = int(rng.integers(2, 6))
            lengths = rng.integers(1, 25, size=int(rng.integers(1, 12)))
            active = np.repeat(rng.random((lengths.size, n - 1)) < 0.5, lengths, axis=0)
            for _ in range(int(rng.integers(0, 8))):
                at = int(rng.integers(0, active.shape[0]))
                active[at:at + int(rng.integers(1, 4)), int(rng.integers(0, n - 1))] ^= True
            coeffs = np.zeros((active.shape[0], n))
            coeffs[:, 1:] = np.where(active, rng.uniform(0.6, 2.0, active.shape),
                                     rng.uniform(0.0, 0.4, active.shape))
            coeffs *= rng.choice([-1.0, 1.0], size=coeffs.shape)
            dt = float(rng.choice([0.05, 0.1, 0.25]))
            traj = CoefficientTrajectory(t0=float(rng.uniform(-1.0, 1.0)), dt=dt,
                                         coeffs=coeffs, basis=None)
            min_dwell = float(rng.uniform(0.0, 30.0)) * dt
            assert (segment_regimes(traj, 0.5, min_dwell)
                    == reference_segment_regimes(traj, 0.5, min_dwell)), trial

    def test_peak_memory_is_two_masks(self):
        # 6001 x 180 smooth decays, 8.6 MB of coefficients; |alpha| as a
        # float array alone would take 8.6 MB more.
        times = np.arange(6001) * 0.01
        coeffs = np.exp(-np.outer(times, np.linspace(0.0, 3.0, 180)))
        traj = CoefficientTrajectory(t0=0.0, dt=0.01, coeffs=coeffs, basis=None)
        tracemalloc.start()
        try:
            regimes = segment_regimes(traj, 0.02, min_dwell=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(regimes) > 2
        assert peak < 2 * coeffs[:, 1:].size + 1e6

    def test_threshold_is_required_and_positive(self):
        basis = self._basis(3)
        times = np.arange(0.0, 10.0, 0.1)
        traj = synthetic_traj(basis, times, np.ones((times.size, 3)))
        with pytest.raises(TypeError, match="threshold"):
            segment_regimes(traj, min_dwell=1.0)
        with pytest.raises(ValueError, match="threshold must be positive"):
            segment_regimes(traj, 0.0, min_dwell=1.0)


def test_analysis_of_a_batch_is_rejected():
    times = np.arange(0.0, 10.0, 0.1)
    batch = CoefficientTrajectory(t0=0.0, dt=0.1, coeffs=np.ones((times.size, 2, 3)), basis=None)
    with pytest.raises(ValueError, match="segment_regimes takes one trajectory"):
        segment_regimes(batch, 0.5, min_dwell=1.0)
    with pytest.raises(ValueError, match="fit_decay_rates takes one trajectory"):
        fit_decay_rates(batch, 0.0, 10.0)


class TestFitDecayRates:
    def test_exact_exponentials(self):
        g_edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        basis = spectral_basis(WeightedGraph(5, g_edges))
        sigma = 0.7
        times = np.arange(0.0, 5.0, 0.01)
        coeffs = np.zeros((times.size, 5))
        for r in range(1, 5):
            coeffs[:, r] = 0.3 * np.exp(-sigma * basis.eigenvalues[r] * times)
        traj = synthetic_traj(basis, times, coeffs)
        rates = fit_decay_rates(traj, 0.0, 5.0)
        assert np.isnan(rates[0])
        assert np.allclose(rates[1:], sigma * basis.eigenvalues[1:], rtol=1e-10)

    def test_matches_per_mode_fits(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            traj = noisy_decays(rng, int(rng.integers(3, 400)), int(rng.integers(1, 9)))
            t = traj.times
            lo, hi = np.sort(rng.uniform(t[0] - 0.5, t[-1] + 0.5, 2))
            rates = fit_decay_rates(traj, lo, hi)
            np.testing.assert_allclose(rates, reference_fit_decay_rates(traj, lo, hi),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("amp_floor", [1e-12, 0.0])
    def test_unfit_modes_are_nan_and_leave_the_rest(self, amp_floor):
        rng = np.random.default_rng(73)
        clean = noisy_decays(rng, 200, 8)
        coeffs = clean.coeffs.copy()
        coeffs[17, 2] = 1e-13 if amp_floor else 0.0  # below the floor, or zero
        coeffs[50, 3] = np.inf
        coeffs[120, 4] = -np.inf
        coeffs[199, 5] = 0.0
        traj = CoefficientTrajectory(t0=clean.t0, dt=clean.dt, coeffs=coeffs, basis=None)
        lo, hi = clean.times[0], clean.times[-1]
        rates = fit_decay_rates(traj, lo, hi, amp_floor=amp_floor)
        assert np.isnan(rates[[0, 2, 3, 4, 5]]).all()
        kept = [1, 6, 7]
        assert np.isfinite(rates[kept]).all()
        expected = reference_fit_decay_rates(clean, lo, hi, amp_floor=amp_floor)
        np.testing.assert_allclose(rates[kept], expected[kept], rtol=1e-12, atol=0.0)

    def test_short_window_is_all_nan(self):
        traj = noisy_decays(np.random.default_rng(74), 50, 4)
        t = traj.times
        assert np.isnan(fit_decay_rates(traj, t[10], t[13])).all()  # 4 samples
        rates = fit_decay_rates(traj, t[10], t[14])  # 5 samples
        assert np.isnan(rates[0]) and np.isfinite(rates[1:]).all()

    def test_simulated_uniform_frequency_decay(self):
        # Linear-regime slopes of log |alpha_r| match sigma lambda_r within
        # 5% for distinct eigenvalues.
        rng = np.random.default_rng(53)
        trials = 0
        for seed in range(20):
            if trials >= 10:
                break
            g = random_connected_graph(rng, n_max=8, n_min=5)
            basis = spectral_basis(g)
            lams = basis.eigenvalues
            if np.diff(lams).min() < 0.05:  # skip near-degenerate spectra
                continue
            trials += 1
            sigma = 1.0
            sys_ = OscillatorSystem(graph=g, omega=np.zeros(g.n), sigma=sigma)
            # Small amplitudes and an early window keep each mode's own
            # exponential above the cubic cross-mode forcing.
            alpha0 = np.zeros(g.n)
            alpha0[1:] = rng.uniform(0.01, 0.02, size=g.n - 1) * rng.choice([-1, 1], size=g.n - 1)
            ctraj = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=150)
            rates = fit_decay_rates(ctraj, 0.0, 1.0)
            for r in range(1, g.n):
                if np.isnan(rates[r]):
                    continue
                assert abs(rates[r] - sigma * lams[r]) < 0.05 * sigma * lams[r]
        assert trials == 10
