import numpy as np
import pytest

from specsync import (
    WeightedGraph,
    VertexPartition,
    PlantedAepConfig,
    OscillatorSystem,
    BlowUpError,
    SpectralBasis,
    spectral_basis,
    integrate_vertex,
    integrate_coefficient,
    rezero,
    cluster_spread,
    structural_indices,
    planted_aep,
    nested_aep,
    sample_sbm,
    SbmConfig,
)
from specsync import dynamics, experiments

from conftest import random_connected_graph, reconstruct_trajectory


def two_oscillator_system(omega=(0.0, 0.0), sigma=1.0, w=1.0):
    g = WeightedGraph(2, [(0, 1, w)])
    return OscillatorSystem(graph=g, omega=np.asarray(omega, dtype=float), sigma=sigma)


def rk4(rhs, y0, dt, steps):
    """Oracle: classical fixed-step RK4 as a generic loop over a closure."""
    out = np.empty((steps + 1,) + y0.shape)
    out[0] = y = y0
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + dt * k3)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[k] = y
    return out


def reference_vertex(system, theta0, dt, steps):
    """Oracle: the vertex right-hand side omega - sigma c(theta) as a closure
    over the unscaled coupling kernel, stepped by the generic RK4 loop."""
    flow = dynamics._vertex_coupling(system, theta0.shape, 1.0)
    row = np.empty(theta0.shape)

    def rhs(theta):
        return system.omega - system.sigma * flow(theta, row)

    return rk4(rhs, theta0, dt, steps)


class TestVertexIntegration:
    def test_symmetric_pair_attracts(self):
        sys_ = two_oscillator_system()
        traj = integrate_vertex(sys_, np.array([0.1, -0.1]), dt=0.01, steps=1000)
        gaps = np.abs(traj.states[:, 0] - traj.states[:, 1])
        assert gaps[-1] < 1e-8
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_two_oscillator_locked_difference(self):
        # Closed form: sin(Delta) = (omega_1 - omega_2) / (2 sigma w).
        sys_ = two_oscillator_system(omega=(0.5, -0.5))
        traj = integrate_vertex(sys_, np.zeros(2), dt=0.01, steps=4000)
        delta = traj.states[-1, 0] - traj.states[-1, 1]
        assert abs(delta - np.arcsin(0.5)) < 1e-9
        assert abs(delta - 0.5235987755982989) < 1e-9

    def test_uncoupled_is_exact_linear_growth(self):
        rng = np.random.default_rng(30)
        g = random_connected_graph(rng, n_max=8)
        omega = rng.normal(size=g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=0.0)
        traj = integrate_vertex(sys_, np.zeros(g.n), dt=0.05, steps=200)
        expected = omega[None, :] * traj.times[:, None]
        assert np.abs(traj.states - expected).max() < 1e-10

    def test_mean_phase_drifts_at_mean_frequency(self):
        # Antisymmetric coupling cancels pairwise, so the sampled mean phase
        # advances at exactly the mean natural frequency when beta = 0.
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, n_max=10)
        omega = rng.normal(0.2, 0.5, size=g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=0.8)
        theta0 = rng.uniform(-1, 1, size=g.n)
        traj = integrate_vertex(sys_, theta0, dt=0.01, steps=2000)
        expected = theta0.mean() + omega.mean() * traj.times
        assert np.abs(traj.states.mean(axis=1) - expected).max() < 1e-9

    def test_rk4_convergence_order(self):
        rng = np.random.default_rng(32)
        g = random_connected_graph(rng, n_max=6)
        omega = rng.normal(size=g.n)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        theta0 = rng.uniform(-1, 1, size=g.n)

        def final_state(dt, steps):
            return integrate_vertex(sys_, theta0, dt=dt, steps=steps).states[-1]

        reference = final_state(0.0025, 800)
        err_coarse = np.abs(final_state(0.02, 100) - reference).max()
        err_fine = np.abs(final_state(0.01, 200) - reference).max()
        assert 12.0 < err_coarse / err_fine < 20.0

    def test_blow_up_reports_step(self):
        # The pair runs the dense kernel, the path the edge list; both steps
        # are the ones a per-step finiteness test reports. Both steps are
        # stable; the frequencies carry the pair, which starts next to the
        # largest float, past it at step 1, and the path's ends at step 33.
        sys_ = two_oscillator_system(omega=(1e308, -1e308), sigma=0.1)
        with pytest.raises(BlowUpError, match=r"step 1 \(t = 1\), batch row 0") as info:
            integrate_vertex(sys_, np.array([1e308, -1e308]), dt=1.0, steps=10)
        assert (info.value.step, info.value.row, info.value.time) == (1, 0, 1.0)
        assert np.array_equal(info.value.last_state, [1e308, -1e308])
        path = WeightedGraph(40, [(i, i + 1, 1.0) for i in range(39)])
        sys_ = OscillatorSystem(graph=path, omega=np.linspace(-5.5e306, 5.5e306, 40), sigma=0.1)
        with pytest.raises(BlowUpError) as info:
            integrate_vertex(sys_, np.linspace(-1.0, 1.0, 40), dt=1.0, steps=400)
        assert (info.value.step, info.value.row, info.value.time) == (33, 0, 33.0)
        # The ends overflow, and their neighbours take nan from the coupling.
        assert np.array_equal(info.value.components, [0, 1, 38, 39])
        last = info.value.last_state
        assert last.shape == (40,) and np.isfinite(last).all()
        assert abs(last[-1] - 32 * 5.5e306) <= 1e-12 * last[-1]

    def test_input_validation(self):
        sys_ = two_oscillator_system()
        with pytest.raises(ValueError, match="dt"):
            integrate_vertex(sys_, np.zeros(2), dt=0.0, steps=10)
        for shape in (3, (0, 2), (2, 3), (1, 2, 2)):
            with pytest.raises(ValueError, match="length"):
                integrate_vertex(sys_, np.zeros(shape), dt=0.1, steps=10)
        with pytest.raises(ValueError, match="length"):  # no batches in coefficient form
            integrate_coefficient(sys_, spectral_basis(sys_.graph), np.zeros((2, 2)), 0.1, 10)

    @pytest.mark.parametrize("form", ["vertex", "coefficient"])
    @pytest.mark.parametrize(
        "state, dt, steps, match",
        [
            ((0.1, np.nan), 0.1, 10, "finite"),
            ((0.1, np.inf), 0.1, 10, "finite"),
            ((0.1, -0.1), np.nan, 10, "dt"),
            ((0.1, -0.1), np.inf, 10, "dt"),
            ((0.1, -0.1), -0.1, 10, "dt"),
            ((0.1, -0.1), 0.1, 2.5, "steps"),
            ((0.1, -0.1), 0.1, 0, "steps"),
            # sigma 2 d_max dt = 2.8, just past the limit.
            ((0.1, -0.1), 1.4, 10, r"sigma 1 x 2 d_max 2 x dt 1\.4 is past RK4's stability "
                                   r"limit 2\.785"),
        ],
    )
    def test_run_inputs_rejected_at_the_boundary(self, form, state, dt, steps, match):
        # Each of these used to surface as a BlowUpError at step 1, as a
        # TypeError inside the RK4 loop or, past RK4's stability limit, as
        # a run that stays bounded and is wrong.
        sys_ = two_oscillator_system()
        x0 = np.array(state)
        with pytest.raises(ValueError, match=match):
            if form == "vertex":
                integrate_vertex(sys_, x0, dt, steps)
            else:
                integrate_coefficient(sys_, spectral_basis(sys_.graph), x0, dt, steps)


def graph_at_density(rng, n, density):
    """Random spanning tree plus independent extra edges at `density`."""
    edges = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < density
    edges.update(zip(i[keep].tolist(), j[keep].tolist()))
    return WeightedGraph(n, [(a, b, rng.uniform(0.5, 1.5)) for a, b in sorted(edges)])


def direct_coupling(g, beta, theta):
    """sum_j A_ij sin(theta_i - theta_j + beta_ij) summed edge by edge."""
    incidence = np.zeros((g.m, g.n))
    incidence[np.arange(g.m), g.edge_i] = 1.0
    incidence[np.arange(g.m), g.edge_j] = -1.0
    return (g.edge_w * np.sin(theta[..., g.edge_i] - theta[..., g.edge_j] + beta)) @ incidence


class TestCouplingKernels:
    @pytest.mark.parametrize("density", [0.01, 0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("lagged", [False, True])
    def test_dense_matches_edge_list(self, density, lagged):
        # A batch of three rows on each kernel, with a scale folded in; every
        # row also matches its own batch-of-one call, each kernel writes into
        # the row it is given, and both match the edge-by-edge sum.
        rng = np.random.default_rng(int(density * 100) + lagged)
        g = graph_at_density(rng, 120, density)
        beta = rng.uniform(-1.0, 1.0, g.m) if lagged else np.zeros(g.m)
        edge = dynamics._edge_coupling(g, beta, (3, g.n), 0.37)
        dense = dynamics._dense_coupling(g, beta, (3, g.n), 0.37)
        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, (3, g.n))
            ref = edge(theta, np.empty((3, g.n)))
            scale = np.abs(ref).max()
            assert np.abs(ref - 0.37 * direct_coupling(g, beta, theta)).max() <= 1e-12 * scale
            assert np.abs(dense(theta, np.empty((3, g.n))) - ref).max() <= 1e-12 * scale
            for shape in ((g.n,), (1, g.n)):
                for build in (dynamics._edge_coupling, dynamics._dense_coupling):
                    flow = build(g, beta, shape, 0.37)
                    for b in range(3):
                        out = np.empty(shape)
                        row = flow(theta[b].reshape(shape), out)
                        assert row is out
                        assert np.abs(row - ref[b]).max() <= 1e-12 * scale

    def test_dispatch_follows_density(self):
        sbm, _ = sample_sbm(
            SbmConfig(block_sizes=(150, 150), probabilities=((0.06, 0.01), (0.01, 0.06)))
        )
        nested, _ = nested_aep(
            levels=(3, 2),
            leaf_size=30,
            level_weights=(0.002, 0.02),
            leaf_weight_range=(0.25, 0.35),
            jitter=0.05,
            seed=0,
        )
        for g, kernel in ((sbm, "edge_flow"), (nested, "dense_flow")):
            sys_ = OscillatorSystem(graph=g, omega=np.zeros(g.n), sigma=1.0)
            for shape in ((g.n,), (10, g.n)):
                assert dynamics._vertex_coupling(sys_, shape, 1.0).__name__ == kernel

    @pytest.mark.parametrize("density", [0.02, 0.6])
    def test_trajectories_agree_on_both_kernels(self, density):
        rng = np.random.default_rng(40)
        g = graph_at_density(rng, 60, density)
        omega = rng.normal(0.0, 0.5, g.n)
        beta = rng.uniform(-0.3, 0.3, g.m)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=0.7, beta=beta)
        theta0 = rng.uniform(-np.pi, np.pi, g.n)
        traj = integrate_vertex(sys_, theta0, dt=0.01, steps=500)
        for build in (dynamics._edge_coupling, dynamics._dense_coupling):
            flow = build(g, beta, theta0.shape, 1.0)
            row = np.empty(g.n)
            ref = rk4(lambda th: omega - 0.7 * flow(th, row), theta0, 0.01, 500)
            assert np.abs(traj.states - ref).max() < 1e-10


def fused_vertex_case(name):
    """(system, theta0, dt, kernel) for one graph the fused vertex step is
    pinned on: fig4's nested graph at B = 1 and B = 3, sparse and dense
    n = 60 graphs with and without lag, and the two-oscillator pair."""
    rng = np.random.default_rng(44)
    if name.startswith("fig4"):
        config = experiments.scenario_config("fig4_hierarchical")
        g, _ = nested_aep(levels=tuple(config["levels"]), leaf_size=config["leaf_size"],
                          level_weights=tuple(config["level_weights"]),
                          leaf_weight_range=tuple(config["leaf_weight_range"]),
                          jitter=config["jitter"], seed=0)
        sys_ = OscillatorSystem(graph=g, omega=np.zeros(g.n), sigma=config["sigma"])
        batch = (1,) if name == "fig4_b1" else (3,)
        return sys_, rng.uniform(-1.0, 1.0, batch + (g.n,)), config["dt"]
    if name == "pair":
        sys_ = two_oscillator_system(omega=(0.4, -0.3), sigma=1.2)
        return sys_, np.array([0.3, -0.2]), 0.01
    g = graph_at_density(rng, 60, 0.6 if name.startswith("dense") else 0.02)
    beta = rng.uniform(-0.3, 0.3, g.m) if name.endswith("lagged") else None
    sys_ = OscillatorSystem(graph=g, omega=rng.normal(0.0, 0.5, g.n), sigma=0.7, beta=beta)
    return sys_, rng.uniform(-np.pi, np.pi, g.n), 0.01


class TestFusedVertexStep:
    @pytest.mark.parametrize("name, kernel", [
        ("fig4_b1", "dense_flow"),
        ("fig4_b3", "dense_flow"),
        ("sparse60", "edge_flow"),
        ("sparse60_lagged", "edge_flow"),
        ("dense60_lagged", "dense_flow"),
        ("pair", "dense_flow"),
    ])
    def test_matches_reference(self, name, kernel):
        sys_, theta0, dt = fused_vertex_case(name)
        assert dynamics._vertex_coupling(sys_, theta0.shape, 1.0).__name__ == kernel
        fused = integrate_vertex(sys_, theta0, dt, 300).states
        expected = reference_vertex(sys_, theta0, dt, 300)
        assert fused.shape == expected.shape
        assert np.abs(fused - expected).max() <= 1e-12

    @pytest.mark.parametrize("density", [0.02, 0.6])
    def test_rk4_convergence_order_with_lag(self, density):
        # A wrong stage weight or drift leaves a first- or second-order
        # error, on either kernel. sigma is weak enough that the dense graph
        # has not locked by t = 2, which would leave only roundoff to compare.
        rng = np.random.default_rng(45)
        g = graph_at_density(rng, 60, density)
        beta = rng.uniform(-0.3, 0.3, g.m)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(0.0, 0.5, g.n), sigma=0.1, beta=beta)
        theta0 = rng.uniform(-np.pi, np.pi, g.n)

        def final_state(dt, steps):
            return integrate_vertex(sys_, theta0, dt=dt, steps=steps).states[-1]

        reference = final_state(0.0025, 800)
        err_coarse = np.abs(final_state(0.02, 100) - reference).max()
        err_fine = np.abs(final_state(0.01, 200) - reference).max()
        assert 12.0 < err_coarse / err_fine < 20.0


class TestBatchedVertexIntegration:
    @pytest.mark.parametrize("density", [0.02, 0.6])
    @pytest.mark.parametrize("lagged", [False, True])
    def test_batch_matches_single_runs(self, density, lagged):
        rng = np.random.default_rng(50)
        g = graph_at_density(rng, 60, density)
        beta = rng.uniform(-0.3, 0.3, g.m) if lagged else None
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(0.0, 0.5, g.n), sigma=0.7, beta=beta)
        theta0 = rng.uniform(-np.pi, np.pi, (4, g.n))
        batch = integrate_vertex(sys_, theta0, dt=0.01, steps=300)
        assert batch.states.shape == (301, 4, g.n)
        assert batch.n == g.n
        for b in range(4):
            single = integrate_vertex(sys_, theta0[b], dt=0.01, steps=300)
            assert np.abs(batch.states[:, b] - single.states).max() <= 1e-12

    @pytest.mark.parametrize("density", [0.02, 0.6])
    def test_batch_of_one_matches_1d(self, density):
        rng = np.random.default_rng(51)
        g = graph_at_density(rng, 60, density)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(0.0, 0.5, g.n), sigma=0.7)
        theta0 = rng.uniform(-np.pi, np.pi, g.n)
        one = integrate_vertex(sys_, theta0[None], dt=0.01, steps=300)
        flat = integrate_vertex(sys_, theta0, dt=0.01, steps=300)
        assert one.states.shape == (301, 1, g.n)
        assert flat.states.shape == (301, g.n)
        assert np.abs(one.states[:, 0] - flat.states).max() <= 1e-12

    def test_blow_up_names_row_and_step(self):
        # A stable step: the frequencies carry row 1, which starts next to
        # the largest float, past it at step 1, and row 0 only at step 18.
        sys_ = two_oscillator_system(omega=(1e307, -1e307), sigma=0.1)
        with pytest.raises(BlowUpError, match=r"step 1 \(t = 1\), batch row 1") as info:
            integrate_vertex(sys_, np.array([[0.0, 0.0], [1.79e308, -1.79e308]]), dt=1.0,
                             steps=10)
        assert (info.value.step, info.value.row, info.value.time) == (1, 1, 1.0)
        assert np.array_equal(info.value.last_state, [1.79e308, -1.79e308])
        assert np.array_equal(info.value.components, [0, 1])

    def test_cluster_spread_takes_one_trajectory(self):
        sys_ = two_oscillator_system()
        traj = integrate_vertex(sys_, np.zeros((2, 2)), dt=0.1, steps=10)
        with pytest.raises(ValueError, match="one trajectory"):
            cluster_spread(traj, VertexPartition([0, 0]), -1)


def reference_first_non_finite(rows):
    """Oracle: the first (step, row) holding a non-finite entry, from a full mask."""
    bad = ~np.isfinite(rows).all(axis=2)
    return tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None


class TestCheckFinite:
    """_check_finite finds the first bad (step, row) from min and max, with no
    full non-finite mask; it must report what that mask would."""

    @pytest.mark.parametrize("seed, kinds", [(0, (np.nan,)), (1, (np.inf,)), (2, (-np.inf,)),
                                             (3, (np.nan, np.inf, -np.inf))],
                             ids=["nan", "inf", "-inf", "mixed"])
    def test_matches_full_mask(self, seed, kinds):
        rng = np.random.default_rng(seed)
        for trial in range(300):
            steps, batch, n = (int(v) for v in rng.integers(2, 9, size=3))
            out = rng.normal(size=(steps, batch, n)) * 10.0 ** rng.integers(-300, 300, (steps, batch, n))
            for _ in range(int(rng.integers(1, 5))):
                at = (int(rng.integers(1, steps)), int(rng.integers(batch)), int(rng.integers(n)))
                out[at] = rng.choice(kinds)
            dt = float(rng.uniform(0.001, 1.0))
            step, row = reference_first_non_finite(out)
            with pytest.raises(BlowUpError) as info:
                dynamics._check_finite(out, dt)
            err = info.value
            assert (err.step, err.row, err.time) == (step, row, step * dt), trial
            assert np.array_equal(err.last_state, out[step - 1, row])
            expected = np.flatnonzero(~np.isfinite(out[step, row]))
            assert np.array_equal(err.components, expected)
            assert str(err).endswith(f"batch row {row}, components {expected.tolist()}")

    def test_unbatched_and_finite(self):
        rng = np.random.default_rng(97)
        out = rng.normal(size=(20, 6)) * 1e307
        assert dynamics._check_finite(out, 0.1) is out
        out[7, 4] = -np.inf
        out[9, 1] = np.nan
        with pytest.raises(BlowUpError, match=r"step 7 \(t = 0\.7\), batch row 0, "
                                              r"components \[4\]") as info:
            dynamics._check_finite(out, 0.1)
        assert np.array_equal(info.value.last_state, out[6])


class TestSystemValidation:
    def test_negative_sigma_rejected(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="sigma"):
            OscillatorSystem(graph=g, omega=np.zeros(2), sigma=-0.5)

    def test_zero_sigma_allowed_for_integration_only(self):
        from specsync import spectral_basis, asymptotic_coefficients

        g = WeightedGraph(2, [(0, 1, 1.0)])
        sys_ = OscillatorSystem(graph=g, omega=np.zeros(2), sigma=0.0)
        with pytest.raises(ValueError, match="coupling"):
            asymptotic_coefficients(sys_, spectral_basis(g))

    @pytest.mark.parametrize("name", ["omega", "beta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        values = {"omega": np.zeros(3), "beta": np.zeros(2)}
        values[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OscillatorSystem(graph=g, sigma=1.0, **values)

    def test_beta_length(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="beta"):
            OscillatorSystem(graph=g, omega=np.zeros(2), sigma=1.0, beta=np.zeros(3))


def reference_coefficient(system, basis, alpha0, dt, steps):
    """Oracle: the coefficient right-hand side as a closure, stepped by the
    generic RK4 loop."""
    omega_spec = basis.vertex_vectors.T @ system.omega
    edge_phase = basis.edge_vectors.copy()
    edge_phase[:, 0] = 0.0
    gain = system.sigma * (system.graph.edge_w[:, None] * edge_phase).T
    beta, lagged = system.beta, bool(system.beta.any())

    def rhs(alpha):
        phase = edge_phase @ alpha
        if lagged:
            phase += beta
        return omega_spec - gain @ np.sin(phase)

    return rk4(rhs, np.asarray(alpha0, dtype=float), dt, steps)


def fused_step_systems():
    """(name, system without lag, alpha0, dt): a path (m < n), fig6's system
    (n 6, m 15), a dense planted n = 30 graph and the two-oscillator pair."""
    rng = np.random.default_rng(41)
    path = WeightedGraph(9, [(i, i + 1, rng.uniform(0.5, 1.5)) for i in range(8)])
    fig6 = experiments._fig6_system(experiments.scenario_config("fig6_single_mode"), 0)[3]
    dense, _ = planted_aep(PlantedAepConfig(
        cell_sizes=(10, 10, 10),
        quotient_weights=((0.0, 0.7, 0.3), (0.7, 0.0, 0.5), (0.3, 0.5, 0.0)),
        intra_density=0.9, seed=3))
    pair = two_oscillator_system(omega=(0.4, -0.3), sigma=1.2)
    systems = [
        ("path", OscillatorSystem(graph=path, omega=rng.normal(size=9), sigma=1.0), 0.01),
        ("fig6", fig6, 0.002),
        ("planted_n30", OscillatorSystem(graph=dense, omega=rng.normal(0, 0.3, 30), sigma=1.0),
         0.01),
        ("pair", pair, 0.01),
    ]
    return [(name, sys_, rng.uniform(-0.5, 0.5, sys_.graph.n), dt) for name, sys_, dt in systems]


class TestCoefficientIntegration:
    @pytest.mark.parametrize("lagged", [False, True])
    def test_fused_step_matches_reference(self, lagged):
        rng = np.random.default_rng(42)
        seen = []
        for name, sys_, alpha0, dt in fused_step_systems():
            if lagged:
                sys_ = OscillatorSystem(graph=sys_.graph, omega=sys_.omega, sigma=sys_.sigma,
                                        beta=rng.uniform(-0.3, 0.3, sys_.graph.m))
            basis = spectral_basis(sys_.graph)
            fused = integrate_coefficient(sys_, basis, alpha0, dt, 200).coeffs
            expected = reference_coefficient(sys_, basis, alpha0, dt, 200)
            assert np.abs(fused - expected).max() <= 1e-12, name
            seen.append((sys_.graph.n, sys_.graph.m))
        assert seen[0][1] < seen[0][0] and seen[1] == (6, 15) and seen[2][1] > 400

    @pytest.mark.parametrize("lagged", [False, True])
    def test_rk4_convergence_order(self, lagged):
        # A wrong weight in a folded matrix leaves a first- or second-order
        # error, which shows here even when it stays under 1e-6.
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, n_max=6, n_min=4)
        beta = rng.uniform(-0.3, 0.3, size=g.m) if lagged else None
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=1.0, beta=beta)
        basis = spectral_basis(g)
        alpha0 = rng.uniform(-1, 1, size=g.n)

        def final_state(dt, steps):
            return integrate_coefficient(sys_, basis, alpha0, dt=dt, steps=steps).coeffs[-1]

        reference = final_state(0.0025, 800)
        err_coarse = np.abs(final_state(0.02, 100) - reference).max()
        err_fine = np.abs(final_state(0.01, 200) - reference).max()
        assert 12.0 < err_coarse / err_fine < 20.0

    def test_uniform_frequency_fixed_point(self):
        rng = np.random.default_rng(33)
        g = random_connected_graph(rng, n_max=8)
        delta = 0.4
        sys_ = OscillatorSystem(graph=g, omega=np.full(g.n, delta), sigma=1.0)
        basis = spectral_basis(g)
        alpha0 = np.zeros(g.n)
        alpha0[0] = 0.3
        ctraj = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=500)
        # Modes r >= 1 stay at the fixed point; mode 0 grows linearly.
        assert np.abs(ctraj.coeffs[:, 1:]).max() < 1e-10
        expected = 0.3 + np.sqrt(g.n) * delta * ctraj.times
        assert np.abs(ctraj.coeffs[:, 0] - expected).max() < 1e-10

    @pytest.mark.parametrize("lagged", [False, True])
    def test_mode_zero_is_uncoupled(self, lagged):
        # Mode 0 neither drives the edge phases nor feels the coupling: the
        # other modes do not see its intercept, and it grows at sqrt(n) mean(omega).
        rng = np.random.default_rng(37)
        g = random_connected_graph(rng, n_max=10, n_min=5)
        beta = rng.uniform(-0.3, 0.3, size=g.m) if lagged else None
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=1.3, beta=beta)
        basis = spectral_basis(g)
        alpha0 = rng.uniform(-0.5, 0.5, size=g.n)
        alpha0[0] = 0.0
        low = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=400)
        alpha0[0] = 1e8
        high = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=400)
        assert np.array_equal(low.coeffs[:, 1:], high.coeffs[:, 1:])
        drift = np.sqrt(g.n) * sys_.omega.mean() * high.times
        assert np.abs(low.coeffs[:, 0] - drift).max() < 1e-10
        # RK4 sums each step's increment into 1e8, one roundoff (7.5e-9) at a time.
        assert np.abs(high.coeffs[:, 0] - (1e8 + drift)).max() <= 1e-13 * 1e8

    def test_uncoupled_is_exact_linear_growth(self):
        rng = np.random.default_rng(38)
        g = random_connected_graph(rng, n_max=10, n_min=5)
        beta = rng.uniform(-0.3, 0.3, size=g.m)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=0.0, beta=beta)
        basis = spectral_basis(g)
        alpha0 = rng.uniform(-0.5, 0.5, size=g.n)
        ctraj = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=300)
        omega_spec = basis.vertex_vectors.T @ sys_.omega
        expected = alpha0 + ctraj.times[:, None] * omega_spec
        assert np.abs(ctraj.coeffs - expected).max() < 1e-12

    def test_blow_up_reports_step(self):
        sys_ = two_oscillator_system(omega=(1e308, -1e308), sigma=0.1)
        basis = spectral_basis(sys_.graph)
        alpha0 = basis.vertex_vectors.T @ np.array([0.3, -0.3])
        with pytest.raises(BlowUpError, match=r"step 1 \(t = 1\), batch row 0") as info:
            integrate_coefficient(sys_, basis, alpha0, dt=1.0, steps=10)
        assert (info.value.step, info.value.row, info.value.time) == (1, 0, 1.0)
        assert np.array_equal(info.value.last_state, alpha0)

    def test_matches_vertex_integration(self):
        rng = np.random.default_rng(34)
        for trial in range(5):
            g = random_connected_graph(rng, n_max=15, n_min=6)
            omega = rng.normal(0.0, 0.3, size=g.n)
            beta = rng.uniform(-0.2, 0.2, size=g.m) if trial % 2 else None
            sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0, beta=beta)
            basis = spectral_basis(g)
            theta0 = rng.uniform(-0.5, 0.5, size=g.n)
            traj = integrate_vertex(sys_, theta0, dt=0.01, steps=2000)
            ctraj = integrate_coefficient(
                sys_, basis, basis.vertex_vectors.T @ theta0, dt=0.01, steps=2000
            )
            rebuilt = reconstruct_trajectory(ctraj, basis)
            assert np.abs(rebuilt.states - traj.states).max() < 1e-6

    def test_matches_vertex_on_planted_aep_long_horizon(self):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(5, 5, 5),
                quotient_weights=((0.0, 0.7, 0.3), (0.7, 0.0, 0.5), (0.3, 0.5, 0.0)),
                intra_density=0.9,
                seed=12,
            )
        )
        omega = np.array([0.3, -0.1, -0.2])[p.assignment]
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        basis = spectral_basis(g)
        rng = np.random.default_rng(13)
        theta0 = rng.uniform(-0.5, 0.5, g.n)
        traj = integrate_vertex(sys_, theta0, 0.01, 5000)
        ctraj = integrate_coefficient(
            sys_, basis, basis.vertex_vectors.T @ theta0, 0.01, 5000
        )
        assert np.abs(reconstruct_trajectory(ctraj, basis).states - traj.states).max() < 1e-6

    def test_nonstructural_subspace_invariant(self):
        # Cell-constant frequencies on an exact AEP never excite
        # nonstructural modes started at zero.
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(4, 4, 4),
                quotient_weights=((0.0, 1.0, 0.6), (1.0, 0.0, 0.9), (0.6, 0.9, 0.0)),
                intra_density=0.8,
                seed=6,
            )
        )
        basis = spectral_basis(g)
        struct = structural_indices(basis, p)
        omega = np.array([0.3, -0.1, 0.2])[p.assignment]
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        alpha0 = np.zeros(g.n)
        for r in struct[1:]:
            alpha0[r] = 0.2
        ctraj = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=2000)
        nonstruct = [r for r in range(1, g.n) if r not in struct]
        assert np.abs(ctraj.coeffs[:, nonstruct]).max() < 1e-8

    def test_orientation_independence(self):
        # Flipping an edge orientation negates its incidence column and its
        # phase lag; the integrated coefficients are unchanged.
        rng = np.random.default_rng(35)
        g = random_connected_graph(rng, n_max=8)
        omega = rng.normal(size=g.n)
        beta = rng.uniform(-0.3, 0.3, size=g.m)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=0.7, beta=beta)
        basis = spectral_basis(g)
        alpha0 = rng.uniform(-0.3, 0.3, size=g.n)
        ref = integrate_coefficient(sys_, basis, alpha0, dt=0.01, steps=300)

        flip = rng.integers(0, g.m)
        edge_vectors = basis.edge_vectors.copy()
        edge_vectors[flip] *= -1.0
        flipped_basis = SpectralBasis(
            eigenvalues=basis.eigenvalues,
            vertex_vectors=basis.vertex_vectors,
            edge_vectors=edge_vectors,
        )
        beta2 = beta.copy()
        beta2[flip] *= -1.0
        sys2 = OscillatorSystem(graph=g, omega=omega, sigma=0.7, beta=beta2)
        out = integrate_coefficient(sys2, flipped_basis, alpha0, dt=0.01, steps=300)
        assert np.abs(out.coeffs - ref.coeffs).max() < 1e-10

    def test_round_trip_decomposition(self):
        # Projecting in place with V, then with V^T, returns the phases of a
        # single run and of every row of a (steps + 1, B, n) batch.
        rng = np.random.default_rng(36)
        g = random_connected_graph(rng, n_max=8)
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(size=g.n), sigma=1.0)
        v = spectral_basis(g).vertex_vectors
        for theta0 in (rng.uniform(-0.5, 0.5, size=g.n), rng.uniform(-0.5, 0.5, size=(3, g.n))):
            states = integrate_vertex(sys_, theta0, dt=0.02, steps=600).states
            back = states.copy()
            dynamics._project_in_place(back, v)
            assert np.abs(back - states @ v).max() < 1e-12
            dynamics._project_in_place(back, v.T)
            assert np.abs(back - states).max() < 1e-10


class TestProjectInPlace:
    """dynamics._project_in_place: states @ V written back into states."""

    @pytest.mark.parametrize("shape", [(1, 7), (2, 7), (255, 7), (513, 7), (1025, 7),
                                       (601, 3, 7), (6001, 7)])
    def test_overwrites_states_with_their_coefficients(self, shape):
        rng = np.random.default_rng(sum(shape))
        vectors = np.linalg.qr(rng.standard_normal((7, 7)))[0]
        states = rng.uniform(-3.0, 3.0, shape)
        want = states @ vectors
        dynamics._project_in_place(states, vectors)
        assert np.abs(states - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("rows", [2, 255, 256, 511, 512, 513, 1023, 1024, 1025, 6001, 18003])
    def test_blocks_hold_256_to_512_rows_and_never_one(self, monkeypatch, rows):
        # numpy hands a one-row product to gemv rather than gemm.
        blocks = []
        split = np.array_split
        states = np.ones((rows, 4))

        def recorded(flat, sections):
            parts = split(flat, sections)
            assert all(np.shares_memory(part, states) for part in parts)
            blocks.extend(len(part) for part in parts)
            return parts

        monkeypatch.setattr(np, "array_split", recorded)
        dynamics._project_in_place(states, 2.0 * np.eye(4))
        assert np.all(states == 2.0)
        assert sum(blocks) == rows
        assert min(blocks) >= 2
        if rows <= 512:
            assert blocks == [rows]
        else:
            assert 256 <= min(blocks) <= max(blocks) <= 512

    def test_writes_through_views_or_refuses(self):
        rng = np.random.default_rng(5)
        vectors = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        batch = rng.standard_normal((10, 3, 4))
        want = batch[:, 1] @ vectors
        dynamics._project_in_place(batch[:, 1], vectors)  # strided, but 2-D
        assert np.abs(batch[:, 1] - want).max() <= 1e-14 * np.abs(want).max()
        # Flattening a transposed batch would copy it, and the coefficients
        # would never reach the caller's array.
        with pytest.raises(ValueError):
            dynamics._project_in_place(batch.transpose(1, 0, 2), vectors)


class TestRezero:
    def test_full_turn_collapses(self):
        traj = Trajectory_like(np.array([[0.0, 2.0 * np.pi]]))
        out = rezero(traj, 0)
        assert np.abs(out.states).max() < 1e-12

    def test_centering_removes_windings(self):
        base = 0.1
        states = np.array([[base, base + 2.0 * np.pi, base - 2.0 * np.pi]])
        out = rezero(Trajectory_like(states), 0)
        assert np.abs(out.states).max() < 1e-12

    def test_winding_cell_shows_spurious_modes_until_rezeroed(self):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(5, 5),
                quotient_weights=((0.0, 1.2), (1.2, 0.0)),
                intra_density=0.8,
                seed=7,
            )
        )
        basis = spectral_basis(g)
        struct = structural_indices(basis, p)
        nonstruct = [r for r in range(1, g.n) if r not in struct]
        # Cluster-synchronized state, but one oscillator of cell 1 wound a
        # full turn ahead: equivalent mod 2 pi, distinct in the eigenbasis.
        theta = np.where(p.assignment == 0, 0.4, -0.4)
        theta[5] += 2.0 * np.pi
        traj = Trajectory_like(theta[None, :])
        before = basis.vertex_vectors.T @ traj.states[0]
        assert np.abs(before[nonstruct]).max() > 0.1
        after = rezero(traj, 0)
        alpha = basis.vertex_vectors.T @ after.states[0]
        assert np.abs(alpha[nonstruct]).max() < 1e-10

    def test_suffix_grid(self):
        states = np.zeros((5, 2))
        out = rezero(Trajectory_like(states, dt=0.5), 2)
        assert out.t0 == 1.0
        assert out.states.shape == (3, 2)

    def test_matches_per_sample_loop(self):
        # Reference: each sample shifted by its own circular mean, one at a time.
        from specsync.dynamics import _wrap_pi

        rng = np.random.default_rng(41)
        for n in (1, 3, 10, 101):
            states = rng.uniform(-40.0, 40.0, size=(60, n))
            expected = np.array([
                _wrap_pi(row - np.arctan2(np.sin(row).mean(), np.cos(row).mean()))
                for row in states[7:]
            ])
            assert np.array_equal(rezero(Trajectory_like(states), 7).states, expected)
            # A batch (steps + 1, B, n) is rezeroed row by row.
            batch = rng.uniform(-40.0, 40.0, size=(60, 3, n))
            out = rezero(Trajectory_like(batch), 7).states
            for b in range(3):
                assert np.array_equal(out[:, b], rezero(Trajectory_like(batch[:, b]), 7).states)


class TestClusterSpread:
    def test_equal_phases_spread_zero(self):
        p = VertexPartition([0, 0, 1, 1])
        traj = Trajectory_like(np.array([[0.3, 0.3, -1.0, -1.0]]))
        assert np.abs(cluster_spread(traj, p, 0)).max() == 0.0

    def test_wraparound_distance(self):
        p = VertexPartition([0, 0])
        traj = Trajectory_like(np.array([[np.pi - 0.05, -np.pi + 0.05]]))
        spread = cluster_spread(traj, p, 0)
        assert abs(spread[0] - 0.1) < 1e-12

    def test_synchronized_aep_run_has_tiny_spread(self):
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=(5, 5),
                quotient_weights=((0.0, 1.5), (1.5, 0.0)),
                intra_density=0.9,
                intra_weight_range=(1.0, 1.5),
                seed=8,
            )
        )
        omega = np.where(p.assignment == 0, 0.25, -0.25)
        sys_ = OscillatorSystem(graph=g, omega=omega, sigma=1.0)
        rng = np.random.default_rng(9)
        theta0 = rng.uniform(-0.4, 0.4, size=g.n)
        traj = integrate_vertex(sys_, theta0, dt=0.01, steps=3000)
        assert cluster_spread(traj, p, -1).max() < 1e-6


def Trajectory_like(states, dt=0.1, t0=0.0):
    from specsync import Trajectory

    return Trajectory(t0=t0, dt=dt, states=np.asarray(states, dtype=float))
