import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specsync import (
    OscillatorSystem,
    PlantedAepConfig,
    SbmConfig,
    WeightedGraph,
    approximation_bound,
    available_scenarios,
    discriminant_report,
    equitable_error,
    equitable_error_matrix,
    experiments,
    fileio,
    integrate_coefficient,
    integrate_vertex,
    planted_aep,
    reconstruct_trajectory,
    run_scenario,
    sample_sbm,
    scenario_config,
    segment_regimes,
    spectral_basis,
)
from specsync.cli import main
from specsync.experiments import Assertion

from conftest import random_connected_graph

ROOT = Path(__file__).resolve().parents[1]

SMALL_BASIS_EQ = {"systems": 3, "n_min": 5, "n_max": 8, "t_final": 5.0, "dt": 0.01}
SMALL_SBM = {"sizes": [60, 240], "seeds": 3, "required": 2}


def assert_holds_exactly_artifacts(res, out: Path):
    """out holds result.json and the listed artifacts, and nothing else."""
    assert res.artifacts
    assert all(Path(a).parent == out for a in res.artifacts)
    names = [Path(a).name for a in res.artifacts]
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["result.json"])


class TestRegistry:
    def test_lists_all_nine(self):
        assert available_scenarios() == (
            "basis_equivalence",
            "fig2_cluster_sync",
            "fig3_linearization_error",
            "fig4_hierarchical",
            "fig5_qep",
            "fig6_single_mode",
            "phase_lag_ex1",
            "phase_lag_ex2",
            "sbm_limit",
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("fig7_imaginary")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="config keys"):
            run_scenario("basis_equivalence", config={"sytems": 1})

    @pytest.fixture
    def sbm_must_not_run(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scenario ran")

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", refuse)

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "0", None])
    def test_seed_must_be_nonnegative_integer(self, sbm_must_not_run, seed):
        with pytest.raises(ValueError, match="seed"):
            run_scenario("sbm_limit", seed=seed)

    @pytest.mark.parametrize(
        "key, value",
        [("seeds", "a"), ("seeds", 2.5), ("seeds", True), ("seeds", None),
         ("identity_tol", False), ("sizes", 100), ("sizes", {"a": 1}),
         ("sizes", ["a"]), ("sizes", [100, 2.5]), ("sizes", [[100]]), ("sizes", [True]),
         ("probabilities", [0.5, 0.1]), ("probabilities", [[0.5, "x"], [0.1, 0.2]])],
    )
    def test_config_value_must_keep_its_json_type(self, sbm_must_not_run, key, value):
        with pytest.raises(ValueError, match=key):
            run_scenario("sbm_limit", config={key: value})

    @pytest.mark.parametrize("config", [["seeds"], [], "seeds", 3])
    def test_config_must_be_an_object(self, sbm_must_not_run, config):
        with pytest.raises(ValueError, match="JSON object"):
            run_scenario("sbm_limit", config=config)

    def test_out_dir_made_before_the_scenario_runs(self, sbm_must_not_run, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        with pytest.raises(OSError):
            run_scenario("sbm_limit", out_dir=blocker)

    def test_integer_elements_accepted_for_numbers(self, monkeypatch):
        seen = {}

        def record(config, seed):
            seen.update(config)
            return [], {}, {}

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", record)
        assert run_scenario("sbm_limit", config={"probabilities": [[1, 0.5], [0.5, 1]]}).passed
        assert seen["probabilities"] == [[1, 0.5], [0.5, 1]]


    def test_scenario_config_is_what_the_scenario_runs_with(self, monkeypatch):
        seen = {}

        def record(config, seed):
            seen.update(config)
            return [], {}, {}

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", record)
        overrides = {"seeds": 1}
        run_scenario("sbm_limit", config=overrides)
        assert scenario_config("sbm_limit", overrides) == seen
        assert seen["seeds"] == 1 and overrides == {"seeds": 1}
        with pytest.raises(ValueError, match="config keys for sbm_limit"):
            scenario_config("sbm_limit", {"dt": 0.01})


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        a = run_scenario("basis_equivalence", config=SMALL_BASIS_EQ, seed=3)
        b = run_scenario("basis_equivalence", config=SMALL_BASIS_EQ, seed=3)
        assert a.metrics == b.metrics
        assert a.passed and b.passed

    def test_result_json_written(self, tmp_path):
        res = run_scenario("basis_equivalence", config=SMALL_BASIS_EQ, seed=1, out_dir=tmp_path)
        payload = json.loads((tmp_path / "basis_equivalence" / "result.json").read_text())
        assert payload["passed"] == res.passed
        assert payload["seed"] == 1
        assert (tmp_path / "basis_equivalence" / "discrepancies.csv").exists()
        assert_holds_exactly_artifacts(res, tmp_path / "basis_equivalence")

    @pytest.mark.parametrize(
        "name, config",
        [("basis_equivalence", SMALL_BASIS_EQ), ("fig2_cluster_sync", {"steps": 200}),
         ("fig6_single_mode", {"t_final": 20.0})],
    )
    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch, name, config):
        def refuse(*args, **kwargs):
            raise AssertionError("a file writer ran without out_dir")

        for writer in ("write_table", "write_phase_csv", "write_coefficient_csv"):
            monkeypatch.setattr(fileio, writer, refuse)
        monkeypatch.chdir(tmp_path)
        res = run_scenario(name, config=config, seed=0)
        assert res.artifacts == ()
        assert list(tmp_path.iterdir()) == []


class TestResultJson:
    def test_numpy_bool_flags_render_as_json_booleans(self, tmp_path, monkeypatch):
        def numpy_flags(config, seed):
            return [Assertion("yes", np.float64(1.0) > 0, ""),
                    Assertion("no", np.bool_(False), "")], {}, {}

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", numpy_flags)
        res = run_scenario("sbm_limit", out_dir=tmp_path)
        assert [type(a.passed) for a in res.assertions] == [bool, bool]
        text = (tmp_path / "sbm_limit" / "result.json").read_text()
        assert [a["passed"] for a in json.loads(text)["assertions"]] == [True, False]
        assert json.loads(text)["passed"] is False

    def test_rendering_failure_writes_no_file(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("a file was written")

        def unrenderable(config, seed):
            return [], {"value": object()}, {"table.csv": refuse}

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", unrenderable)
        with pytest.raises(TypeError):
            run_scenario("sbm_limit", out_dir=tmp_path)
        assert list((tmp_path / "sbm_limit").iterdir()) == []

    def test_result_records_dump_to_json(self):
        g, p = planted_aep(PlantedAepConfig(cell_sizes=(3, 4),
                                            quotient_weights=((0.0, 2.0), (1.5, 0.0)), seed=1))
        system = OscillatorSystem(graph=g, omega=np.linspace(-0.2, 0.2, g.n), sigma=1.0)
        basis = spectral_basis(g)
        ctraj = integrate_coefficient(system, basis, np.linspace(0.5, 1.0, g.n), 0.01, 500)
        regimes = segment_regimes(ctraj, 0.1, min_dwell=0.1)
        assert any(r.active for r in regimes)
        mode = equitable_error(g, p).per_mode[1]
        records = [*regimes, *discriminant_report(system, basis),
                   approximation_bound(g, p, basis, (mode.eigenvalue, mode.vector), 0.5),
                   run_scenario("phase_lag_ex2")]
        for record in records:
            json.dumps(dataclasses.asdict(record))


class TestSmallRuns:
    def test_small_sbm_passes(self):
        res = run_scenario("sbm_limit", config=SMALL_SBM, seed=2)
        assert res.passed, [a.detail for a in res.assertions if not a.passed]

    def test_fig2_artifacts(self, tmp_path):
        res = run_scenario(
            "fig2_cluster_sync", config={"steps": 2000}, seed=0, out_dir=tmp_path
        )
        assert res.passed, [a.detail for a in res.assertions if not a.passed]
        out = tmp_path / "fig2_cluster_sync"
        assert res.artifacts == (str(out / "coefficients.csv"), str(out / "phases.csv"))
        assert_holds_exactly_artifacts(res, out)

    @pytest.mark.parametrize(
        "name, config",
        [("fig6_single_mode", {"t_final": 30.0}),
         ("fig4_hierarchical", {"seeds": 1, "required_pass": 1})],
    )
    def test_result_json_round_trips(self, tmp_path, name, config):
        res = run_scenario(name, config=config, seed=0, out_dir=tmp_path)
        payload = json.loads((tmp_path / name / "result.json").read_text())
        assert res.passed, [a.detail for a in res.assertions if not a.passed]
        assert payload["passed"] is True
        assert [a["passed"] for a in payload["assertions"]] == [True] * len(res.assertions)
        assert payload["metrics"] == json.loads(json.dumps(res.metrics))
        assert payload["artifacts"] == list(res.artifacts)
        assert_holds_exactly_artifacts(res, tmp_path / name)

    def test_assertions_reported_not_raised(self):
        # An impossible tolerance turns into a reported failure.
        res = run_scenario("basis_equivalence", config=dict(SMALL_BASIS_EQ, tol=1e-300), seed=0)
        assert not res.passed
        assert any(not a.passed for a in res.assertions)


# Runs fig4 with few steps, recording its batch before the projection and
# each seed's coefficients as segment_regimes receives them, and requires them
# equal to decompose_trajectory of that seed's states.
FIG4_PROJECTION_CHECK = """
import sys
import numpy as np
from specsync import Trajectory, decompose_trajectory, experiments, run_scenario

batches, seen = [], []
integrate, segment = experiments.integrate_vertex, experiments.segment_regimes

def recording_integrate(*args):
    batch = integrate(*args)
    batches.append(batch.states.copy())
    return batch

def recording_segment(ctraj, *args, **kwargs):
    seen.append((ctraj.coeffs.copy(), ctraj.basis))
    return segment(ctraj, *args, **kwargs)

experiments.integrate_vertex = recording_integrate
experiments.segment_regimes = recording_segment
seeds = int(sys.argv[1])
run_scenario("fig4_hierarchical", {"seeds": seeds, "required_pass": 1, "steps": 600})
(states,) = batches
assert states.shape == (601, seeds, 180) and len(seen) == seeds
for s, (coeffs, basis) in enumerate(seen):
    traj = Trajectory(t0=0.0, dt=0.01, states=states[:, s])
    assert np.array_equal(coeffs, decompose_trajectory(traj, basis).coeffs), s
"""


class TestFig4InPlace:
    """fig4 projects its batch onto the eigenbasis in place."""

    @pytest.mark.parametrize("seeds", [1, 3])
    def test_projection_matches_decompose_trajectory(self, seeds):
        # Bit equality is checked under one BLAS thread, the benchmark's
        # setting: threaded OpenBLAS splits a product's rows by its shape.
        # 601 * seeds rows take two blocks at one seed and four at three.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 "1"))
        proc = subprocess.run([sys.executable, "-c", FIG4_PROJECTION_CHECK, str(seeds)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_peak_memory_is_one_trajectory(self):
        # One seed's (6001, 180) trajectory is 8.6 MB; a second array of
        # its size, as a copy of coefficients or their absolute values, would
        # take the peak past 16 MB.
        tracemalloc.start()
        try:
            res = run_scenario("fig4_hierarchical", config={"seeds": 1, "required_pass": 1})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.passed
        assert peak < 16e6


class TestNoVacuousPasses:
    """A headline check fails, and its detail says 0 checked, when the
    selection it checks is empty."""

    @staticmethod
    def verdict(res, name):
        return next(a for a in res.assertions if a.name == name)

    @staticmethod
    def shift_limits(monkeypatch, alpha_inf):
        real = experiments.asymptotic_coefficients

        def shifted(*args):
            pred = real(*args)
            return dataclasses.replace(pred, alpha_inf=alpha_inf(pred.alpha_inf))

        monkeypatch.setattr(experiments, "asymptotic_coefficients", shifted)

    def test_fig4_rate_pass_needs_a_finite_fitted_rate(self, monkeypatch):
        monkeypatch.setattr(experiments, "fit_decay_rates",
                            lambda ctraj, *args, **kwargs: np.full(ctraj.n, np.nan))
        res = run_scenario("fig4_hierarchical", {"seeds": 2, "required_pass": 1, "steps": 600})
        assert res.metrics["rate_pass"] == 0
        check = self.verdict(res, "decay_rates_match")
        assert not check.passed
        assert "(0 finite fitted rates checked)" in check.detail

    def test_fig4_counts_the_rates_it_checks(self):
        res = run_scenario("fig4_hierarchical", {"seeds": 1, "required_pass": 1})
        check = self.verdict(res, "decay_rates_match")
        assert check.passed
        assert "(179 finite fitted rates checked)" in check.detail

    def test_fig2_small_limits_need_a_small_mode(self, monkeypatch):
        self.shift_limits(monkeypatch, lambda alpha: alpha + 1.0)
        res = run_scenario("fig2_cluster_sync", {"steps": 200})
        check = self.verdict(res, "small_mode_limits_match")
        assert not check.passed
        assert check.detail.startswith("0 modes below 0.1 checked")

    def test_phase_lag_ex1_equilibria_need_a_checked_mode(self, monkeypatch):
        self.shift_limits(monkeypatch, lambda alpha: 0.0 * alpha)
        res = run_scenario("phase_lag_ex1", {"steps": 200})
        check = self.verdict(res, "equilibria_match_prediction")
        assert not check.passed
        assert check.detail.startswith("0 modes checked")

    @staticmethod
    def reject_constant(name):
        raise ValueError(f"{name} is not JSON")

    @pytest.mark.parametrize("name, config, check, metric", [
        ("phase_lag_ex2", {"omega_contrast": 0.0, "beta_scale": 0.0},
         "simulated_equilibria_match", "max_rel_err"),
        # One cell: no nonzero structural mode to compare.
        ("phase_lag_ex1", {"cell_sizes": [15], "quotient_weights": [[0.0]]},
         "structural_limits_lag_free", None),
        # A margin no sample meets: an empty tracking window.
        ("fig6_single_mode", {"margin_frac": 1e-6, "t_final": 30.0},
         "tangent_tracks_simulation", "tracking_rel_err"),
    ], ids=["phase_lag_ex2", "phase_lag_ex1", "fig6_single_mode"])
    def test_empty_selection_is_a_clean_failure(self, tmp_path, capsys, name, config, check,
                                                metric):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["experiment", name, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert f"{name}: FAIL" in capsys.readouterr().out
        text = (out / name / "result.json").read_text()
        payload = json.loads(text, parse_constant=self.reject_constant)
        verdict = next(a for a in payload["assertions"] if a["name"] == check)
        assert verdict["passed"] is False
        assert "none (0 checked)" in verdict["detail"]
        if metric is not None:
            assert payload["metrics"][metric] is None

    def test_fig3_constant_errors_have_no_rank_correlation(self, tmp_path, capsys):
        # No drive: every predicted limit and every error is 0, and ties in
        # index order used to rank them as a perfect correlation.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"omega_scale": 0.0, "seeds": 2, "steps": 200}))
        out = tmp_path / "runs"
        name = "fig3_linearization_error"
        assert main(["experiment", name, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert f"{name}: FAIL" in capsys.readouterr().out
        text = (out / name / "result.json").read_text()
        payload = json.loads(text, parse_constant=self.reject_constant)
        verdict = payload["assertions"][0]
        assert verdict["name"] == "error_grows_with_magnitude" and verdict["passed"] is False
        assert "undefined" in verdict["detail"]
        assert payload["metrics"]["pooled_spearman"] is None
        assert payload["metrics"]["per_seed_spearman"] == [None, None]

    @pytest.mark.parametrize("name, config, message", [
        ("basis_equivalence", {"systems": 0},
         "config key 'systems' of basis_equivalence must count at least"),
        ("fig3_linearization_error", {"seeds": 0},
         "config key 'seeds' of fig3_linearization_error must count at least"),
        ("fig4_hierarchical", {"seeds": 0},
         "config key 'seeds' of fig4_hierarchical must count at least"),
        ("fig5_qep", {"seeds": 0}, "config key 'seeds' of fig5_qep must count at least"),
        ("fig5_qep", {"etas": []}, "config key 'etas' of fig5_qep must count at least"),
        # One eta: both monotone checks would pass over a single point.
        ("fig5_qep", {"etas": [0.1]}, "config key 'etas' of fig5_qep must count at least"),
        ("sbm_limit", {"sizes": []}, "config key 'sizes' of sbm_limit must count at least"),
        # No passing seed required: 0/2 seeds would pass the headline check.
        ("fig4_hierarchical", {"required_pass": 0},
         "config key 'required_pass' of fig4_hierarchical must count at least"),
        ("sbm_limit", {"required": 0}, "config key 'required' of sbm_limit must count at least"),
        # One vertex integrates no coupling, so both forms would agree vacuously.
        ("basis_equivalence", {"n_min": 1, "n_max": 1, "systems": 1},
         "config keys 'n_min' and 'n_max' of basis_equivalence must satisfy 2 <= n_min <= n_max"),
        ("basis_equivalence", {"n_max": 5},
         "config keys 'n_min' and 'n_max' of basis_equivalence must satisfy 2 <= n_min <= n_max"),
        # A size of 1 leaves one of the two SBM blocks empty.
        ("sbm_limit", {"sizes": [1, 100]}, "config key 'sizes' of sbm_limit must list sizes >= 2"),
    ], ids=["basis_equivalence", "fig3", "fig4", "fig5_seeds", "fig5_no_eta", "fig5_one_eta",
            "sbm_limit", "fig4_required", "sbm_limit_required", "basis_equivalence_one_vertex",
            "basis_equivalence_empty_range", "sbm_limit_size_one"])
    def test_zero_counts_rejected_before_the_run(self, monkeypatch, tmp_path, capsys, name,
                                                 config, message):
        def refuse(*args):
            raise AssertionError("the scenario ran")

        monkeypatch.setitem(experiments._SCENARIOS, name, refuse)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["experiment", name, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_spearman_ranks_ties_by_their_average(self):
        assert experiments._spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
            np.sqrt(3) / 2, abs=1e-15)
        assert experiments._spearman([3.0, 1.0, 2.0], [0.3, 0.1, 0.2]) == pytest.approx(1.0)
        assert experiments._spearman([0.5, 0.5], [1.0, 2.0]) is None


class TestNegativeControls:
    """A headline check fails on an input that breaks the claim it checks,
    while the scenario's other checks still pass."""

    @staticmethod
    def verdicts(res):
        return {a.name: a.passed for a in res.assertions}

    def test_sbm_limit_fails_when_n_shrinks(self):
        res = run_scenario("sbm_limit", {"sizes": [800, 100]}, seed=0)
        assert self.verdicts(res) == {
            "statistic_decreases_with_n": False, "noise_form_identity": True
        }
        assert res.metrics["wins"] < scenario_config("sbm_limit")["required"]

    def test_fig2_fails_when_structural_modes_are_not_lowest(self):
        res = run_scenario("fig2_cluster_sync", {"intra_density": 0.3}, seed=0)
        verdicts = self.verdicts(res)
        assert verdicts.pop("structural_modes_are_lowest") is False
        assert all(verdicts.values()), verdicts

    @pytest.mark.parametrize("name, baseline, control, failing", [
        # Noise growing along the sweep: the QEP score and spreads grow too.
        ("fig5_qep", {"etas": [0.2, 0.01], "seeds": 2}, {"etas": [0.01, 0.2], "seeds": 2},
         {"qep_score_monotone", "cluster_spread_monotone"}),
        # A drive the slip mode can lock to: no negative discriminant, no slips.
        ("fig6_single_mode", {"t_final": 30.0}, {"drive_ratio": 1.0, "t_final": 30.0},
         {"discriminant_pattern", "persistent_oscillation", "tangent_tracks_simulation"}),
        # Lags too large for the linearized equilibria.
        ("phase_lag_ex2", {}, {"beta_scale": 0.5}, {"simulated_equilibria_match"}),
        # A drive beyond locking: no equilibrium to match, and the
        # coefficients drift with sigma and with the lag.
        ("phase_lag_ex1", {}, {"target_coeffs": [3.0, 2.0]},
         {"nonstructural_sigma_invariant", "equilibria_match_prediction",
          "structural_limits_lag_free"}),
    ], ids=["fig5_qep", "fig6_single_mode", "phase_lag_ex2", "phase_lag_ex1"])
    def test_control_fails_only_its_checks(self, name, baseline, control, failing):
        assert run_scenario(name, baseline, seed=0).passed
        verdicts = self.verdicts(run_scenario(name, control, seed=0))
        assert {check for check, passed in verdicts.items() if not passed} == failing

    def test_fig3_stiff_coupling_is_rejected_by_the_step_guard(self):
        # sigma 100 puts sigma 2 d_max dt at 14.6, past RK4's 2.785. It was
        # fig3's control, but its errors followed the unstable step alone:
        # at a stable step the ranks do not depend on sigma.
        with pytest.raises(ValueError, match="stability limit"):
            run_scenario("fig3_linearization_error", {"seeds": 3, "sigma": 100.0}, seed=0)

    def test_basis_equivalence_fails_on_another_graphs_basis(self):
        # The basis of a relabelled graph has the same n and m, so the size
        # check accepts it, but the coefficient form then integrates other
        # equations than the vertex form.
        config = scenario_config("basis_equivalence", SMALL_BASIS_EQ)
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, n_max=config["n_max"], n_min=config["n_min"], p=0.6)
        perm = rng.permutation(g.n)
        other = WeightedGraph(g.n, [(perm[i], perm[j], w) for i, j, w in g.edges])
        assert other != g
        sys_ = OscillatorSystem(graph=g, omega=rng.normal(0.0, 0.3, g.n), sigma=config["sigma"])
        theta0 = rng.uniform(-0.5, 0.5, g.n)
        dt, steps = config["dt"], int(round(config["t_final"] / config["dt"]))
        vertex = integrate_vertex(sys_, theta0, dt, steps).states

        def gap(basis):
            ctraj = integrate_coefficient(sys_, basis, basis.vertex_vectors.T @ theta0, dt, steps)
            return float(np.abs(reconstruct_trajectory(ctraj).states - vertex).max())

        assert gap(spectral_basis(g)) <= config["tol"]
        assert gap(spectral_basis(other)) > config["tol"]


class TestFig6Construction:
    def test_discriminant_pattern(self):
        config = scenario_config("fig6_single_mode")
        g, p, basis, system, r1, r2 = experiments._fig6_system(config, 0)
        from specsync import discriminant_report

        entries = {e.mode: e for e in discriminant_report(system, basis)}
        assert entries[r1].delta < 0
        assert all(e.delta > 0 for m, e in entries.items() if m != r1)
        assert g.n == 6 and p.k == 3


class TestPhaseLagEx2Graph:
    @pytest.mark.parametrize("clique_size", [2, 5, 7])
    def test_matches_loop_build(self, monkeypatch, clique_size):
        real = experiments.spectral_basis
        built = []
        monkeypatch.setattr(experiments, "spectral_basis", lambda g: built.append(g) or real(g))
        run_scenario("phase_lag_ex2", {"clique_size": clique_size, "steps": 10})
        c, w = clique_size, scenario_config("phase_lag_ex2")["weight"]
        edges = [(base + a, base + b, w) for base in (0, c) for a in range(c)
                 for b in range(a + 1, c)]
        edges += [(a, a + c, w) for a in range(c)]
        assert built == [WeightedGraph(2 * c, edges)]


def reference_sbm_concentration(g, p, probabilities):
    """Oracle: the per-cell loop, max |E_iq| / (p_pq |C_q|) over the
    vertices i outside cell q."""
    err = equitable_error_matrix(g, p)
    pr = np.asarray(probabilities)
    stat = 0.0
    for q in range(p.k):
        mask = p.assignment != q
        denom = pr[p.assignment[mask], q] * p.sizes()[q]
        stat = max(stat, float((np.abs(err[mask, q]) / denom).max()))
    return stat


class TestSbmConcentration:
    @pytest.mark.parametrize("sizes, probabilities", [
        ((10, 30), ((0.6, 0.2), (0.2, 0.5))),
        ((5, 12, 8), ((0.7, 0.3, 0.2), (0.3, 0.4, 0.1), (0.2, 0.1, 0.9))),
    ])
    def test_matches_per_cell_loop(self, sizes, probabilities):
        for seed in range(5):
            g, p = sample_sbm(SbmConfig(block_sizes=sizes, probabilities=probabilities,
                                        seed=seed))
            assert (experiments._sbm_concentration(g, p, probabilities)
                    == reference_sbm_concentration(g, p, probabilities))
