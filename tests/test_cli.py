import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import specsync
from specsync.cli import main
from specsync import cli, experiments, fileio

from conftest import decompose_trajectory, reconstruct_trajectory


PLANTED_CONFIG = {
    "cell_sizes": [3, 4],
    "quotient_weights": [[0.0, 2.0], [1.5, 0.0]],
    "intra_density": 0.6,
    "intra_weight_range": [0.8, 1.2],
}

SBM_CONFIG = {"block_sizes": [8, 8], "probabilities": [[0.8, 0.3], [0.3, 0.7]]}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def make_path_graph(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}))
    return str(path)


class TestGenerate:
    def test_planted_aep_deterministic(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", PLANTED_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["generate", "planted-aep", "--config", cfg, "--seed", "7",
                         "--out-dir", str(out)])
            assert code == 0
        assert (out1 / "graph.json").read_bytes() == (out2 / "graph.json").read_bytes()
        assert (out1 / "partition.json").read_bytes() == (out2 / "partition.json").read_bytes()

    def test_sbm_generates_connected_sample(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", SBM_CONFIG)
        code = main(["generate", "sbm", "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path / "o")])
        assert code == 0
        g = fileio.load_graph(tmp_path / "o" / "graph.json")
        assert g.n == 16

    def test_nested_writes_level_partitions(self, tmp_path):
        cfg = write_json(tmp_path / "n.json", {
            "levels": [2, 2], "leaf_size": 4,
            "level_weights": [0.01, 0.1], "leaf_weight_range": [1.0, 1.3],
        })
        out = tmp_path / "o"
        assert main(["generate", "nested-aep", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "partition_level0.json").exists()
        assert (out / "partition_level1.json").exists()

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"cell_sizes": [2, 3],
                                                 "quotient_weights": [[0, 3], [3, 0]]})
        assert main(["generate", "planted-aep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["generate", "sbm", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_perturb_exits_2(self, tmp_path, capsys, eta):
        cfg = write_json(tmp_path / "c.json", PLANTED_CONFIG)
        out = tmp_path / "out"
        assert main(["generate", "planted-aep", "--config", cfg, f"--perturb={eta}",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestAnalyze:
    def test_exact_aep_reports_zero_score(self, tmp_path, capsys):
        graph = make_path_graph(tmp_path)
        part = write_json(tmp_path / "p.json", {"assignment": [0, 1, 0]})
        assert main(["analyze", "--graph", graph, "--partition", part]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_aep"] is True
        assert report["qep_score"] < 1e-12

    def test_split_path_reports_sigma_one(self, tmp_path, capsys):
        graph = make_path_graph(tmp_path)
        part = write_json(tmp_path / "p.json", {"assignment": [0, 1, 1]})
        assert main(["analyze", "--graph", graph, "--partition", part, "--gamma", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not report["is_aep"]
        assert abs(report["sigma1"] - 1.0) < 1e-12
        assert abs(report["qep_score"] - 0.75) < 1e-12
        assert len(report["approximation_bounds"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [["--gamma=nan"], ["--gamma=inf"], ["--gamma=0"], ["--gamma=-0.5"],
         ["--tol=nan"], ["--tol=inf"], ["--tol=-1e-9"]],
    )
    def test_bad_number_exits_2(self, tmp_path, capsys, extra):
        graph = make_path_graph(tmp_path)
        part = write_json(tmp_path / "p.json", {"assignment": [0, 1, 1]})
        report = tmp_path / "report.json"
        argv = ["analyze", "--graph", graph, "--partition", part, "--out", str(report)]
        assert main(argv + extra) == 2
        assert capsys.readouterr().out == ""
        assert not report.exists()

    def test_missing_partition_exits_2(self, tmp_path):
        graph = make_path_graph(tmp_path)
        assert main(["analyze", "--graph", graph, "--partition", str(tmp_path / "nope.json")]) == 2


class TestSimulate:
    def test_bases_agree(self, tmp_path):
        graph = make_path_graph(tmp_path)
        omega = "[0.1, 0.0, -0.1]"
        outs = {}
        for basis in ("vertex", "coefficient"):
            out = tmp_path / basis
            code = main(["simulate", "--graph", graph, "--omega", omega,
                         "--sigma", "1.0", "--steps", "500", "--basis", basis,
                         "--out-dir", str(out)])
            assert code == 0
            _, outs[basis] = fileio.read_timeseries_csv(out / "trajectory.csv")
        assert np.abs(outs["vertex"] - outs["coefficient"]).max() <= 1e-6

    def test_zero_coupling_grows_linearly(self, tmp_path):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "free"
        code = main(["simulate", "--graph", graph, "--omega", "[1.0, 2.0, 3.0]",
                     "--sigma", "0", "--steps", "100", "--dt", "0.05",
                     "--out-dir", str(out)])
        assert code == 0
        times, values = fileio.read_timeseries_csv(out / "trajectory.csv")
        assert np.abs(values - times[:, None] * np.array([1.0, 2.0, 3.0])).max() < 1e-9

    def test_rezero_flag(self, tmp_path):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "rz"
        code = main(["simulate", "--graph", graph, "--omega", "[0.5, 0.5, 0.5]",
                     "--theta0", "[0.2, 0.1, 0.0]", "--steps", "200",
                     "--rezero", "1.0", "--out-dir", str(out)])
        assert code == 0
        times, values = fileio.read_timeseries_csv(out / "trajectory.csv")
        assert times[0] == 1.0
        assert np.abs(values).max() < np.pi

    @pytest.mark.parametrize("basis", ["vertex", "coefficient"])
    def test_rezero_decomposes_once(self, tmp_path, monkeypatch, basis):
        calls = []

        project = cli._project_in_place

        def counted(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(cli, "_project_in_place", counted)
        graph = make_path_graph(tmp_path)
        out = tmp_path / "cli"
        code = main(["simulate", "--graph", graph, "--omega", "[0.5, 0.1, -0.3]",
                     "--theta0", "[0.2, 0.1, 0.0]", "--steps", "200", "--basis", basis,
                     "--rezero", "1.0", "--out-dir", str(out)])
        assert code == 0
        # The coefficient form's run becomes phases, then coefficients after rezero.
        assert len(calls) == (1 if basis == "vertex" else 2)

        g = fileio.load_graph(graph)
        system = specsync.OscillatorSystem(graph=g, omega=np.array([0.5, 0.1, -0.3]), sigma=1.0)
        spec = specsync.spectral_basis(g)
        theta0 = np.array([0.2, 0.1, 0.0])
        if basis == "vertex":
            traj = specsync.integrate_vertex(system, theta0, 0.01, 200)
        else:
            alpha0 = spec.vertex_vectors.T @ theta0
            traj = reconstruct_trajectory(
                specsync.integrate_coefficient(system, spec, alpha0, 0.01, 200), spec)
        traj = specsync.rezero(traj, 100)
        direct = tmp_path / "direct"
        direct.mkdir()
        fileio.write_phase_csv(traj, direct / "trajectory.csv")
        fileio.write_coefficient_csv(decompose_trajectory(traj, spec),
                                     direct / "coefficients.csv")
        for name in ("trajectory.csv", "coefficients.csv"):
            assert (out / name).read_bytes() == (direct / name).read_bytes()

    @pytest.mark.parametrize("basis", ["vertex", "coefficient"])
    def test_peak_memory_is_one_trajectory(self, tmp_path, basis):
        # n = 100, 6001 samples: the trajectory is 4.8 MB, and the CSV
        # writer's blocks take under 3 MB. The coefficients as a second
        # array would add 4.8 MB more, as would the coefficient form's
        # phases rebuilt beside its coefficients.
        rng = np.random.default_rng(8)
        edges = [[i, j, float(rng.uniform(0.5, 1.5))]  # a path plus random chords
                 for i in range(100) for j in range(i + 1, 100)
                 if j == i + 1 or rng.random() < 0.08]
        graph = write_json(tmp_path / "graph.json", {"n": 100, "edges": edges})
        omega = json.dumps(rng.normal(0.0, 0.3, 100).tolist())
        tracemalloc.start()
        try:
            code = main(["simulate", "--graph", graph, "--omega", omega, "--steps", "6000",
                         "--basis", basis, "--out-dir", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6001 * 100 * 8 + 4e6

    @pytest.mark.parametrize("when", ["nan", "inf", "-inf"])
    def test_rezero_must_be_finite(self, tmp_path, capsys, when):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--graph", graph, "--omega", "[0, 0, 0]", "--steps", "10",
                     f"--rezero={when}", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("basis", ["vertex", "coefficient"])
    @pytest.mark.parametrize("when", ["-0.5", "1.02", "1e308"])
    def test_rezero_past_the_end_exits_before_integrating(self, tmp_path, capsys,
                                                           monkeypatch, basis, when):
        # 100 steps of 0.01 end at t = 1.0; the check needs only --dt and --steps.
        def refuse(*args):
            raise AssertionError("ran before the --rezero check")

        for name in ("spectral_basis", "integrate_vertex", "integrate_coefficient"):
            monkeypatch.setattr(cli, name, refuse)
        graph = make_path_graph(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--graph", graph, "--omega", "[0, 0, 0]", "--steps", "100",
                     "--basis", basis, f"--rezero={when}", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--rezero time outside the trajectory" in captured.err
        assert not out.exists()

    def test_rezero_at_the_last_sample(self, tmp_path):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--graph", graph, "--omega", "[0, 0, 0]", "--steps", "100",
                     "--rezero", "1.0", "--out-dir", str(out)]) == 0
        times, _ = fileio.read_timeseries_csv(out / "trajectory.csv")
        assert times.tolist() == [1.0]

    def test_bad_dt_exits_2(self, tmp_path):
        graph = make_path_graph(tmp_path)
        assert main(["simulate", "--graph", graph, "--omega", "[0,0,0]",
                     "--dt", "-0.01", "--steps", "10", "--out-dir", str(tmp_path)]) == 2

    def test_dt_past_rk4_stability_limit_exits_2(self, tmp_path, capsys):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--graph", graph, "--omega", "[0,0,0]", "--dt", "1",
                     "--steps", "10", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sigma 1 x 2 d_max 4 x dt 1 is past RK4's stability limit 2.785" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--omega", "[NaN, 0, 0]"],
            ["--omega", "[0, 0, 0]", "--beta", "[Infinity, 0]"],
            ["--omega", "[0, 0, 0]", "--theta0", "[0, NaN, 0]"],
            ["--omega", "[0, 0, 0]", "--theta0", "[0, NaN, 0]", "--basis", "coefficient"],
            ["--omega", "[0, 0, 0]", "--dt", "nan"],
            ["--omega", "[0, 0, 0]", "--sigma", "inf"],
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, extra):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "out"
        argv = ["simulate", "--graph", graph, "--steps", "10", "--out-dir", str(out)]
        assert main(argv + extra) == 2
        assert not out.exists()

    def test_wrong_omega_length_exits_2(self, tmp_path):
        graph = make_path_graph(tmp_path)
        assert main(["simulate", "--graph", graph, "--omega", "[1.0]",
                     "--steps", "10", "--out-dir", str(tmp_path)]) == 2


class TestPredict:
    def test_uniform_omega_all_zero(self, tmp_path, capsys):
        graph = make_path_graph(tmp_path)
        assert main(["predict", "--graph", graph, "--omega", "[0.4, 0.4, 0.4]"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(abs(m["alpha_inf"]) < 1e-12 for m in report["asymptotics"])

    def test_mode_zero_exits_2(self, tmp_path):
        graph = make_path_graph(tmp_path)
        assert main(["predict", "--graph", graph, "--omega", "[0,0,0]", "--mode", "0"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--omega", "[Infinity, 0, 0]"],
            ["--omega", "[0, 0, 0]", "--beta", "[0, NaN]"],
            ["--omega", "[0, 0, 0]", "--sigma", "nan"],
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, extra):
        graph = make_path_graph(tmp_path)
        assert main(["predict", "--graph", graph] + extra) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("sigma", ["0", "-1"])
    def test_nonpositive_sigma_exits_2(self, tmp_path, capsys, sigma):
        graph = make_path_graph(tmp_path)
        assert main(["predict", "--graph", graph, "--omega", "[0.1, 0, -0.1]",
                     "--sigma", sigma]) == 2
        assert capsys.readouterr().out == ""

    def test_fig6_system_reports_negative_delta(self, tmp_path, capsys):
        config = experiments.scenario_config("fig6_single_mode")
        g, p, basis, system, r1, _ = experiments._fig6_system(config, 0)
        gpath = tmp_path / "g.json"
        fileio.save_graph(g, gpath)
        opath = tmp_path / "omega.json"
        opath.write_text(json.dumps(list(system.omega)))
        assert main(["predict", "--graph", str(gpath), "--omega", str(opath),
                     "--sigma", str(system.sigma), "--mode", str(r1)]) == 0
        report = json.loads(capsys.readouterr().out)
        entry = report["discriminants"][0]
        assert entry["mode"] == r1
        assert entry["delta"] < 0
        assert entry["classification"] == "limit_cycle"


class TestExperimentCommand:
    def test_runs_scenario_with_overrides(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {"systems": 2, "n_min": 5, "n_max": 6, "t_final": 2.0})
        code = main(["experiment", "basis_equivalence", "--config", cfg,
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "basis_equivalence: PASS" in out
        assert (tmp_path / "runs" / "basis_equivalence" / "result.json").exists()

    def test_unknown_scenario_exits_2(self):
        assert main(["experiment", "fig9_unknown"]) == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["experiment", "phase_lag_ex2", "--seed", "-1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["a", 2.5, True])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, seeds):
        cfg = write_json(tmp_path / "cfg.json", {"seeds": seeds})
        assert main(["experiment", "sbm_limit", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seeds" in captured.err

    def test_mistyped_array_element_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scenario ran")

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", refuse)
        cfg = write_json(tmp_path / "cfg.json", {"sizes": ["a"]})
        assert main(["experiment", "sbm_limit", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sizes" in captured.err

    @pytest.mark.parametrize("payload", [["seeds"], None, []])
    def test_config_must_be_a_json_object(self, tmp_path, capsys, monkeypatch, payload):
        def refuse(*args):
            raise AssertionError("the scenario ran")

        monkeypatch.setitem(experiments._SCENARIOS, "sbm_limit", refuse)
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["experiment", "sbm_limit", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "JSON object" in captured.err

    def test_unusable_out_dir_fails_before_any_scenario(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a scenario ran")

        for name in experiments.available_scenarios():
            monkeypatch.setitem(experiments._SCENARIOS, name, refuse)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["experiment", "all", "--out-dir", str(blocker)]) == 2
        assert capsys.readouterr().out == ""

    def test_all_checks_the_config_before_any_scenario(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a scenario ran")

        for name in experiments.available_scenarios():
            monkeypatch.setitem(experiments._SCENARIOS, name, refuse)
        cfg = write_json(tmp_path / "cfg.json", {"dt": 0.01})  # every scenario but sbm_limit has dt
        out = tmp_path / "runs"
        assert main(["experiment", "all", "--config", cfg, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sbm_limit" in captured.err
        assert not out.exists()

    def test_scenario_value_error_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"sigma": 0.0})
        assert main(["experiment", "phase_lag_ex2", "--config", cfg]) == 2
        assert capsys.readouterr().out == ""

    def test_integer_accepted_for_number(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"sigma": 1})
        assert main(["experiment", "phase_lag_ex2", "--config", cfg]) == 0
        assert "phase_lag_ex2: PASS" in capsys.readouterr().out


class TestErrorBoundary:
    """main() maps every usage error to exit 2 and every runtime failure to
    exit 1, with nothing on stdout and no output left behind."""

    @pytest.fixture
    def files(self, tmp_path):
        return {
            "graph": make_path_graph(tmp_path),
            "partition": write_json(tmp_path / "p.json", {"assignment": [0, 1, 0]}),
            "list_graph": write_json(tmp_path / "list.json", [[0, 1, 1.0], [1, 2, 1.0]]),
            "string_cells": write_json(tmp_path / "s.json", {"assignment": ["a", "b", "a"]}),
            "directory": str(tmp_path),
            "a_file": write_json(tmp_path / "file.json", {}),
            "missing_dir": str(tmp_path / "missing" / "x.json"),
            "sbm": write_json(tmp_path / "sbm.json", SBM_CONFIG),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--graph", "{list_graph}", "--partition", "{partition}"],
            ["analyze", "--graph", "{graph}", "--partition", "{string_cells}"],
            ["analyze", "--graph", "{directory}", "--partition", "{partition}"],
            ["simulate", "--graph", "{graph}", "--omega", "{directory}", "--steps", "10"],
            ["analyze", "--graph", "{graph}", "--partition", "{partition}",
             "--out", "{missing_dir}"],
            ["predict", "--graph", "{graph}", "--omega", "[0, 0, 0]", "--out", "{missing_dir}"],
            ["generate", "sbm", "--config", "{sbm}", "--out-dir", "{a_file}"],
            ["experiment", "phase_lag_ex2", "--out-dir", "{a_file}"],
        ],
        ids=["graph-json-list", "string-cells", "graph-dir", "omega-dir", "analyze-out",
             "predict-out", "generate-out-dir", "experiment-out-dir"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, files, argv):
        out = tmp_path / "out"
        argv = [arg.format(**files) for arg in argv]
        if argv[0] == "simulate":
            argv += ["--out-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "missing").exists()
        assert (tmp_path / "file.json").read_text() == "{}"

    def test_errors_name_the_argument_and_file(self, tmp_path, capsys):
        bad = write_json(tmp_path / "list.json", [1, 2])
        part = write_json(tmp_path / "p.json", {"assignment": [0, 1, 0]})
        assert main(["analyze", "--graph", bad, "--partition", part]) == 2
        err = capsys.readouterr().err
        assert "--graph" in err and bad in err

    @pytest.mark.parametrize(
        "kind, config",
        [("planted-aep", PLANTED_CONFIG), ("sbm", SBM_CONFIG),
         ("nested-aep", {"levels": [2, 2], "leaf_size": 4, "level_weights": [0.01, 0.1]})],
    )
    @pytest.mark.parametrize("key", ["unknown_key", "seed", "max_retries", "leaf_density"])
    def test_generator_config_keys(self, tmp_path, capsys, kind, config, key):
        cfg = write_json(tmp_path / "c.json", {**config, key: 3})
        out = tmp_path / "out"
        assert main(["generate", kind, "--config", cfg, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err
        assert not out.exists()

    def test_generator_config_must_be_an_object(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", [["block_sizes", [8, 8]]])
        assert main(["generate", "sbm", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out == ""

    def test_simulate_blow_up_exits_1(self, tmp_path, capsys):
        graph = make_path_graph(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--graph", graph, "--omega", "[1e308, 0, -1e308]",
                     "--dt", "0.5", "--steps", "10", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("simulate failed: non-finite state")
        assert not out.exists()

    def test_sbm_out_of_retries_exits_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "z.json",
                         {"block_sizes": [3, 3], "probabilities": [[0.0, 0.0], [0.0, 0.0]]})
        out = tmp_path / "out"
        assert main(["generate", "sbm", "--config", cfg, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("generate failed: ")
        assert not out.exists()

    def test_module_entry_point_prints_no_traceback(self, tmp_path):
        bad = write_json(tmp_path / "list.json", [[0, 1, 1.0]])
        part = write_json(tmp_path / "p.json", {"assignment": [0, 1]})
        src = str(Path(specsync.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "specsync", "analyze", "--graph", bad, "--partition", part],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "--graph" in proc.stderr


class TestReportFields:
    def test_analyze_and_predict_keys(self, tmp_path, capsys):
        graph = make_path_graph(tmp_path)
        part = write_json(tmp_path / "p.json", {"assignment": [0, 1, 1]})
        assert main(["analyze", "--graph", graph, "--partition", part, "--gamma", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["modes"][0]) == ["eigenvalue", "epsilon_norm", "bound_sigma",
                                            "bound_rowsum"]
        assert list(report["approximation_bounds"][0]) == [
            "eigenvalue", "gamma", "retained", "delta", "actual_error", "bound"]
        assert main(["predict", "--graph", graph, "--omega", "[0.1, 0, -0.1]"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["discriminants"][0]) == ["mode", "omega_r", "x", "delta",
                                                    "classification"]
