"""The three workloads: inputs made from the seed, timed calls, checks.

A workload is set up once per process (setup(), untimed except as part of
setup_s) and then runs whole rounds. Every round makes the same calls on
the same inputs. Each call into specsync goes through Round.call, which
times it; the checks that follow run with the clock stopped.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import time
from importlib import resources
from pathlib import Path

import numpy as np

import specsync as api
from specsync import cli

import checks

# The scenario the hierarchy workload and the nested partition inputs use:
# the shipped fig4 instance. Other nested_aep seeds fail for a few percent
# of seeds (see CHANGES.md), so the seed is the scenario's shipped default.
FIG4_SEED = 0
# experiment fig6_single_mode --out-dir fails on every seed when it writes
# result.json; the command keeps its default seed so that failure does not
# depend on --seed.
KNOWN_FIG6 = (TypeError, "is not JSON serializable")


class RoundFailure(Exception):
    """A call raised an error that no check expects; the round stops."""


class Round:
    """Timed calls and failure counts of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.known: dict[str, str] = {}

    def call(self, label, fn, *args, known=None, **kwargs):
        """Run one operation under the clock. An exception matching
        known=(type, text) is a counted, expected failure (returns None);
        any other exception stops the round."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            if known is not None and isinstance(exc, known[0]) and known[1] in str(exc):
                self.known[label] = message
                return None
            self.failed[label] = message
            raise RoundFailure(f"{label}: {message}") from exc
        finally:
            self.seconds += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False

    def check(self, label, problems):
        if problems:
            self.failed.setdefault(label, "; ".join(problems))


def _edges(g):
    return np.asarray(g.edge_i), np.asarray(g.edge_j), np.asarray(g.edge_w)


def shipped_config(name: str) -> dict:
    ref = resources.files("specsync").joinpath(f"configs/{name}.json")
    return json.loads(ref.read_text())


def scenario_checks(result) -> list[str]:
    bad = [f"{a.name}: {a.detail}" for a in result.assertions if not a.passed]
    return [f"scenario {result.name} failed {bad}"] if bad or not result.passed else []


# ----------------------------------------------------------------------
# hierarchy


class Hierarchy:
    """fig4_hierarchical on one shipped initial-condition seed per round."""

    overrides = {"seeds": 1, "required_pass": 1}

    def __init__(self, seed, out):
        self.config = shipped_config("fig4_hierarchical")
        self.reference = None

    def _reference(self):
        """Coarse and fine structural sets from a fresh eigensolve."""
        cfg = self.config
        g, parts = api.nested_aep(
            levels=tuple(cfg["levels"]), leaf_size=cfg["leaf_size"],
            level_weights=tuple(cfg["level_weights"]),
            leaf_weight_range=tuple(cfg["leaf_weight_range"]),
            jitter=cfg["jitter"], seed=FIG4_SEED,
        )
        _, vecs = np.linalg.eigh(checks.laplacian(g.n, *_edges(g)))
        return [
            {r for r in range(g.n) if checks.cell_constant(vecs[:, r], p.assignment)}
            for p in parts
        ]

    def run(self, r: Round):
        res = r.call("fig4_hierarchical", api.run_scenario, "fig4_hierarchical",
                     config=self.overrides, seed=FIG4_SEED)
        if self.reference is None:
            self.reference = self._reference()
        r.check("fig4_hierarchical", self.verify(res, self.reference))

    @staticmethod
    def verify(res, reference) -> list[str]:
        problems = scenario_checks(res)
        coarse, fine = reference
        if coarse != {0, 1, 2} or fine != set(range(6)):
            problems.append(f"reference structural sets not nested and lowest: {coarse}, {fine}")
        detail = {a.name: a.detail for a in res.assertions}.get(
            "structural_modes_nested_and_lowest", "")
        found = re.findall(r"\[([\d, ]*)\]", detail)
        sets = [{int(x) for x in f.split(",") if x.strip()} for f in found]
        if sets != [coarse, fine]:
            problems.append(f"structural sets {sets} differ from the eigensolve's {[coarse, fine]}")
        for key in ("sequence_pass", "rate_pass"):
            if res.metrics.get(key) != Hierarchy.overrides["seeds"]:
                problems.append(f"{key} = {res.metrics.get(key)}")
        return problems


# ----------------------------------------------------------------------
# partition_analysis


class PartitionAnalysis:
    """Partition diagnostics on planted, nested, perturbed and SBM graphs.

    The second link of the bound chain is not required on SBM samples,
    where it does not hold (see checks.bound_chain).
    """

    etas = (0.01, 0.05, 0.1, 0.2)
    sbm_sizes = (200, 400, 1600)
    # Dense incidence and edge vectors at n=1600 would need about 10 GB.
    basis_limit = 1000

    def __init__(self, seed, out):
        rng = np.random.default_rng(seed)
        self.planted = []
        for k in (3, 4):
            sizes = rng.integers(15, 31, size=k)
            total = rng.uniform(2.0, 6.0, size=(k, k))
            total = np.triu(total, 1) + np.triu(total, 1).T
            self.planted.append(api.PlantedAepConfig(
                cell_sizes=tuple(int(s) for s in sizes),
                quotient_weights=tuple(map(tuple, total / sizes[:, None])),
                intra_density=0.6, intra_weight_range=(1.0, 2.0),
                seed=int(rng.integers(2**31)),
            ))
        self.noise_seed = int(rng.integers(2**31))
        sbm = shipped_config("sbm_limit")
        self.sbm = [
            api.SbmConfig(block_sizes=(n // 2, n - n // 2),
                          probabilities=tuple(map(tuple, sbm["probabilities"])),
                          seed=int(rng.integers(2**31)))
            for n in self.sbm_sizes
        ]
        self.fig4 = shipped_config("fig4_hierarchical")
        self.scenario_seed = int(rng.integers(2**31))

    def run(self, r: Round):
        for i, cfg in enumerate(self.planted):
            g, p = r.call(f"planted{i}.generate", api.planted_aep, cfg)
            self.analyze(r, f"planted{i}", g, [p], exact=True)
            if i == 0:
                scores = []
                for eta in self.etas:
                    tag = f"perturbed{eta}"
                    gp = r.call(f"{tag}.generate", api.perturb, g, p, eta, seed=self.noise_seed)
                    scores.append(self.analyze(r, tag, gp, [p], exact=False)[0])
                r.check(f"perturbed{self.etas[-1]}.level0.qep_score",
                        checks.strictly_increasing("qep_score over eta", scores))
        cfg = self.fig4
        g, parts = r.call("nested.generate", api.nested_aep, levels=tuple(cfg["levels"]),
                          leaf_size=cfg["leaf_size"], level_weights=tuple(cfg["level_weights"]),
                          leaf_weight_range=tuple(cfg["leaf_weight_range"]),
                          jitter=cfg["jitter"], seed=FIG4_SEED)
        self.analyze(r, "nested", g, parts, exact=True)
        for cfg in self.sbm:
            tag = f"sbm{sum(cfg.block_sizes)}"
            g, p = r.call(f"{tag}.generate", api.sample_sbm, cfg)
            self.analyze(r, tag, g, [p], exact=False)
        res = r.call("sbm_limit", api.run_scenario, "sbm_limit", seed=self.scenario_seed)
        r.check("sbm_limit", scenario_checks(res))

    def analyze(self, r: Round, tag, g, parts, exact):
        """Every partition diagnostic on one graph; returns the qep scores."""
        ei, ej, w = _edges(g)
        lap = checks.laplacian(g.n, ei, ej, w)
        deg = np.diag(lap)
        scale = max(1.0, float(deg.max()))
        full = g.n <= self.basis_limit
        if full:
            basis = r.call(f"{tag}.spectral_basis", api.spectral_basis, g)
        else:
            basis = r.call(f"{tag}.eigendecompose",
                           lambda: api.eigendecompose(api.laplacian(g)))
        problems = checks.eigenbasis(lap, basis.eigenvalues, basis.vertex_vectors)
        if full:
            problems += checks.edge_vectors(basis.vertex_vectors, ei, ej, basis.edge_vectors)
        r.check(f"{tag}.basis", problems)

        scores = []
        for level, p in enumerate(parts):
            t = f"{tag}.level{level}"
            ref_e = checks.equitable_error(g.n, ei, ej, w, p.assignment, p.k)
            ref_sigma = float(np.linalg.svd(ref_e, compute_uv=False)[0])

            aep = r.call(f"{t}.check_aep", api.check_aep, g, p)
            problems = checks.close("AEP deviations", aep.per_vertex_deviations, ref_e,
                                    atol=1e-9 * scale)
            if aep.is_aep != exact:
                problems.append(f"is_aep = {aep.is_aep}, expected {exact}")
            r.check(f"{t}.check_aep", problems)

            err = r.call(f"{t}.equitable_error", api.equitable_error, g, p)
            problems = checks.close("E", err.E, ref_e, atol=1e-9 * scale)
            problems += checks.close("sigma_1(E)", err.sigma1, ref_sigma, atol=1e-9 * scale,
                                     rtol=1e-8)
            problems += checks.close("max row sum of E", err.max_row_sum,
                                     np.abs(ref_e).sum(axis=1).max(), atol=1e-9 * scale)
            problems += checks.bound_chain(
                [(m.epsilon_norm, m.bound_sigma, m.bound_rowsum) for m in err.per_mode],
                err.sigma1, err.max_row_sum, p.k, full=not tag.startswith("sbm"))
            r.check(f"{t}.equitable_error", problems)

            score = r.call(f"{t}.qep_score", api.qep_score, g, p)
            r.check(f"{t}.qep_score", checks.close("qep_score", score, ref_sigma / deg.mean(),
                                                   atol=1e-12, rtol=1e-8))
            scores.append(score)

            struct = r.call(f"{t}.structural_indices", api.structural_indices, basis, p)
            own = {i for i in range(g.n)
                   if checks.cell_constant(basis.vertex_vectors[:, i], p.assignment)}
            problems = []
            if exact and len(struct) != p.k:
                problems.append(f"{len(struct)} structural modes for an exact AEP with k={p.k}")
            if set(struct) != own:
                problems.append(f"structural modes {sorted(struct)} != cell-constant {sorted(own)}")
            r.check(f"{t}.structural_indices", problems)

            q_vals, q_vecs = r.call(
                f"{t}.quotient",
                lambda: api.eigendecompose_general(api.quotient_matrix(api.laplacian(g), p)))
            r.check(f"{t}.quotient", checks.close(
                "quotient eigenvalues", q_vals, checks.quotient_eigenvalues(lap, p.assignment, p.k),
                atol=1e-9 * scale))

            gamma = 0.5 * float(np.diff(q_vals).min())
            for mode in range(p.k):
                ab = r.call(f"{t}.approximation_bound{mode}", api.approximation_bound,
                            g, p, basis, (q_vals[mode], q_vecs[:, mode]), gamma)
                problems = checks.truncation_bound(ab.actual_error, ab.bound)
                problems += checks.close("delta = ||E v||", ab.delta,
                                         np.linalg.norm(ref_e @ q_vecs[:, mode]),
                                         atol=1e-9 * scale)
                r.check(f"{t}.approximation_bound{mode}", problems)
        return scores


# ----------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """The README's command-line flow, run in-process through cli.main."""

    sbm = {"block_sizes": [150, 150], "probabilities": [[0.06, 0.01], [0.01, 0.06]]}
    planted = {"cell_sizes": [10, 10, 10],
               "quotient_weights": [[0.0, 0.7, 0.3], [0.7, 0.0, 0.5], [0.3, 0.5, 0.0]],
               "intra_density": 0.9, "intra_weight_range": [1.2, 1.6]}
    sbm_sim = {"sigma": 0.5, "dt": 0.01, "steps": 2000}
    planted_sim = {"sigma": 1.0, "dt": 0.01, "steps": 3000}
    gamma = 0.5

    def __init__(self, seed, out: Path):
        rng = np.random.default_rng(seed)
        self.seed = int(rng.integers(2**31))
        self.inputs = out / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.work = out / "round"
        files = {
            "sbm.json": self.sbm,
            "planted.json": self.planted,
            "sbm_omega.json": rng.normal(0.0, 0.5, 300).tolist(),
            "sbm_theta0.json": rng.uniform(-np.pi, np.pi, 300).tolist(),
            "planted_omega.json": rng.normal(0.0, 0.3, 30).tolist(),
            "planted_theta0.json": rng.uniform(-0.5, 0.5, 30).tolist(),
        }
        for name, payload in files.items():
            (self.inputs / name).write_text(json.dumps(payload))

    def _main(self, r: Round, label, argv, known=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = r.call(label, cli.main, argv, known=known)
        if code not in (0, None):
            r.check(label, [f"exit code {code}"])
        return code

    def _simulate(self, r, label, graph, prefix, basis, params, out_dir):
        argv = ["simulate", "--graph", str(graph),
                "--omega", str(self.inputs / f"{prefix}_omega.json"),
                "--theta0", str(self.inputs / f"{prefix}_theta0.json"),
                "--sigma", str(params["sigma"]), "--dt", str(params["dt"]),
                "--steps", str(params["steps"]), "--basis", basis, "--out-dir", str(out_dir)]
        self._main(r, label, argv)

    def _read(self, r, label, path):
        return r.call(label, api.fileio.read_timeseries_csv, path)

    def run(self, r: Round):
        shutil.rmtree(self.work, ignore_errors=True)
        d = self.work
        seed = str(self.seed)
        self._main(r, "generate sbm", ["generate", "sbm", "--config", str(self.inputs / "sbm.json"),
                                       "--seed", seed, "--out-dir", str(d / "sbm")])
        self._main(r, "generate planted-aep",
                   ["generate", "planted-aep", "--config", str(self.inputs / "planted.json"),
                    "--seed", seed, "--out-dir", str(d / "planted")])
        for tag, exact in (("sbm", False), ("planted", True)):
            report = d / tag / "analyze.json"
            self._main(r, f"analyze {tag}",
                       ["analyze", "--graph", str(d / tag / "graph.json"),
                        "--partition", str(d / tag / "partition.json"),
                        "--gamma", str(self.gamma), "--out", str(report)])
            r.check(f"analyze {tag}", self.verify_analyze(
                json.loads(report.read_text()), d / tag, exact))

        self._main(r, "predict", ["predict", "--graph", str(d / "sbm" / "graph.json"),
                                  "--omega", str(self.inputs / "sbm_omega.json"),
                                  "--sigma", str(self.sbm_sim["sigma"]),
                                  "--out", str(d / "sbm" / "predict.json")])
        r.check("predict", self.verify_predict(
            json.loads((d / "sbm" / "predict.json").read_text()),
            json.loads((d / "sbm" / "graph.json").read_text()),
            np.asarray(json.loads((self.inputs / "sbm_omega.json").read_text())),
            self.sbm_sim["sigma"]))

        self._simulate(r, "simulate sbm vertex", d / "sbm" / "graph.json", "sbm", "vertex",
                       self.sbm_sim, d / "sbm" / "sim")
        times, theta = self._read(r, "read sbm trajectory", d / "sbm" / "sim" / "trajectory.csv")
        times_c, alpha = self._read(r, "read sbm coefficients", d / "sbm" / "sim" / "coefficients.csv")
        r.check("simulate sbm vertex", self.verify_coefficients(times, theta, times_c, alpha))

        runs = {}
        for basis in ("vertex", "coefficient"):
            out_dir = d / "planted" / basis
            self._simulate(r, f"simulate planted {basis}", d / "planted" / "graph.json",
                           "planted", basis, self.planted_sim, out_dir)
            runs[basis] = [self._read(r, f"read planted {basis} {name}", out_dir / f"{name}.csv")[1]
                           for name in ("trajectory", "coefficients")]
        r.check("simulate planted coefficient", self.verify_bases(runs["vertex"], runs["coefficient"]))

        exp = d / "experiments"
        self._main(r, "experiment fig2_cluster_sync",
                   ["experiment", "fig2_cluster_sync", "--seed", seed, "--out-dir", str(exp)])
        r.check("experiment fig2_cluster_sync",
                self.verify_result(exp / "fig2_cluster_sync" / "result.json"))
        code = self._main(r, "experiment fig6_single_mode",
                          ["experiment", "fig6_single_mode", "--out-dir", str(exp)], known=KNOWN_FIG6)
        if code is not None:
            r.check("experiment fig6_single_mode",
                    self.verify_result(exp / "fig6_single_mode" / "result.json"))

    # checks --------------------------------------------------------------

    @staticmethod
    def verify_analyze(report, graph_dir, exact) -> list[str]:
        graph = json.loads((graph_dir / "graph.json").read_text())
        assignment = np.asarray(json.loads((graph_dir / "partition.json").read_text())["assignment"])
        edges = np.asarray(graph["edges"], dtype=float)
        ei, ej, w = edges[:, 0].astype(int), edges[:, 1].astype(int), edges[:, 2]
        k = int(assignment.max()) + 1
        ref_e = checks.equitable_error(graph["n"], ei, ej, w, assignment, k)
        scale = max(1.0, float(np.abs(ref_e).max()))
        problems = checks.close("analyze E", report["equitable_error"], ref_e, atol=1e-9 * scale)
        problems += checks.bound_chain(
            [(m["epsilon_norm"], m["bound_sigma"], m["bound_rowsum"]) for m in report["modes"]],
            report["sigma1"], report["max_row_sum"], k, full=exact)
        if report["is_aep"] is not exact:
            problems.append(f"is_aep = {report['is_aep']}, expected {exact}")
        bounds = report.get("approximation_bounds", [])
        if len(bounds) != k:
            problems.append(f"{len(bounds)} approximation bounds for k={k}")
        for ab in bounds:
            problems += checks.truncation_bound(ab["actual_error"], ab["bound"])
        return problems

    @staticmethod
    def verify_predict(report, graph, omega, sigma) -> list[str]:
        edges = np.asarray(graph["edges"], dtype=float)
        lap = checks.laplacian(graph["n"], edges[:, 0].astype(int), edges[:, 1].astype(int),
                               edges[:, 2])
        alpha = [abs(a["alpha_inf"]) for a in report["asymptotics"]]
        return checks.asymptotics(lap, omega, sigma, np.asarray(report["eigenvalues"]), alpha)

    @staticmethod
    def verify_coefficients(times, theta, times_c, alpha) -> list[str]:
        problems = checks.close("time columns", times_c, times, atol=0.0)
        return problems + checks.coefficient_identity(theta, alpha)

    @staticmethod
    def verify_bases(vertex, coefficient) -> list[str]:
        problems = []
        for name, a, b in zip(("trajectory", "coefficients"), vertex, coefficient):
            problems += checks.close(f"planted {name}: vertex vs coefficient basis", b, a, atol=1e-6)
        return problems

    @staticmethod
    def verify_result(path) -> list[str]:
        result = json.loads(Path(path).read_text())
        bad = [a["name"] for a in result["assertions"] if not a["passed"]]
        if bad or result["passed"] is not True:
            return [f"{result['name']} failed {bad}"]
        return []


WORKLOADS = {
    "hierarchy": Hierarchy,
    "partition_analysis": PartitionAnalysis,
    "cli_pipeline": CliPipeline,
}
