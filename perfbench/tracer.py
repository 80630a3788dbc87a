"""Per-layer tracing of specsync from outside the package.

install() replaces the public functions of each specsync module, the
``WeightedGraph`` constructor, the CLI subcommand handlers and the scenario
bodies by timing wrappers, in every specsync module that holds a reference
to them. Each call records a span (name, start, end, parent) in memory;
metrics() folds the spans into self times and counters per layer.

Self time is a span's duration minus the child spans that belong to another
bucket. A call that one function of a module makes to a helper of the same
module (``laplacian`` -> ``adjacency``, ``spectral_basis`` ->
``eigendecompose``) is folded into the caller, so a layer's time is the
time spent in it after entering it from another layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc

LAYERS = (
    "generators",
    "graph",
    "spectral",
    "equitable",
    "dynamics",
    "analysis",
    "fileio",
    "experiments",
    "cli",
)

# Spans that always keep their own bucket: the named per-layer metrics.
NAMED = {
    "generators.nested_aep", "generators.planted_aep", "generators.sample_sbm",
    "generators.perturb",
    "graph.build", "graph.laplacian", "graph.incidence", "graph.quotient_matrix",
    "spectral.spectral_basis", "spectral.structural_indices",
    "spectral.eigendecompose_general",
    "equitable.check_aep", "equitable.equitable_error",
    "equitable.approximation_bound", "equitable.qep_score",
    "dynamics.integrate_vertex", "dynamics.integrate_coefficient",
    "dynamics.decompose_trajectory", "dynamics.reconstruct_trajectory",
    "dynamics.cluster_spread",
    "analysis.segment_regimes", "analysis.fit_decay_rates",
    "analysis.discriminant_report", "analysis.single_mode_solution",
    "analysis.asymptotic_coefficients",
    "fileio.write_phase_csv", "fileio.write_coefficient_csv",
    "fileio.read_timeseries_csv",
    "experiments.run_scenario", "cli.main",
}
SCENARIOS = (
    "fig4_hierarchical", "fig6_single_mode",
    "sbm_limit", "fig2_cluster_sync",
)
COMMANDS = ("generate", "analyze", "predict", "simulate", "experiment")
JSON_IO = ("save_graph", "load_graph", "save_partition", "load_partition",
           "save_basis", "load_vector")


class Tracer:
    """Spans and counters of one traced process.

    Recording happens only while ``active`` is set, so the benchmark's own
    checks, which also call into specsync, leave no spans.
    """

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.graph_keys: set = set()
        self.rounds = 0
        self.run_s = 0.0
        self.named = set(NAMED)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, after=None, around=None):
        """Timing wrapper; after(args, kwargs, seconds) records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            if around is not None:
                around(True)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                if around is not None:
                    around(False)
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                after(args, kwargs, end - start)
            return result

        return traced

    # ------------------------------------------------------------------
    # counters taken at the layer boundaries

    def _after_build(self, args, kwargs, seconds):
        self.add("graph.edges_built", args[0].m)

    def _after_laplacian(self, args, kwargs, seconds):
        # Rounds rebuild equal graphs, so distinct contents count once.
        self.add("graph.laplacian_calls", 1)
        self.graph_keys.add(hash(args[0]))

    def _around_basis(self, entering):
        if entering:
            tracemalloc.start()
        else:
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            self.counts["spectral.peak_mb"] = max(self.counts.get("spectral.peak_mb", 0.0), peak)
            self.add("spectral.spectral_basis_calls", 1)

    def _steps(self, kind, state_arg):
        def after(args, kwargs, seconds):
            names = ("system", "theta0", "dt", "steps") if kind == "vertex" else (
                "system", "basis", "alpha0", "dt", "steps")
            bound = dict(zip(names, args)) | kwargs
            state = bound[state_arg]
            batch = 1 if getattr(state, "ndim", 1) < 2 else state.shape[1]
            steps = int(bound["steps"]) * batch
            self.add(f"dynamics.{kind}_steps", steps)
            self.add(f"dynamics.{kind}_seconds", seconds)
            if kind == "vertex":
                self.add("dynamics.vertex_edge_terms", 4.0 * bound["system"].graph.m * steps)

        return after

    def _after_csv_write(self, args, kwargs, seconds):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.add("fileio.csv_bytes", os.path.getsize(path))

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Replace specsync's functions by traced wrappers, everywhere."""
        mods = {name: importlib.import_module(f"specsync.{name}") for name in LAYERS}
        replaced: dict[int, object] = {}
        hooks = {
            "graph.laplacian": dict(after=self._after_laplacian),
            "spectral.spectral_basis": dict(around=self._around_basis),
            "dynamics.integrate_vertex": dict(after=self._steps("vertex", "theta0")),
            "dynamics.integrate_coefficient": dict(after=self._steps("coefficient", "alpha0")),
            "fileio.write_phase_csv": dict(after=self._after_csv_write),
            "fileio.write_coefficient_csv": dict(after=self._after_csv_write),
        }
        for layer, mod in mods.items():
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            names = list(public)
            if layer == "cli":
                names += [f"_cmd_{c}" for c in COMMANDS]
            for fname in names:
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{fname.removeprefix('_cmd_')}"
                if fname.startswith("_cmd_"):
                    self.named.add(span)
                replaced[id(fn)] = self.wrap(span, fn, **hooks.get(span, {}))
        scenarios = getattr(mods["experiments"], "_SCENARIOS", {})
        for key, fn in list(scenarios.items()):
            scenarios[key] = self.wrap(f"experiments.{key}", fn)
            self.named.add(f"experiments.{key}")

        targets = [m for n, m in sys.modules.items() if n == "specsync" or n.startswith("specsync.")]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(mod, attr, replaced[id(value)])

        cls = mods["graph"].WeightedGraph
        cls.__init__ = self.wrap("graph.build", cls.__init__, after=self._after_build)

    # ------------------------------------------------------------------

    def buckets(self) -> dict[str, float]:
        """Self time per bucket, summed over all recorded spans."""
        bucket = [""] * len(self.spans)
        root = list(range(len(self.spans)))  # span whose duration holds this one
        child = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            bucket[i] = name
            if parent < 0:
                continue
            if name not in self.named and bucket[parent].split(".")[0] == name.split(".")[0]:
                bucket[i] = bucket[parent]
                root[i] = root[parent]
            else:
                child[root[parent]] += end - start
        selfs: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if root[i] == i:
                selfs[bucket[i]] = selfs.get(bucket[i], 0.0) + (end - start) - child[i]
        return selfs

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, per round."""
        rounds = max(self.rounds, 1)
        selfs = self.buckets()
        c = self.counts

        def s(*names):
            return sum(selfs.get(n, 0.0) for n in names) / rounds

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        out = {}
        for name in ("nested_aep", "planted_aep", "sample_sbm", "perturb"):
            out[f"generators.{name}_s"] = (s(f"generators.{name}"), "s")
        out["graph.build_s"] = (s("graph.build"), "s")
        out["graph.build_edges_per_s"] = (
            ratio(c.get("graph.edges_built", 0.0), selfs.get("graph.build", 0.0)), "1/s")
        out["graph.laplacian_s"] = (s("graph.laplacian"), "s")
        out["graph.laplacian_per_graph"] = (
            ratio(c.get("graph.laplacian_calls", 0.0) / rounds, len(self.graph_keys)), "ratio")
        out["graph.incidence_s"] = (s("graph.incidence"), "s")
        out["graph.quotient_matrix_s"] = (s("graph.quotient_matrix"), "s")
        out["spectral.spectral_basis_s"] = (s("spectral.spectral_basis"), "s")
        out["spectral.spectral_basis_calls"] = (
            c.get("spectral.spectral_basis_calls", 0.0) / rounds, "count")
        out["spectral.spectral_basis_peak_mb"] = (c.get("spectral.peak_mb", 0.0), "MB")
        out["spectral.structural_indices_s"] = (s("spectral.structural_indices"), "s")
        out["spectral.eigendecompose_general_s"] = (s("spectral.eigendecompose_general"), "s")
        for name in ("check_aep", "equitable_error", "approximation_bound", "qep_score"):
            out[f"equitable.{name}_s"] = (s(f"equitable.{name}"), "s")
        out["dynamics.integrate_vertex_s"] = (s("dynamics.integrate_vertex"), "s")
        out["dynamics.integrate_coefficient_s"] = (s("dynamics.integrate_coefficient"), "s")
        vsteps = c.get("dynamics.vertex_steps", 0.0)
        csteps = c.get("dynamics.coefficient_steps", 0.0)
        out["dynamics.rk4_steps"] = ((vsteps + csteps) / rounds, "count")
        out["dynamics.vertex_us_per_step"] = (
            1e6 * ratio(c.get("dynamics.vertex_seconds", 0.0), vsteps), "us")
        out["dynamics.coefficient_us_per_step"] = (
            1e6 * ratio(c.get("dynamics.coefficient_seconds", 0.0), csteps), "us")
        out["dynamics.vertex_edge_terms_per_s"] = (
            ratio(c.get("dynamics.vertex_edge_terms", 0.0), c.get("dynamics.vertex_seconds", 0.0)),
            "1/s")
        for name in ("decompose_trajectory", "reconstruct_trajectory", "cluster_spread"):
            out[f"dynamics.{name}_s"] = (s(f"dynamics.{name}"), "s")
        for name in ("segment_regimes", "fit_decay_rates", "discriminant_report",
                     "single_mode_solution", "asymptotic_coefficients"):
            out[f"analysis.{name}_s"] = (s(f"analysis.{name}"), "s")
        write = selfs.get("fileio.write_phase_csv", 0.0) + selfs.get("fileio.write_coefficient_csv", 0.0)
        out["fileio.csv_write_s"] = (write / rounds, "s")
        out["fileio.csv_write_mb_per_s"] = (ratio(c.get("fileio.csv_bytes", 0.0) / 1e6, write), "MB/s")
        out["fileio.csv_read_s"] = (s("fileio.read_timeseries_csv"), "s")
        out["fileio.json_io_s"] = (s(*(f"fileio.{n}" for n in JSON_IO)), "s")
        for name in SCENARIOS:
            out[f"experiments.{name}_s"] = (s(f"experiments.{name}"), "s")
        out["experiments.harness_self_s"] = (s("experiments.run_scenario"), "s")
        for name in COMMANDS:
            out[f"cli.{name}_s"] = (s(f"cli.{name}"), "s")
        out["cli.self_s"] = (s("cli.main"), "s")
        for layer in LAYERS:
            out[f"layer.{layer}_s"] = (
                sum(v for k, v in selfs.items() if k.split(".")[0] == layer) / rounds, "s")
        out["trace.run_s"] = (self.run_s / rounds, "s")
        out["trace.unaccounted_s"] = ((self.run_s - sum(selfs.values())) / rounds, "s")
        return out

    def dump(self, path) -> None:
        """Write the spans, one tab-separated line each."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
