"""Command-line interface.

Subcommands: generate (planted-aep | nested-aep | sbm), analyze, simulate,
predict, and experiment. The CLI is a thin shell over the library: a
generator config is passed through as the generator's parameters, reports
are the library's result dataclasses rendered as JSON, and input values are
checked by the model layer (only --mode and --rezero are checked here).

main() is the one error boundary. Exit codes are 0 on success, 1 for a
runtime failure (RuntimeError: an integration blow-up, a generator out of
retries), and 2 for a usage or configuration error (ValueError, TypeError,
KeyError or OSError: a bad value, a malformed or unreadable input file, an
unwritable output path). All outputs are deterministic given --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import asymptotic_coefficients, discriminant_report
from .dynamics import (
    OscillatorSystem,
    decompose_trajectory,
    integrate_coefficient,
    integrate_vertex,
    reconstruct_trajectory,
    rezero,
)
from .equitable import approximation_bound, check_aep, equitable_error, qep_score
from .experiments import available_scenarios, run_scenario, scenario_config
from .generators import PlantedAepConfig, SbmConfig, nested_aep, perturb, planted_aep, sample_sbm
from .graph import laplacian
from .spectral import eigendecompose, spectral_basis


def _load(load, path, what: str):
    """load(path), with any failure re-raised as a ValueError that names
    the argument and the path (or inline value) it was given."""
    try:
        return load(path)
    except Exception as exc:  # input boundary: every way a file can be bad
        raise ValueError(f"{what} {path}: {type(exc).__name__}: {exc}") from exc


def _read_config(path) -> dict:
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise TypeError(f"expected a JSON object, got {config!r}")
    return config


def _record(obj, *drop: str) -> dict:
    """A result dataclass as a JSON-ready dict without the named fields."""
    return {key: value for key, value in asdict(obj).items() if key not in drop}


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(args) -> None:
    config = _load(_read_config, args.config, "--config")
    if args.kind == "nested-aep":
        graph, partitions = nested_aep(**config, seed=args.seed)
    elif args.kind == "planted-aep":
        graph, partition = planted_aep(PlantedAepConfig(**config, seed=args.seed))
        partitions = [partition]
    else:  # sbm
        graph, partition = sample_sbm(SbmConfig(**config, seed=args.seed))
        partitions = [partition]
    if args.perturb is not None:
        graph = perturb(graph, partitions[-1], args.perturb, seed=args.seed)

    out = _out_dir(args)
    fileio.save_graph(graph, out / "graph.json")
    written = ["graph.json"]
    if len(partitions) == 1:
        fileio.save_partition(partitions[0], out / "partition.json")
        written.append("partition.json")
    else:
        for level, part in enumerate(partitions):
            name = f"partition_level{level}.json"
            fileio.save_partition(part, out / name)
            written.append(name)
    print(f"wrote {', '.join(written)} to {out}")


def _cmd_analyze(args) -> None:
    graph = _load(fileio.load_graph, args.graph, "--graph")
    partition = _load(fileio.load_partition, args.partition, "--partition")
    err = equitable_error(graph, partition)
    basis = None if args.gamma is None else eigendecompose(laplacian(graph))
    aep = check_aep(graph, partition, tol=args.tol)
    report = {
        "n": graph.n,
        "k": partition.k,
        "is_aep": aep.is_aep,
        "max_deviation": aep.max_deviation,
        "tol": args.tol,
        "sigma1": err.sigma1,
        "max_row_sum": err.max_row_sum,
        "qep_score": qep_score(graph, partition),
        "equitable_error": err.E.tolist(),
        "modes": [_record(m, "vector") for m in err.per_mode],
    }
    if basis is not None:
        report["approximation_bounds"] = [
            asdict(approximation_bound(graph, partition, basis, (m.eigenvalue, m.vector),
                                       args.gamma))
            for m in err.per_mode
        ]
    _emit_report(report, args)


def _emit_report(report: dict, args) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")


def _system(graph, args) -> OscillatorSystem:
    """The oscillators of --omega, --beta and --sigma on graph."""
    omega = _load(partial(fileio.load_vector, expected_len=graph.n), args.omega, "--omega")
    beta = (
        _load(partial(fileio.load_vector, expected_len=graph.m), args.beta, "--beta")
        if args.beta else None
    )
    return OscillatorSystem(graph=graph, omega=omega, sigma=args.sigma, beta=beta)


def _cmd_simulate(args) -> None:
    graph = _load(fileio.load_graph, args.graph, "--graph")
    system = _system(graph, args)
    theta0 = (
        _load(partial(fileio.load_vector, expected_len=graph.n), args.theta0, "--theta0")
        if args.theta0 else np.zeros(graph.n)
    )
    at = None
    if args.rezero is not None:
        if not np.isfinite(args.rezero):
            raise ValueError(f"--rezero must be a finite time, got {args.rezero}")
        # Checked before integrating; a --dt that is not finite and positive is
        # left to the integrator, which rejects it.
        if np.isfinite(args.dt) and args.dt > 0:
            at = np.rint(args.rezero / args.dt)
            if not 0 <= at <= args.steps:
                raise ValueError("--rezero time outside the trajectory")
            at = int(at)
    basis = spectral_basis(graph)
    if args.basis == "vertex":
        traj = integrate_vertex(system, theta0, args.dt, args.steps)
    else:
        alpha0 = basis.vertex_vectors.T @ theta0
        ctraj = integrate_coefficient(system, basis, alpha0, args.dt, args.steps)
        traj = reconstruct_trajectory(ctraj)
    if at is not None:
        traj = rezero(traj, at)
    if args.basis == "vertex" or args.rezero is not None:  # decompose once, after any rezero
        ctraj = decompose_trajectory(traj, basis)
    out = _out_dir(args)
    fileio.write_phase_csv(traj, out / "trajectory.csv")
    fileio.write_coefficient_csv(ctraj, out / "coefficients.csv")
    print(f"wrote trajectory.csv, coefficients.csv to {out}")


def _cmd_predict(args) -> None:
    graph = _load(fileio.load_graph, args.graph, "--graph")
    # Mode 0 has no discriminant, and entries[-1] would pick the last mode.
    if args.mode is not None and not 1 <= args.mode < graph.n:
        raise ValueError(f"--mode must be in 1..{graph.n - 1}")
    system = _system(graph, args)
    basis = spectral_basis(graph)
    pred = asymptotic_coefficients(system, basis)
    entries = discriminant_report(system, basis)
    if args.mode is not None:
        entries = [entries[args.mode - 1]]
    report = {
        "sigma": args.sigma,
        "eigenvalues": basis.eigenvalues.tolist(),
        "asymptotics": [
            {
                "mode": r,
                "omega_spec": float(pred.omega_spec[r]),
                "decay_rate": float(pred.decay_rates[r]),
                "alpha_inf": float(pred.alpha_inf[r]),
            }
            for r in range(1, graph.n)
        ],
        "discriminants": [{**asdict(e), "classification": e.classification} for e in entries],
    }
    _emit_report(report, args)


def _cmd_experiment(args) -> None:
    names = available_scenarios() if args.name == "all" else [args.name]
    config = _load(_read_config, args.config, "--config") if args.config else None
    for name in names:  # check the config against every scenario before the first runs
        scenario_config(name, config)
    for name in names:
        result = run_scenario(name, config=config, seed=args.seed, out_dir=args.out_dir)
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status}")
        for assertion in result.assertions:
            mark = "ok" if assertion.passed else "FAIL"
            print(f"  [{mark}] {assertion.name}: {assertion.detail}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsync",
        description=(
            "Spectral analysis of cluster synchronization on weighted graphs: "
            "generators, partition diagnostics, Kuramoto simulation, and "
            "closed-form predictions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph with planted structure")
    gen.add_argument("kind", choices=["planted-aep", "nested-aep", "sbm"])
    gen.add_argument("--config", required=True, help="generator config JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=".", help="directory for graph/partition JSON")
    gen.add_argument(
        "--perturb", type=float, default=None, metavar="ETA",
        help="apply multiplicative weight noise of this magnitude",
    )
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="partition diagnostics for a graph")
    ana.add_argument("--graph", required=True)
    ana.add_argument("--partition", required=True)
    ana.add_argument("--tol", type=float, default=1e-9,
                     help="AEP tolerance on max |E|, relative to the largest vertex degree")
    ana.add_argument("--gamma", type=float, default=None,
                     help="also report truncated-approximation bounds at this window")
    ana.add_argument("--out", default=None, help="write the report here instead of stdout")
    ana.set_defaults(func=_cmd_analyze)

    sim = sub.add_parser("simulate", help="integrate the oscillator dynamics")
    sim.add_argument("--graph", required=True)
    sim.add_argument("--omega", required=True, help="JSON array or path to one")
    sim.add_argument("--beta", default=None, help="per-edge phase lags (JSON array or path)")
    sim.add_argument("--theta0", default=None, help="initial phases (JSON array or path)")
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--dt", type=float, default=0.01)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--basis", choices=["vertex", "coefficient"], default="vertex")
    sim.add_argument("--rezero", type=float, default=None, metavar="T",
                     help="re-zero the trajectory at this time before decomposing")
    sim.add_argument("--out-dir", default=".")
    sim.set_defaults(func=_cmd_simulate)

    prd = sub.add_parser("predict", help="asymptotic coefficients and discriminants")
    prd.add_argument("--graph", required=True)
    prd.add_argument("--omega", required=True)
    prd.add_argument("--beta", default=None)
    prd.add_argument("--sigma", type=float, default=1.0)
    prd.add_argument("--mode", type=int, default=None, help="restrict to one mode (>= 1)")
    prd.add_argument("--out", default=None)
    prd.set_defaults(func=_cmd_predict)

    exp = sub.add_parser("experiment", help="run a scripted scenario")
    exp.add_argument("name", help="scenario name or 'all'")
    exp.add_argument("--config", default=None, help="config overrides JSON")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out-dir", default=None, help="write scenario artifacts here")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except RuntimeError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
