"""Command-line interface.

Subcommands: generate (planted-aep | nested-aep | sbm), analyze, simulate,
predict, and experiment. All outputs are deterministic given --seed; exit
codes are 0 on success, 1 for runtime failures such as integration blow-up,
and 2 for usage or configuration errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import asymptotic_coefficients, discriminant_report
from .dynamics import (
    BlowUpError,
    OscillatorSystem,
    decompose_trajectory,
    integrate_coefficient,
    integrate_vertex,
    reconstruct_trajectory,
    rezero,
)
from .equitable import approximation_bound, check_aep, equitable_error, qep_score
from .experiments import available_scenarios, run_scenario
from .generators import PlantedAepConfig, SbmConfig, nested_aep, perturb, planted_aep, sample_sbm
from .graph import laplacian
from .spectral import decompose, eigendecompose, spectral_basis


class CliError(Exception):
    """Usage or configuration problem; exits with code 2."""


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise CliError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc


def _load_graph(path):
    try:
        return fileio.load_graph(path)
    except FileNotFoundError as exc:
        raise CliError(f"graph file not found: {path}") from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"invalid graph file {path}: {exc}") from exc


def _load_partition(path):
    try:
        return fileio.load_partition(path)
    except FileNotFoundError as exc:
        raise CliError(f"partition file not found: {path}") from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"invalid partition file {path}: {exc}") from exc


def _vector(spec: str, expected_len: int, what: str) -> np.ndarray:
    try:
        return fileio.load_vector(spec, expected_len)
    except FileNotFoundError as exc:
        raise CliError(f"{what} file not found: {spec}") from exc
    except (json.JSONDecodeError, ValueError) as exc:
        raise CliError(f"invalid {what}: {exc}") from exc


def _cmd_generate(args) -> int:
    config = _load_json(args.config)
    try:
        if args.kind == "planted-aep":
            cfg = PlantedAepConfig(
                cell_sizes=tuple(config["cell_sizes"]),
                quotient_weights=tuple(map(tuple, config["quotient_weights"])),
                intra_density=config.get("intra_density", 0.5),
                intra_weight_range=tuple(config.get("intra_weight_range", (0.5, 1.5))),
                seed=args.seed,
            )
            graph, partition = planted_aep(cfg)
            partitions = [partition]
        elif args.kind == "nested-aep":
            graph, partitions = nested_aep(
                levels=tuple(config["levels"]),
                leaf_size=config["leaf_size"],
                level_weights=tuple(config["level_weights"]),
                leaf_weight_range=tuple(config.get("leaf_weight_range", (1.0, 1.4))),
                leaf_density=config.get("leaf_density", 1.0),
                jitter=config.get("jitter", 0.05),
                seed=args.seed,
            )
        else:  # sbm
            cfg = SbmConfig(
                block_sizes=tuple(config["block_sizes"]),
                probabilities=tuple(map(tuple, config["probabilities"])),
                seed=args.seed,
            )
            graph, partition = sample_sbm(cfg)
            partitions = [partition]
    except KeyError as exc:
        raise CliError(f"config missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid generator config: {exc}") from exc
    except RuntimeError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1

    if args.perturb is not None:
        try:
            graph = perturb(graph, partitions[-1], args.perturb, seed=args.seed)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

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
    return 0


def _cmd_analyze(args) -> int:
    graph = _load_graph(args.graph)
    partition = _load_partition(args.partition)
    if partition.n != graph.n:
        raise CliError("partition length does not match graph size")
    err = equitable_error(graph, partition)
    basis = None if args.gamma is None else eigendecompose(laplacian(graph))
    try:  # the model layer rejects a bad --tol or --gamma
        aep = check_aep(graph, partition, tol=args.tol)
        bounds = None if basis is None else [
            approximation_bound(graph, partition, basis, (m.eigenvalue, m.vector), args.gamma)
            for m in err.per_mode
        ]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = {
        "n": graph.n,
        "k": partition.k,
        "is_aep": aep.is_aep,
        "max_deviation": aep.max_deviation,
        "tol": aep.tol,
        "sigma1": err.sigma1,
        "max_row_sum": err.max_row_sum,
        "qep_score": qep_score(graph, partition),
        "equitable_error": [[float(x) for x in row] for row in err.E],
        "modes": [
            {
                "eigenvalue": m.eigenvalue,
                "epsilon_norm": m.epsilon_norm,
                "bound_sigma": m.bound_sigma,
                "bound_rowsum": m.bound_rowsum,
            }
            for m in err.per_mode
        ],
    }
    if bounds is not None:
        report["approximation_bounds"] = [
            {
                "eigenvalue": ab.eigenvalue,
                "gamma": ab.gamma,
                "retained": list(ab.retained),
                "delta": ab.delta,
                "actual_error": ab.actual_error,
                "bound": ab.bound,
            }
            for ab in bounds
        ]
    _emit_report(report, args)
    return 0


def _emit_report(report: dict, args) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")


def _system(graph, omega, sigma, beta) -> OscillatorSystem:
    try:
        return OscillatorSystem(graph=graph, omega=omega, sigma=sigma, beta=beta)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    graph = _load_graph(args.graph)
    omega = _vector(args.omega, graph.n, "omega")
    beta = _vector(args.beta, graph.m, "beta") if args.beta else None
    theta0 = (
        _vector(args.theta0, graph.n, "theta0") if args.theta0 else np.zeros(graph.n)
    )
    if args.rezero is not None and not np.isfinite(args.rezero):
        raise CliError(f"--rezero must be a finite time, got {args.rezero}")
    system = _system(graph, omega, args.sigma, beta)
    basis = spectral_basis(graph)
    try:
        if args.basis == "vertex":
            traj = integrate_vertex(system, theta0, args.dt, args.steps)
            ctraj = decompose_trajectory(traj, basis)
        else:
            ctraj = integrate_coefficient(
                system, basis, decompose(theta0, basis), args.dt, args.steps
            )
            traj = reconstruct_trajectory(ctraj)
    except ValueError as exc:  # dt, steps or theta0 rejected by the integrator
        raise CliError(str(exc)) from exc
    except BlowUpError as exc:
        print(f"integration blew up: {exc}", file=sys.stderr)
        return 1
    if args.rezero is not None:
        idx = int(round((args.rezero - traj.t0) / traj.dt))
        if not 0 <= idx < traj.states.shape[0]:
            raise CliError("--rezero time outside the trajectory")
        traj = rezero(traj, idx)
        ctraj = decompose_trajectory(traj, basis)
    out = _out_dir(args)
    fileio.write_phase_csv(traj, out / "trajectory.csv")
    fileio.write_coefficient_csv(ctraj, out / "coefficients.csv")
    print(f"wrote trajectory.csv, coefficients.csv to {out}")
    return 0


def _cmd_predict(args) -> int:
    graph = _load_graph(args.graph)
    if args.mode is not None and not 1 <= args.mode < graph.n:
        raise CliError(f"--mode must be in 1..{graph.n - 1}")
    omega = _vector(args.omega, graph.n, "omega")
    beta = _vector(args.beta, graph.m, "beta") if args.beta else None
    system = _system(graph, omega, args.sigma, beta)
    basis = spectral_basis(graph)
    try:  # the model layer rejects a nonpositive --sigma
        pred = asymptotic_coefficients(system, basis)
        entries = discriminant_report(system, basis)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.mode is not None:
        entries = [entries[args.mode - 1]]
    report = {
        "sigma": args.sigma,
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "asymptotics": [
            {
                "mode": r,
                "omega_spec": float(pred.omega_spec[r]),
                "decay_rate": float(pred.decay_rates[r]),
                "alpha_inf": float(pred.alpha_inf[r]),
            }
            for r in range(1, graph.n)
        ],
        "discriminants": [
            {
                "mode": e.mode,
                "omega_r": e.omega_r,
                "x": e.x,
                "delta": e.delta,
                "classification": e.classification,
            }
            for e in entries
        ],
    }
    _emit_report(report, args)
    return 0


def _cmd_experiment(args) -> int:
    names = list(available_scenarios()) if args.name == "all" else [args.name]
    for name in names:
        if name not in available_scenarios():
            raise CliError(
                f"unknown scenario {name!r}; choose from {', '.join(available_scenarios())} or 'all'"
            )
    config = _load_json(args.config) if args.config else None
    for name in names:
        try:  # scenarios are pure functions of (config, seed)
            result = run_scenario(name, config=config, seed=args.seed, out_dir=args.out_dir)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status}")
        for assertion in result.assertions:
            mark = "ok" if assertion.passed else "FAIL"
            print(f"  [{mark}] {assertion.name}: {assertion.detail}")
    return 0


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
    ana.add_argument("--tol", type=float, default=1e-9)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
