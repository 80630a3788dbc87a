"""JSON and CSV formats shared by the CLI, the scenario harness, and tests.

Graph JSON:      {"n": int, "edges": [[i, j, w], ...]} with 0-indexed i < j.
Partition JSON:  {"assignment": [c_0, ..., c_{n-1}]}.
Trajectory CSV:  header "t,theta_0..theta_{n-1}" (or alpha_*).
Every CSV goes through write_table, which writes floats with 17
significant digits so every value round-trips bit-exactly.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph import WeightedGraph, VertexPartition
from .dynamics import Trajectory, CoefficientTrajectory, _one_trajectory

__all__ = [
    "save_graph",
    "load_graph",
    "save_partition",
    "load_partition",
    "write_table",
    "write_phase_csv",
    "write_coefficient_csv",
    "read_timeseries_csv",
    "load_vector",
]


def save_graph(g: WeightedGraph, path) -> None:
    payload = {"n": g.n, "edges": g.edges}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_graph(path) -> WeightedGraph:
    payload = json.loads(Path(path).read_text())
    return WeightedGraph(payload["n"], payload["edges"])


def save_partition(p: VertexPartition, path) -> None:
    payload = {"assignment": [int(c) for c in p.assignment]}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_partition(path) -> VertexPartition:
    payload = json.loads(Path(path).read_text())
    return VertexPartition(payload["assignment"])


def write_table(path, header, rows) -> None:
    """CSV with one header line: floats with 17 significant digits, any
    other cell with str. Each line is written as rows yields it; rows may be a generator."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_timeseries(path, times: np.ndarray, series: np.ndarray, prefix: str) -> None:
    _one_trajectory(series, "a trajectory CSV writer")
    # Python floats format faster than numpy scalars; one row at a time
    # keeps the memory of a whole-array tolist() away.
    header = ["t", *(f"{prefix}_{i}" for i in range(series.shape[1]))]
    write_table(path, header, ([t, *row.tolist()] for t, row in zip(times.tolist(), series)))


def write_phase_csv(traj: Trajectory, path) -> None:
    _write_timeseries(path, traj.times, traj.states, "theta")


def write_coefficient_csv(ctraj: CoefficientTrajectory, path) -> None:
    _write_timeseries(path, ctraj.times, ctraj.coeffs, "alpha")


def read_timeseries_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a trajectory CSV back as (times, values)."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0], raw[:, 1:]


def load_vector(spec: str, expected_len: int) -> np.ndarray:
    """Parse an expected_len-entry vector given inline as a JSON array or as a path to one."""
    text = spec.strip()
    if not text.startswith("["):
        text = Path(spec).read_text()
    vec = np.asarray(json.loads(text), dtype=float)
    if vec.ndim != 1:
        raise ValueError("expected a flat JSON array")
    if vec.size != expected_len:
        raise ValueError(f"expected {expected_len} entries, got {vec.size}")
    return vec
