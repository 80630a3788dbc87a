"""JSON and CSV formats shared by the CLI, the scenario harness, and tests.

Graph JSON:      {"n": int, "edges": [[i, j, w], ...]} with 0-indexed i < j.
Partition JSON:  {"assignment": [c_0, ..., c_{n-1}]}.
Trajectory CSV:  header "t,theta_0..theta_{n-1}" (or alpha_*).
Every float cell is its '%.17g' text, 17 significant digits, so every
value round-trips bit-exactly. Scenario tables go through write_table,
one Python format per value. Trajectory CSVs go through _format_cells,
which makes the same bytes for whole blocks of cells with numpy and
hands to '%' only the cells it cannot show exactly.
"""
from __future__ import annotations

import functools
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
    """CSV with one header line: floats as '%.17g', any other cell with
    str, one Python format per value, so mixed-type rows keep their types.
    Each line is written as rows yields it; rows may be a generator."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


# _format_cells works on a 32-byte row per cell. Bytes 3..19 hold the 17
# digits, 4..19 as four aligned uint32 groups of 4, then ".", "e", "0", the
# sign ("-" or empty), the exponent "0ddd" as one aligned uint32, its sign
# and the separator. A zero byte is padding and never reaches the file.
_D0, _DOT, _E, _ZERO, _SIGN, _EXP, _ESIGN, _SEP = 3, 20, 21, 22, 23, 24, 28, 29
_SLOT = 25  # output bytes per cell: the longest text, "-1.2345678901234567e-100", and a separator
# Cell classes: scientific with a 2- or 3-digit exponent, fixed notation for
# decimal exponent k = -4..16 at _FIXED + k ('%g' switches to scientific
# outside -4 <= k < 17), zero, and the cells left to '%'.
_SCI2, _SCI3, _FIXED, _ZERO_CLASS, _SLOW = 0, 1, 6, 23, 24
_K_MAX = 275  # 10^(16 - k) is tabled for |k| <= _K_MAX
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_BLOCK_CELLS = 8192


def _layout(cls: int) -> list[int]:
    """Working-row bytes of one cell's full-length text, in order."""
    digits = list(range(_D0, _D0 + 17))
    if cls == _ZERO_CLASS:
        return [_SIGN, _ZERO]
    if cls <= _SCI3:
        exp = range(_EXP + 1 + (cls == _SCI2), _EXP + 4)
        return [_SIGN, _D0, _DOT, *digits[1:], _E, _ESIGN, *exp]
    k = cls - _FIXED
    if k >= 0:
        return [_SIGN, *digits[:k + 1], _DOT, *digits[k + 1:]]
    return [_SIGN, _ZERO, _DOT, *[_ZERO] * (-k - 1), *digits]


@functools.cache
def _format_tables():
    """Built on first use: 10^(16 - k) as hi + lo (hi split for Dekker's
    product), the 4-digit ASCII groups, trailing zeros per group, and each
    class's layout as (to, from, length) slice copies."""
    rows = []
    for k in range(-_K_MAX, _K_MAX + 1):
        num, den = (10**(16 - k), 1) if k <= 16 else (1, 10**(k - 16))
        hi = num / den  # int / int rounds correctly
        h_num, h_den = hi.as_integer_ratio()
        rows.append((hi, (num * h_den - h_num * den) / (den * h_den)))
    hi, lo = np.array(rows).T  # row _K_MAX + k holds 10^(16 - k)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    powers = np.column_stack([hi, hi_h, hi - hi_h, lo])
    quads = ["%04d" % i for i in range(10000)]
    digits = np.frombuffer("".join(quads).encode(), np.uint32)
    zeros = np.array([4 - len(q.rstrip("0")) for q in quads])
    copies = []
    for cls in range(_SLOW):
        runs = []
        for to, src in enumerate(_layout(cls)):
            if runs and runs[-1][1] + runs[-1][2] == src:
                runs[-1][2] += 1
            else:
                runs.append([to, src, 1])
        copies.append(runs + [[_SLOT - 1, _SEP, 1]])
    return powers, digits, zeros, copies


def _floor_scaled(a: np.ndarray, k: np.ndarray, powers: np.ndarray):
    """(floor, fraction) of a * 10^(16 - k), with the product exact to about
    1e-15 absolute: Dekker's two-product of a and hi, plus a * lo."""
    hi, hi_h, hi_l, lo = powers[_K_MAX + k].T
    p = a * hi
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    r = (((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l) + a * lo
    f = np.floor(r)
    # p is an integer whenever the result is near [10^16, 10^17): doubles
    # from 2^53 up are integers.
    return p.astype(np.int64) + f.astype(np.int64), r - f


def _format_cells(block: np.ndarray) -> str:
    """'%.17g' text of a 2-D float block: cells joined by "," and each row
    ended by a newline, byte for byte what '%' makes.

    With k = floor(log10 |x|), D = round(|x| 10^(16 - k)) is the 17-digit
    significand; k is corrected once where log10 rounds across a power of
    ten. A D that rounds up to 10^17 moves to the next decade, as '%g'
    does. Digits come from a 4-digit lookup table, trailing zeros and a
    bare point are blanked, and each class of cells is laid out by slice
    copies. '%' itself formats the cells this path cannot show exactly:
    non-finite values, |x| outside [1e-270, 1e270] (subnormals among them),
    a fraction within 1e-6 of a rounding tie (round-half-even needs the
    exact value), and any D still outside [10^16, 10^17).
    """
    powers, digits, zeros, copies = _format_tables()
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-270) & (a <= 1e270)
    zero = x == 0
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _floor_scaled(a, k, powers)
    off = (d < 10**16).astype(np.int64) - (d >= 10**17)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] -= off[redo]
        d[redo], frac[redo] = _floor_scaled(a[redo], k[redo], powers)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < 1e-6) | (d < 10**16) | (d >= 10**17)
    d += frac >= 0.5
    up = d == 10**17
    d[up] = 10**16
    k += up

    lead, rest = np.divmod(d, 10**16)
    top, low = np.divmod(rest, 10**8)
    groups = [*np.divmod(top, 10**4), *np.divmod(low, 10**4)]
    work = np.zeros((x.size, 32), np.uint8)
    work32 = work.view(np.uint32)
    for i, g in enumerate(groups):
        work32[:, 1 + i] = digits[g]
    work[:, _D0] = lead + ord("0")
    work[:, _E] = ord("e")
    work[:, _ZERO] = ord("0")
    work[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    work32[:, _EXP // 4] = digits[np.abs(k)]
    work[:, _ESIGN] = (k < 0) * np.uint8(2) + np.uint8(ord("+"))
    sep = work[:, _SEP].reshape(block.shape)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")

    fixed = (k >= -4) & (k <= 16)
    cls = np.where(fixed, k + _FIXED, _SCI2 + (np.abs(k) >= 100)).astype(np.uint8)
    cls[zero] = _ZERO_CLASS
    cls[slow] = _SLOW
    # Digits before the point always print; after it, trailing zeros and a
    # point with nothing behind it are blanked.
    trailing = zeros[groups[3]]
    more = groups[3] == 0
    for g in groups[2::-1]:
        trailing += more * zeros[g]
        more &= g == 0
    whole = np.where(fixed, np.maximum(k + 1, 0), 1)
    shown = 17 - trailing
    work[:, _DOT] = (shown > whole) * np.uint8(ord("."))
    keep = np.maximum(shown, whole)
    short = np.flatnonzero(keep < 17)
    work[short, _D0:_D0 + 17] *= np.arange(17) < keep[short, None]

    # Sort cells by class so each class is one run of rows; rows move as
    # single void items, which numpy copies far faster than byte columns.
    order = np.argsort(cls, kind="stable")
    ends = np.cumsum(np.bincount(cls, minlength=_SLOW + 1)).tolist()
    src = work.view("V32").ravel()[order].view(np.uint8).reshape(work.shape)
    out = np.zeros((x.size, _SLOT), np.uint8)
    start = 0
    for c, end in enumerate(ends[:_SLOW]):
        if end > start:
            for to, at, n in copies[c]:
                out[start:end, to:to + n] = src[start:end, at:at + n]
        start = end
    if start < x.size:
        text = ["%.17g" % v for v in x[order[start:]].tolist()]
        out[start:, :_SLOT - 1] = np.array(text, "S24").view(np.uint8).reshape(-1, _SLOT - 1)
        out[start:, -1] = src[start:, _SEP]
    cells = np.empty(x.size, "V25")
    cells[order] = out.view("V25").ravel()
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _write_timeseries(path, times: np.ndarray, series: np.ndarray, prefix: str) -> None:
    _one_trajectory(series, "a trajectory CSV writer")
    header = ["t", *(f"{prefix}_{i}" for i in range(series.shape[1]))]
    # [times | series] in row blocks of at most _BLOCK_CELLS cells (one row
    # if a row is longer) keeps the kernel's temporaries at a few MB.
    rows = max(1, _BLOCK_CELLS // (series.shape[1] + 1))
    block = np.empty((rows, series.shape[1] + 1))
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(times), rows):
            part = block[:min(rows, len(times) - start)]
            part[:, 0] = times[start:start + rows]
            part[:, 1:] = series[start:start + rows]
            f.write(_format_cells(part))


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
