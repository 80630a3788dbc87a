"""The machine's speed, measured by fixed reference kernels apart from specsync.

The 2-core VM this benchmark was built on ran the same work up to twice as
slowly for minutes at a time, with process CPU time equal to wall time and
no steal time reported, so no clock of the process can see past it. Over
two sets of ten runs the raw wall time of a workload spread by 12-32 %
between runs of identical inputs. worker.py therefore times these kernels
before the first round and after every round, and run.py reports each
round's specsync time scaled by REFERENCE_S over the mean calibration time
around that round: seconds on a machine whose calibration takes
REFERENCE_S. Over 58 rounds of cli_pipeline, medians of four rounds
spread 28.7 % in raw wall time and 5.6 % scaled.

The kernels stand for the kinds of work specsync does: a gather, sin and
bincount over 16k edges (the vertex right-hand side), a loop of small
numpy updates (the per-step overhead of RK4), a dense symmetric eigensolve
(spectral bases) and 17-digit float formatting (CSV output). They use
fixed inputs and no specsync code, so a change to specsync does not move
them.
"""
from __future__ import annotations

import time

import numpy as np

# Calibration time of a quiet minute on the machine of the reference
# figures in README.md; it only sets the unit, not the spread.
REFERENCE_S = 0.40

_rng = np.random.default_rng(0)
_phase = _rng.random(180)
_w = _rng.random(16110)
_ei = _rng.integers(0, 180, 16110)
_ej = (_ei + 1) % 180
_sym = _rng.random((200, 200))
_sym = _sym + _sym.T
_rows = _rng.random((4000, 30))


def measure() -> float:
    """Seconds the four reference kernels take, one after the other."""
    start = time.perf_counter()
    for _ in range(400):
        s = _w * np.sin(_phase[_ei] - _phase[_ej])
        np.bincount(_ei, weights=s, minlength=180)
    y = np.zeros(6)
    for _ in range(50000):
        y = y + 0.001 * np.sin(y)
    for _ in range(16):
        np.linalg.eigh(_sym)
    for row in _rows:
        ",".join(f"{v:.17g}" for v in row)
    return time.perf_counter() - start
