"""specsync benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; specsync is imported from src/.
Every process runs with one BLAS/OpenMP thread (BLAS_THREADS below): with
OpenBLAS's default of one thread per core, a spinning second thread added
CPU time and peak memory without shortening the small workloads.

The command first times SETUP_SAMPLES fresh processes that only set up
(interpreter start, imports, configs, scratch directory), then runs the
workload in one fresh process for whole rounds until another round would
end after S seconds. run_s is scaled to a reference machine speed by the
calibration kernels the workload process times around every round (see
calibration.py). The last line of standard output is one JSON object:
correctness, operations attempted and failed, and the metrics (end-to-end
with --trace 0, per layer with --trace 1).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 19
WORKLOADS = ("hierarchy", "partition_analysis", "cli_pipeline")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py to completion; returns (monotonic start, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return start, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specsync" / "__init__.py").is_file():
        sys.stderr.write(f"no specsync sources under {ROOT / 'src'}\n")
        return 2
    out = HERE / "out"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_run(tag):
        scratch = out / f"{args.workload}-{os.getpid()}-{tag}"
        start, res = spawn([*common, "--seconds", "0", "--out", str(scratch), "--setup-only"],
                           timeout=120)
        return res["ready"] - start

    # The first set-up compiles bytecode into src/; users pay that once.
    setup_run("warm")
    setups = [setup_run(i) for i in range(SETUP_SAMPLES)]
    start, res = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out", str(out / f"{args.workload}-{os.getpid()}")],
                       timeout=args.seconds + 100)
    setups.append(res["ready"] - start)

    rounds = res["rounds"]
    for label, reason in sorted(res["failures"].items()):
        print(f"failed: {label}: {reason}")
    raw_run_s = statistics.median(r["run_s"] for r in rounds)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(
                r["run_s"] * REFERENCE_S / r["calibration_s"] for r in rounds), "unit": "s"},
            # Unscaled: process start and imports did not follow the
            # calibration kernels' speed from run to run.
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(rounds)} rounds, wall time per round "
          f"{[round(r['run_s'], 4) for r in rounds]}, calibration around each "
          f"{[round(r['calibration_s'], 4) for r in rounds]}, BLAS threads {BLAS_THREADS}")
    print(f"{args.workload} unscaled run_s {raw_run_s:.6g} s "
          f"(scaled by {REFERENCE_S} s over the calibration around each round)")
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
