"""One workload in one fresh process; started by run.py.

Prints one JSON line: the monotonic time at which set-up ended and, unless
--setup-only, the rounds it ran (specsync seconds, mean calibration time
before and after the round, operations attempted and failed), the failures
seen, the peak resident set size during the first round and, with
--trace 1, the per-layer metrics. The span file goes next to --out.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np  # noqa: F401  (part of set-up: import cost users pay)

import specsync  # noqa: F401

import workloads
from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**32, out)
    ready = time.monotonic()
    if args.setup_only:
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps({"ready": ready}))
        return 0

    # Imported after set-up so that its fixed inputs are not part of setup_s.
    import calibration

    before = calibration.measure()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    rounds, failures, unexpected = [], {}, []
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        begin = time.perf_counter()
        rnd = workloads.Round(tracer)
        try:
            workload.run(rnd)
        except workloads.RoundFailure as exc:
            unexpected.append(str(exc))
        if peak_rss_mb is None:
            # Later rounds only add allocator fragmentation from repeating.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        after = calibration.measure()
        rounds.append({"run_s": rnd.seconds, "calibration_s": (before + after) / 2,
                       "attempted": rnd.attempted, "failed": len(rnd.failed) + len(rnd.known)})
        before = after
        failures.update({k: f"known fault: {v}" for k, v in rnd.known.items()})
        failures.update(rnd.failed)
        unexpected += [f"{k}: {v}" for k, v in rnd.failed.items()]
        if tracer is not None:
            tracer.rounds += 1
            tracer.run_s += rnd.seconds
        now = time.perf_counter()
        # Start another round only if it can end before the deadline.
        if unexpected or now + (now - begin) > deadline:
            break

    result = {
        "ready": ready,
        "rounds": rounds,
        "failures": failures,
        "unexpected": sorted(set(unexpected)),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        tracer.dump(out.parent / f"trace-{args.workload}-{args.seed}.tsv")
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
