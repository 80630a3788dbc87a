"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--seconds S] [--save FILE] [--compare FILE]

Runs perfbench/run.py once per (seed, workload), seed by seed, so that a
slow drift of the machine touches every workload alike. For each workload
and metric it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, and the share of failed operations.
--save writes every run's result as JSON; --compare FILE prints, for each
metric, this set's median over the saved set's median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds(args.seeds):
        for w in workloads:
            start = time.monotonic()
            cmd = [*BENCHMARK["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.monotonic() - start
            runs[w].append(result)
            print(f"{w} seed {seed}: {time.monotonic() - start:.1f} s wall, correct "
                  f"{result['correct']}, failed {result['failed']}/{result['attempted']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if not k.startswith(("layer.", "trace.")) or args.trace),
                  flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    base = json.loads(Path(args.compare).read_text()) if args.compare else None
    for w, rs in runs.items():
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"\n{w}: {len(rs)} runs, all correct {all(r['correct'] for r in rs)}, "
              f"failed shares {sorted(shares)}")
        other = summary(base[w]) if base else {}
        for name, s in summary(rs).items():
            line = (f"  {name:34s} median {s['median']:.5g} {s['unit']}  "
                    f"Q1 {s['q1']:.5g}  Q3 {s['q3']:.5g}  spread {100 * s['spread']:.2f}%")
            if name in other:
                line += f"  vs saved median {100 * (s['median'] / other[name]['median'] - 1):+.2f}%"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
