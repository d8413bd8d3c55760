"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/ladder.py                      # every workload, seeds 1-10
    python3 benchmarks/ladder.py --workloads lp-tall --seeds 1-5
    python3 benchmarks/ladder.py --seeds 101-110 --out BENCH_confirm.json

Each (workload, seed) is one run.py process, run one after another. For every
metric the summary gives the median, the quartiles, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. Seeds 1-10 are the default; a confirmation run passes other
seeds (101-110 by convention), which stay unused while a change is being
written so that a claimed gain can be checked on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=spec.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("environment "):
            result["environment"] = json.loads(line[len("environment "):])
        elif line.startswith("detail "):
            result["detail"] = json.loads(line[len("detail "):])
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = spec.PER_LAYER if args.trace else spec.END_TO_END

    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        summary[workload] = {}
        for name, (unit, _better, *bound) in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            row = summarise(values, bound[0] if bound else None)
            summary[workload][name] = row
            limit = "" if row["bound"] is None else f"  bound {row['bound']:.2f}"
            print(f"{workload:10} {name:24} median {row['median']:<12.6g} {unit:14} "
                  f"spread {row['spread']:.4f}{limit}")
        failed = [r["failed"] for r in runs[workload]]
        correct = all(r["correct"] for r in runs[workload])
        print(f"{workload:10} correct={correct} failed per run {failed}", flush=True)
    if args.out:
        payload = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                   "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
