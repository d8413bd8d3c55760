"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload lp-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a cutdepth checkout; the package is imported from
./src, nothing needs installing. One process, one caller, no threads: the
next cut is scored only after the previous result returns, and the BLAS
thread count is pinned before numpy loads.

--trace 0 times the untraced closed loop and prints the end-to-end metrics.
--trace 1 times rounds of fixed work with tracing off and on in turn, and
prints the per-layer metrics of the traced rounds; the spans are written to
.bench_out/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it record the environment
and details of the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spec

ROOT = spec.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one caller and no threads: keep BLAS single-threaded (at most nproc)
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up repetitions per run, spread over the run; setup_s is their median
SETUP_SAMPLES = 20
SETUP_MIN_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def measure(workload, seconds: float):
    """Untraced run: one warm-up block, then blocks scored one after another
    until the next block would overrun `seconds` of scoring time (at least one
    block). Set-up repetitions are spread evenly over the run, outside the
    scoring time, so that setup_s samples the same machine state as the cuts.
    """
    from workloads import Tally

    ready = workload.setup()
    workload.score(ready, 0)
    tally, setup_times = Tally(), []
    blocks = 0
    next_setup = 0.0
    while True:
        if tally.seconds >= next_setup:
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
            next_setup += seconds / SETUP_SAMPLES
        tally.add(workload.score(ready, blocks % workload.num_blocks))
        blocks += 1
        if tally.seconds * (blocks + 1) / blocks > seconds:
            break
    while len(setup_times) < SETUP_MIN_SAMPLES:
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = sorted(tally.latencies_ms)
    tail = 90 if workload.latency_tail else 50
    metrics = {
        "cuts_per_s": tally.cuts / tally.seconds,
        "cut_ms_p50": percentile(latencies, 50),
        "cut_ms_p90": percentile(latencies, tail),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    detail = {
        "latency_samples": len(latencies),
        "cut_ms_p90_percentile": tail,
        "scoring_s": tally.seconds,
        "setup_samples": len(setup_times),
    }
    return ready, tally, metrics, detail


def run_round(workload, ready, blocks: int, tally, tracer=None) -> float:
    """One round of fixed work: the set-up (when the workload repeats it per
    round) and the first `blocks` blocks. Returns its wall seconds."""
    start = perf_counter()
    if workload.setup_in_round:
        if tracer is not None:
            tracer.cut_id = "setup"
        ready = workload.setup()
    for block in range(blocks):
        tally.add(workload.score(ready, block % workload.num_blocks, tracer))
    return perf_counter() - start


def measure_traced(workload, seconds: float, blocks: int):
    """Alternate untraced and traced rounds of the same work until the next
    pair would overrun `seconds`; at least one pair."""
    from tracer import Tracer, installed
    from workloads import Tally

    ready = workload.setup()
    workload.score(ready, 0)
    tally = Tally()
    untraced, traced, layers, rounds = [], [], [], []
    start = perf_counter()
    while True:
        untraced.append(run_round(workload, ready, blocks, tally))
        tracer = Tracer()
        cuts_before = tally.cuts
        origin = perf_counter()
        with installed(tracer):
            traced.append(run_round(workload, ready, blocks, tally, tracer))
        layers.append(tracer.layer_metrics(tally.cuts - cuts_before))
        rounds.append(tracer.dump(origin))
        elapsed = perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    detail = {
        "rounds": len(traced),
        "blocks_per_round": blocks,
        "untraced_round_s": statistics.median(untraced),
        "traced_round_s": statistics.median(traced),
    }
    return ready, tally, metrics, detail, rounds


def _openblas_version(numpy) -> str | None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository or git
    cannot tell."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when there is no git commit to name it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _installed_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(seed: int, numpy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _openblas_version(numpy),
        "scipy": _installed_version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cutdepth" / "__init__.py").is_file():
        print(f"error: no cutdepth package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    # numpy loads only after the pin; cutdepth, and the benchmark modules that
    # use it, import only once ./src is on the path
    sys.path.insert(0, str(SRC))
    import numpy

    import cutdepth
    import workloads

    if Path(cutdepth.__file__).resolve().parent != (SRC / "cutdepth").resolve():
        print(f"error: cutdepth imported from {cutdepth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = workloads.make(args.workload, args.seed, workdir)
    try:
        if args.trace:
            ready, tally, metrics, detail, rounds = measure_traced(
                workload, args.seconds, workload.trace_blocks
            )
            expected = spec.PER_LAYER
        else:
            ready, tally, metrics, detail = measure(workload, args.seconds)
            expected = spec.END_TO_END
        detail["blocks_scored_untimed"] = tally.complete(workload, ready)
        verdict = workload.check(ready, tally)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics["cli.report_bytes"] = verdict.detail.get("report_bytes", 0)
        metrics["failed_share"] = verdict.failed / verdict.attempted
    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} do not match spec.py", file=sys.stderr)
        return 2
    env = environment(args.seed, numpy)
    detail.update(verdict.detail)
    detail["problems"] = verdict.problems
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({"workload": args.workload, "environment": env, "detail": detail, "rounds": rounds}),
            encoding="utf-8",
        )
        detail["spans"] = str(spans_path.relative_to(ROOT))

    for name in expected:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {expected[name][0]}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": expected[name][0]} for name in expected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
