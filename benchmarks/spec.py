"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of the metric names that run.py prints and
of BENCHMARK.json at the repository root. Regenerate that file with

    python3 benchmarks/spec.py

after changing anything here.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 20

WORKLOADS = {
    "lp-dense": "dense random bodies (270x60 full space, 500x100 with a 10-row hull): simplex pivots on tableaux near the L2 size",
    "lp-tall": "the paper's deep cone for n=9,10,11 (2^(n-1) rows on n columns): the m>>n shape, valid cut plus seeded tilts",
    "lp-small": "hundreds of tiny random corners scaled by 1e-8..1e8 through the standard-form LP: per-call overhead and scale robustness",
    "cli-corner": "cutdepth depth --in corner.json --out report.json on a 40x80 corner with 50 cuts: parsing, rebuilds, closed form, no LP",
}

# name -> (unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = {
    "cuts_per_s": ("1/s", "higher", 0.25),
    "cut_ms_p50": ("ms", "lower", 0.25),
    "cut_ms_p90": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# name -> (unit, better); reported by the traced run (--trace 1)
PER_LAYER = {
    "files.load_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "polyhedron.prepare_calls": ("count", "lower"),
    "polyhedron.prepare_s": ("s", "lower"),
    "linalg.calls": ("count", "lower"),
    "linalg.s": ("s", "lower"),
    "corner.build_calls": ("count", "lower"),
    "corner.build_s": ("s", "lower"),
    "corner.closed_form_s": ("s", "lower"),
    "depth.assembly_s": ("s", "lower"),
    "lp.solves": ("count", "lower"),
    "lp.solves_per_cut": ("ratio", "lower"),
    "lp.solve_s": ("s", "lower"),
    "lp.tableau_bytes": ("computed_bytes", "lower"),
    "lp.status.optimal": ("count", "higher"),
    "lp.status.infeasible": ("count", "lower"),
    "lp.status.unbounded": ("count", "lower"),
    "bounds.s": ("s", "lower"),
    "constructions.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "failed_share": ("share", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
