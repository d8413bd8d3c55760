"""Checks of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q

A short traced pass of every workload must record the layers that the table
in README.md assigns to it, BENCHMARK.json must match spec.py, and run.py
must refuse to run where the package sources are missing.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import cutdepth  # noqa: E402
from cutdepth import lp  # noqa: E402

# per-layer metrics that must be nonzero on each workload (README.md's table)
ASSIGNED = {
    "lp-dense": [
        "polyhedron.prepare_calls", "polyhedron.prepare_s", "linalg.calls", "linalg.s",
        "depth.assembly_s", "lp.solves", "lp.solves_per_cut", "lp.solve_s",
        "lp.tableau_bytes", "lp.status.optimal",
    ],
    "lp-tall": [
        "constructions.s", "depth.assembly_s", "lp.solves", "lp.solves_per_cut",
        "lp.solve_s", "lp.tableau_bytes", "lp.status.optimal",
    ],
    "lp-small": [
        "polyhedron.prepare_calls", "polyhedron.prepare_s", "depth.assembly_s",
        "lp.solves", "lp.solves_per_cut", "lp.solve_s", "lp.tableau_bytes",
        "lp.status.optimal", "lp.status.infeasible", "lp.status.unbounded",
    ],
    "cli-corner": [
        "files.load_s", "cli.self_s", "polyhedron.prepare_calls", "polyhedron.prepare_s",
        "linalg.calls", "linalg.s", "corner.build_calls", "corner.build_s",
        "corner.closed_form_s", "bounds.s",
    ],
}
# blocks per short traced round; lp-small needs many corners to meet every kind
SHORT_BLOCKS = {"lp-dense": 1, "lp-tall": 1, "lp-small": workloads.LpSmall.CORNERS, "cli-corner": 1}


@pytest.mark.parametrize("name", sorted(ASSIGNED))
def test_short_traced_pass_records_assigned_layers(name, tmp_path):
    workload = workloads.make(name, 1, tmp_path)
    try:
        ready, tally, metrics, _, rounds = run.measure_traced(workload, 0.0, SHORT_BLOCKS[name])
        verdict = workload.check(ready, tally)
    finally:
        workload.close()
    assert not verdict.problems
    assert rounds and rounds[0]
    assert metrics["trace.overhead"] > 0
    for metric in ASSIGNED[name]:
        assert metrics[metric] > 0, metric
    if name == "cli-corner":
        # the CLI rebuilds the corner once per cut
        assert metrics["corner.build_calls"] == workload.num_cuts * SHORT_BLOCKS[name]
    if name == "lp-small":
        # not-violated cuts solve a second, feasibility LP
        assert metrics["lp.solves_per_cut"] > 1


def test_tracing_restores_the_wrap_sites():
    before = {site: getattr(importlib.import_module(site[0]), site[1]) for site in tracer.WRAP_SITES}
    with tracer.installed(tracer.Tracer()):
        pass
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_tally_flags_a_repeat_that_changes_its_result():
    tally = workloads.Tally()
    tally.add([workloads.Call(0, 0, 0.001, 1, cutdepth.DepthResult.finite(1.0))])
    tally.add([workloads.Call(0, 0, 0.001, 1, cutdepth.DepthResult.finite(1.0))])
    assert not tally.changed
    tally.add([workloads.Call(0, 0, 0.001, 1, cutdepth.DepthResult.not_violated())])
    verdict = tally.verdict({(0, 0): 1}, [], {})
    # a cut counts once, however often the run repeated it
    assert verdict.problems and verdict.attempted == 1 and verdict.failed == 1


def test_verdict_covers_the_whole_corpus_once():
    class ThreeBlocks(workloads.Workload):
        num_blocks = 3

        def score(self, ready, block, tracer=None):
            return [workloads.Call(block, 0, 0.001, 2, cutdepth.DepthResult.finite(1.0))]

    corpus, tally = ThreeBlocks(), workloads.Tally()
    for _ in range(4):
        tally.add(corpus.score(None, 0))
    # blocks 1 and 2 were not reached in time; they are scored untimed
    assert tally.complete(corpus, None) == 2
    assert tally.cuts == 8
    verdict = tally.verdict({(2, 0): 1}, [], {})
    assert (verdict.attempted, verdict.failed) == (6, 1)


def test_tableau_bytes_follows_the_solver_layout():
    # row 0 is <= with a negative rhs, so it is negated into >= and needs an
    # artificial; row 1 is an equality; column 0 is free (two columns)
    program = lp.LinearProgram(
        np.zeros(2), np.ones((2, 2)), (lp.LESS_EQUAL, lp.EQUAL), np.array([-1.0, 1.0]),
        (lp.FREE, lp.NONNEGATIVE),
    )
    # 3 structural + 1 slack + 2 artificial + rhs columns, 2 rows, 8 bytes
    assert tracer.tableau_bytes(program) == 2 * 7 * 8


def test_benchmark_json_matches_spec():
    on_disk = json.loads((spec.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()
    assert set(spec.WORKLOADS) == set(workloads.WORKLOADS)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "lp-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
