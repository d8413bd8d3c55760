"""Spans and counts around calls into cutdepth's public functions.

The package binds imported names into each module's namespace, so a wrapper
only sees a call when it replaces the name at the module where the caller
looks it up. `WRAP_SITES` lists those lookup sites; `installed` swaps the
wrappers in for the duration of a traced round and restores the originals.

Spans stay in memory as (name, start, end, parent, cut id) and are written
out by the caller when the benchmark ends.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from cutdepth import lp

# (module, attribute) -> span name "<layer>.<function>"
WRAP_SITES = {
    ("cutdepth", "normalize"): "polyhedron.normalize",
    ("cutdepth", "cut_depth"): "depth.cut_depth",
    ("cutdepth", "cut_depth_standard_form"): "depth.cut_depth_standard_form",
    ("cutdepth", "build_corner"): "corner.build_corner",
    ("cutdepth", "corner_cut_depth"): "corner.corner_cut_depth",
    ("cutdepth", "depth_lower_bound_cone"): "constructions.depth_lower_bound_cone",
    ("cutdepth.cli.main", "main"): "cli.main",
    ("cutdepth.cli.main", "build_corner"): "corner.build_corner",
    ("cutdepth.cli.main", "corner_cut_depth"): "corner.corner_cut_depth",
    ("cutdepth.cli.main", "cut_depth"): "depth.cut_depth",
    ("cutdepth.cli.main", "cut_depth_standard_form"): "depth.cut_depth_standard_form",
    ("cutdepth.cli.main", "normalize"): "polyhedron.normalize",
    ("cutdepth.cli.main", "from_standard_form"): "polyhedron.from_standard_form",
    ("cutdepth.cli.main", "standard_form_model"): "corner.standard_form_model",
    ("cutdepth.cli.main", "intersection_cut_bound"): "bounds.intersection_cut_bound",
    ("cutdepth.cli.files", "load_instance"): "files.load_instance",
    ("cutdepth.corner", "from_standard_form"): "polyhedron.from_standard_form",
    ("cutdepth.corner", "solve_square"): "linalg.solve_square",
    ("cutdepth.polyhedron", "cholesky_factor"): "linalg.cholesky_factor",
    ("cutdepth.polyhedron", "cholesky_solve_factored"): "linalg.cholesky_solve_factored",
    ("cutdepth.depth", "bound_rows"): "polyhedron.bound_rows",
    ("cutdepth.lp", "solve"): "lp.solve",
}

# span names whose time (outermost spans only) makes up each layer metric
PREPARE = ("polyhedron.normalize", "polyhedron.from_standard_form", "polyhedron.bound_rows")
LINALG = ("linalg.cholesky_factor", "linalg.cholesky_solve_factored", "linalg.solve_square")
DEPTH = ("depth.cut_depth", "depth.cut_depth_standard_form")

_BYTES_PER_ENTRY = 8  # float64 tableau


def tableau_bytes(program) -> int:
    """Size of the dense tableau lp.solve builds for this program.

    Computed from the program's shape the way lp.solve lays it out: one
    column per nonnegative variable and two per free one, a slack per
    inequality row, an artificial per row that is not <= after rows with a
    negative right-hand side are negated, and the rhs column.
    """
    rows, cols = program.A.shape
    structural = cols + sum(d == lp.FREE for d in program.domains)
    slacks = artificials = 0
    for rel, rhs in zip(program.relations, program.rhs):
        if rel != lp.EQUAL:
            slacks += 1
        flipped = rhs < 0.0 and rel != lp.EQUAL
        if rel == lp.EQUAL or (rel == lp.GREATER_EQUAL) != flipped:
            artificials += 1
    return rows * (structural + slacks + artificials + 1) * _BYTES_PER_ENTRY


class Tracer:
    """Records spans and counts for one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_tableau_bytes = 0
        self.cut_id = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = self._observe_solve if name == "lp.solve" else None

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, self.cut_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self.counts[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_solve(self, args, outcome) -> None:
        self.counts[f"lp.status.{outcome.status.value}"] += 1
        self.max_tableau_bytes = max(self.max_tableau_bytes, tableau_bytes(args[0]))

    # -- summaries ---------------------------------------------------------

    def _outermost_time(self, names) -> float:
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def _self_time(self, names) -> float:
        names = set(names)
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] in names}
        for span in self.spans:
            if span[3] in own:
                own[span[3]] -= span[2] - span[1]
        return sum(own.values(), 0.0)

    def _calls(self, names) -> int:
        return sum(self.counts[n] for n in names)

    def layer_metrics(self, cuts: int) -> dict:
        """Per-layer numbers for a round that scored `cuts` cuts."""
        solves = self.counts["lp.solve"]
        return {
            "files.load_s": self._outermost_time(["files.load_instance"]),
            "cli.self_s": self._self_time(["cli.main"]),
            "polyhedron.prepare_calls": self._calls(PREPARE),
            "polyhedron.prepare_s": self._outermost_time(PREPARE),
            "linalg.calls": self._calls(LINALG),
            "linalg.s": self._outermost_time(LINALG),
            "corner.build_calls": self.counts["corner.build_corner"],
            "corner.build_s": self._outermost_time(["corner.build_corner"]),
            "corner.closed_form_s": self._outermost_time(["corner.corner_cut_depth"]),
            "depth.assembly_s": self._self_time(DEPTH),
            "lp.solves": solves,
            "lp.solves_per_cut": solves / cuts,
            "lp.solve_s": self._outermost_time(["lp.solve"]),
            "lp.tableau_bytes": self.max_tableau_bytes,
            "lp.status.optimal": self.counts["lp.status.optimal"],
            "lp.status.infeasible": self.counts["lp.status.infeasible"],
            "lp.status.unbounded": self.counts["lp.status.unbounded"],
            "bounds.s": self._outermost_time(["bounds.intersection_cut_bound"]),
            "constructions.s": self._outermost_time(
                ["constructions.depth_lower_bound_cone"]
            ),
        }

    def dump(self, origin: float) -> list:
        """Spans with times in seconds from `origin`, ready for JSON."""
        return [
            [name, start - origin, end - origin, parent, cut_id]
            for name, start, end, parent, cut_id in self.spans
        ]


@contextmanager
def installed(tracer: Tracer):
    """Replace every wrap site with a traced wrapper; restore on exit."""
    originals = []
    try:
        for (module_name, attr), span_name in WRAP_SITES.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
