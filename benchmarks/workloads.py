"""The four seeded workloads: inputs, set-up, scoring and result checks.

Each workload makes all of its inputs from the seed, prepares its bodies in
`setup` (the work `setup_s` times), and scores cuts one block at a time in
`score`, calling cutdepth only through its public functions. A block is a
fixed group of calls; the closed loop in run.py repeats blocks until its time
is up, so every block keeps the mix of cheap and expensive calls that the
latency percentiles rely on. `check` compares every result against a
reference computed after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import cutdepth
import cutdepth.cli.files
import cutdepth.cli.main
from cutdepth import AffineSpace, Cut, DepthKind, DepthResult, HPolyhedron, StandardFormModel
from cutdepth.cli.suites import random_corner

# relative tolerance for values checked against an independent reference
VALUE_RTOL = 1e-6


@dataclass
class Call:
    """One timed call: `cuts` cuts scored in `seconds`."""

    block: int
    index: int
    seconds: float
    cuts: int
    output: object


@dataclass
class Verdict:
    """Outcome of checking a run.

    attempted/failed count cuts; a failed cut raised or returned a wrong
    result. problems lists run-level faults (a reference that could not be
    computed, or a repeated cut whose answer changed, report bytes included);
    any problem makes the run's `correct` false.
    """

    attempted: int
    failed: int
    problems: list
    detail: dict


def _timed(fn, *args):
    """(seconds, result) of one library call; an exception it raises is the
    result, so that the check counts the cut as failed."""
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed cut
        result = exc
    return perf_counter() - start, result


def _same_result(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if not isinstance(a, DepthResult):
        return a == b
    if a.kind != b.kind or a.value != b.value:
        return False
    for x, y in ((a.point, b.point), (a.ray, b.ray)):
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
            return False
    return True


class Tally:
    """What a run scored.

    Keeps every call's latency, but the output only of the first call of each
    cut (block, index), so memory does not grow with throughput. A repeat
    whose output differs from the first is recorded in `changed`.

    The verdict counts each distinct cut of the seed's corpus once, so
    `attempted` and `failed` depend on the seed alone, not on how many
    repeats the run's time allowed.
    """

    def __init__(self):
        self.latencies_ms = array("d")
        self.cuts = 0
        self.seconds = 0.0
        self.first: dict[tuple, Call] = {}
        self.changed: list[tuple] = []

    def add(self, calls: list[Call]) -> None:
        for call in calls:
            self.latencies_ms.append(1e3 * call.seconds / call.cuts)
            self.cuts += call.cuts
            self.seconds += call.seconds
            self.record(call)

    def record(self, call: Call) -> None:
        """Keep the output of a call (timed or not) for the check."""
        key = (call.block, call.index)
        if key not in self.first:
            self.first[key] = call
        elif not _same_result(self.first[key].output, call.output):
            self.changed.append(key)

    def complete(self, workload, ready) -> int:
        """Score, untimed, every block of the corpus that the timed loop did
        not reach, so that the check sees every cut. Returns the number of
        blocks scored."""
        reached = {key[0] for key in self.first}
        missing = [block for block in range(workload.num_blocks) if block not in reached]
        for block in missing:
            for call in workload.score(ready, block):
                self.record(call)
        return len(missing)

    def verdict(self, wrong: dict, problems: list, detail: dict) -> Verdict:
        """Verdict given the number of wrong cuts in the first call of each key."""
        problems = [f"cut {key} changed its result on a repeat" for key in self.changed] + problems
        attempted = sum(call.cuts for call in self.first.values())
        return Verdict(attempted, sum(wrong.values()), problems, detail)


class Workload:
    """Constructed from a seed and a directory it may write files to."""

    name = ""
    # blocks scored by one traced round
    trace_blocks = 1
    # whether a traced round repeats the set-up (false when the program under
    # test does its own set-up on every call)
    setup_in_round = True
    # whether a run makes enough calls (100 or more) for its p90 to have ten
    # samples beyond it; without, cut_ms_p90 reports the median like cut_ms_p50
    latency_tail = True

    def setup(self):
        raise NotImplementedError

    @property
    def num_blocks(self) -> int:
        raise NotImplementedError

    def score(self, ready, block: int, tracer=None) -> list[Call]:
        raise NotImplementedError

    def check(self, ready, tally: Tally) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        """Release files the workload wrote."""


# -- inequality-form bodies scored by cut_depth ------------------------------


def _highs_depth(body, cut):
    """Depth LP solved by SciPy's HiGHS: (kind, value) or None without SciPy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    n = body.dim
    objective = np.zeros(n + 1)
    objective[n] = -1.0
    A_ub = np.vstack(
        [np.column_stack([body.normals, np.ones(body.num_rows)]), np.append(cut.coeffs, 0.0)]
    )
    b_ub = np.append(body.offsets, cut.rhs)
    p = body.space.num_equalities
    A_eq = np.column_stack([body.space.A, np.zeros(p)]) if p else None
    b_eq = body.space.b if p else None
    bounds = [(None, None)] * n + [(0.0, None)]
    res = linprog(objective, A_ub, b_ub, A_eq, b_eq, bounds=bounds, method="highs")
    if res.status == 0:
        return DepthKind.FINITE, -float(res.fun)
    if res.status == 2:
        return DepthKind.NOT_VIOLATED, None
    if res.status == 3:
        return DepthKind.UNBOUNDED, None
    raise RuntimeError(f"HiGHS stopped with status {res.status}: {res.message}")


def _certified(body, cut, result) -> bool:
    """Point certificate: the returned point has depth >= value and lies on
    or behind the cut."""
    tol = VALUE_RTOL * max(1.0, result.value)
    try:
        depth = cutdepth.point_depth(body, result.point)
    except cutdepth.CutDepthError:
        return False
    return depth >= result.value - tol and float(cut.coeffs @ result.point) <= cut.rhs + tol


class _InequalityWorkload(Workload):
    """Bodies in inequality form; blocks of (body index, cut) pairs, all of
    whose depths are finite by construction."""

    def __init__(self):
        self.blocks: list[list[tuple[int, Cut]]] = []

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def score(self, ready, block, tracer=None):
        calls = []
        for index, (body, cut) in enumerate(self.blocks[block]):
            if tracer is not None:
                tracer.cut_id = f"{block}.{index}"
            seconds, result = _timed(cutdepth.cut_depth, ready[body], cut)
            calls.append(Call(block, index, seconds, 1, result))
        return calls

    def _window(self, body: int, cut: Cut):
        """(low, high) the value must lie in, or None."""
        return None

    def check(self, ready, tally):
        wrong, problems = {}, []
        highs_checked = 0
        for key, call in tally.first.items():
            body, cut = self.blocks[key[0]][key[1]]
            result = call.output
            ok = (
                not isinstance(result, Exception)
                and result.kind == DepthKind.FINITE
                and _certified(ready[body], cut, result)
            )
            if ok:
                window = self._window(body, cut)
                if window is not None:
                    ok = window[0] <= result.value <= window[1]
            try:
                reference = _highs_depth(ready[body], cut)
            except RuntimeError as exc:
                problems.append(f"cut {key}: {exc}")
                reference = None
            if reference is not None:
                highs_checked += 1
                kind, value = reference
                ok = ok and kind == result.kind
                if ok and value is not None:
                    ok = abs(result.value - value) <= VALUE_RTOL * max(1.0, abs(value))
            wrong[key] = int(not ok)
        return tally.verdict(wrong, problems, {"highs_checked": highs_checked})


def _dense_body(rng, rows: int, n: int, hull: int):
    """Random rows a_i @ x <= b_i around an interior point x0, plus the box
    [-1, 1]^n; with a hull, x0 lies on L x = L x0."""
    x0 = rng.uniform(-0.3, 0.3, n)
    k = rows - 2 * n
    A = rng.standard_normal((k, n))
    b = A @ x0 + np.linalg.norm(A, axis=1) * rng.uniform(0.2, 1.0, k)
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.ones(2 * n)])
    if hull:
        L = rng.standard_normal((hull, n))
        return (A, b, L, L @ x0), x0
    return (A, b, None, None), x0


def _cut_off(rng, x0):
    """A cut that removes the interior point x0, so its depth is finite."""
    a = rng.standard_normal(x0.shape[0])
    return Cut(a, float(a @ x0) + float(np.linalg.norm(a)) * rng.uniform(0.05, 0.5))


class LpDense(_InequalityWorkload):
    """Dense random bodies. Each block scores one cut on a 500x100 body with
    a 10-row hull and four on a 270x60 body, so that p50 falls among the
    small-body calls and p90 among the large-body ones. Blocks cycle over
    several bodies of each shape, which averages out how hard one random
    body happens to be."""

    name = "lp-dense"
    LARGE = (500, 100, 10)  # rows (with the box rows), columns, hull rows
    SMALL = (270, 60, 0)
    LARGE_BODIES = 3
    SMALL_BODIES = 6
    SMALL_CUTS_PER_BLOCK = 4
    NUM_BLOCKS = 12
    trace_blocks = 6

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.arrays = []
        centers = []
        for shape, count in ((self.LARGE, self.LARGE_BODIES), (self.SMALL, self.SMALL_BODIES)):
            for _ in range(count):
                arrays, x0 = _dense_body(rng, *shape)
                self.arrays.append(arrays)
                centers.append(x0)
        for i in range(self.NUM_BLOCKS):
            large = i % self.LARGE_BODIES
            small = self.LARGE_BODIES + i % self.SMALL_BODIES
            block = [(large, _cut_off(rng, centers[large]))]
            block += [
                (small, _cut_off(rng, centers[small]))
                for _ in range(self.SMALL_CUTS_PER_BLOCK)
            ]
            self.blocks.append(block)

    def setup(self):
        bodies = []
        for A, b, L, xi in self.arrays:
            space = AffineSpace.full_space(A.shape[1]) if L is None else AffineSpace(L, xi)
            bodies.append(cutdepth.normalize(HPolyhedron(A, b, space)))
        return bodies


class LpTall(_InequalityWorkload):
    """The deep cone of the paper for n = 11, 10, 9. Each block scores one
    cut on n=11, four on n=10 and fifteen on n=9, so p50 falls among the
    n=9 calls and p90 among the n=10 ones. Block 0 starts each cone with its
    valid cut -x1 >= 0; every other cut is a seeded tilt of it."""

    name = "lp-tall"
    EPSILON = 1e-4
    DIMS = (11, 10, 9)
    CUTS_PER_BLOCK = (1, 4, 15)
    NUM_BLOCKS = 4
    trace_blocks = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        for i in range(self.NUM_BLOCKS):
            block = []
            for body, (n, count) in enumerate(zip(self.DIMS, self.CUTS_PER_BLOCK)):
                for j in range(count):
                    block.append((body, self._valid_cut(n) if i == j == 0 else self._tilt(rng, n)))
            self.blocks.append(block)

    @staticmethod
    def _valid_cut(n: int) -> Cut:
        coeffs = np.zeros(n)
        coeffs[0] = -1.0
        return Cut(coeffs, 0.0)

    @staticmethod
    def _tilt(rng, n: int) -> Cut:
        coeffs = rng.uniform(-0.2, 0.2, n)
        coeffs[0] = -1.0
        return Cut(coeffs, rng.uniform(-0.5, 0.0))

    def setup(self):
        return [
            cutdepth.normalize(cutdepth.depth_lower_bound_cone(n, self.EPSILON).polyhedron)
            for n in self.DIMS
        ]

    def _window(self, body, cut):
        n = self.DIMS[body]
        if cut.rhs != 0.0 or np.count_nonzero(cut.coeffs) != 1:
            return None
        target = math.sqrt(3.0 + n) / 2.0
        return target - 10.0 * self.EPSILON, target + 1e-7


# -- tiny corners through the standard-form LP ---------------------------------


class LpSmall(Workload):
    """suites.random_corner instances, each given as a StandardFormModel with
    b = t * f and cut rhs t * beta for a scale t in SCALES. Depth is
    positively homogeneous, so the reference is the closed form on the
    unscaled corner, with the same kind and t times the value.

    The scale follows (i + i // 5) % 5 rather than i % 5: random_corner
    empties every fifth corner, and the plain cycle would give every empty
    corner the same scale.
    """

    name = "lp-small"
    CORNERS = 300
    SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
    trace_blocks = CORNERS

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.corners = [random_corner(rng, i) for i in range(self.CORNERS)]
        self.scales = [self.SCALES[(i + i // 5) % 5] for i in range(self.CORNERS)]
        self.cuts = []
        for corner, t in zip(self.corners, self.scales):
            m = corner.data.num_basic
            self.cuts.append(
                [
                    Cut(np.concatenate([np.zeros(m), cut.coeffs]), t * cut.rhs)
                    for cut, _ in corner.cuts
                ]
            )

    @property
    def num_blocks(self) -> int:
        return self.CORNERS

    def setup(self):
        models = []
        for corner, t in zip(self.corners, self.scales):
            m, n = corner.data.num_basic, corner.data.num_nonbasic
            space = AffineSpace(np.hstack([np.eye(m), -corner.data.tableau]), t * corner.data.base_point)
            lower = np.concatenate([np.full(m, -math.inf), np.zeros(n)])
            models.append(StandardFormModel(space, lower, np.full(m + n, math.inf)))
        return models

    def score(self, ready, block, tracer=None):
        calls = []
        for index, cut in enumerate(self.cuts[block]):
            if tracer is not None:
                tracer.cut_id = f"{block}.{index}"
            seconds, result = _timed(cutdepth.cut_depth_standard_form, ready[block], cut)
            calls.append(Call(block, index, seconds, 1, result))
        return calls

    def check(self, ready, tally):
        wrong, problems = {}, []
        by_scale = {f"{t:g}": [0, 0] for t in self.SCALES}
        for block in sorted({key[0] for key in tally.first}):
            corner, t = self.corners[block], self.scales[block]
            cone = cutdepth.build_corner(corner.data)
            for index, (cut, tag) in enumerate(corner.cuts):
                key = (block, index)
                if key not in tally.first:
                    continue
                closed = cutdepth.corner_cut_depth(cone, cut)
                if closed.kind.value != tag:
                    problems.append(f"corner {block} cut {index}: closed form {closed.kind.value}, generator {tag}")
                result = tally.first[key].output
                ok = not isinstance(result, Exception) and result.kind == closed.kind
                if ok and closed.is_finite:
                    ok = abs(result.value - t * closed.value) <= VALUE_RTOL * t * max(1.0, closed.value)
                wrong[key] = int(not ok)
                tally_of_scale = by_scale[f"{t:g}"]
                tally_of_scale[0] += wrong[key]
                tally_of_scale[1] += 1
        return tally.verdict(wrong, problems, {"failed_by_scale": by_scale})


# -- the CLI on a corner file ---------------------------------------------------


class CliCorner(Workload):
    """`cutdepth depth --in corner.json --out report.json` run in-process on
    a seeded 40x80 corner with 50 intersection cuts. The auto method picks
    the closed form, so no LP runs. Each call is one block of 50 cuts."""

    name = "cli-corner"
    BASIC, NONBASIC = 40, 80
    EXTRA_CUTS = 10  # two-row aggregations on top of one cut per row
    trace_blocks = 2
    setup_in_round = False
    latency_tail = False  # 10 to 21 main() calls in a 20-second run

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        tableau = rng.integers(-16, 17, (self.BASIC, self.NONBASIC)) / 8.0
        base = rng.integers(-16, 16, self.BASIC) + rng.integers(1, 8, self.BASIC) / 8.0
        rows = [(tableau[i], base[i]) for i in range(self.BASIC)]
        while len(rows) < self.BASIC + self.EXTRA_CUTS:
            i, j = rng.choice(self.BASIC, 2, replace=False)
            if (base[i] + base[j]) % 1.0 != 0.0:
                rows.append((tableau[i] + tableau[j], base[i] + base[j]))
        cuts = [
            {"alpha": list(map(float, self._rounding(r, f))), "beta": 1.0} for r, f in rows
        ]
        self.instance_path = workdir / "corner.json"
        self.report_path = workdir / "report.json"
        instance = {
            "polyhedron": {"f": base.tolist(), "R": tableau.tolist()},
            "cuts": cuts,
        }
        self.instance_path.write_text(json.dumps(instance), encoding="utf-8")
        self.num_cuts = len(cuts)
        self.argv = ["depth", "--in", str(self.instance_path), "--out", str(self.report_path)]

    @staticmethod
    def _rounding(row, value):
        """Intersection cut alpha @ s >= 1 from x = value + row @ s."""
        frac = value - math.floor(value)
        return np.where(row >= 0, row / (1.0 - frac), -row / frac)

    @property
    def num_blocks(self) -> int:
        return 1

    def setup(self):
        instance = cutdepth.cli.files.load_instance(str(self.instance_path))
        return instance, cutdepth.build_corner(instance.polyhedron)

    def score(self, ready, block, tracer=None):
        if tracer is not None:
            tracer.cut_id = f"{block}.main"
        seconds, code = _timed(cutdepth.cli.main.main, self.argv)
        output = code
        if code == 0:
            output = (code, self.report_path.read_bytes())
            self.report_path.unlink()
        elif not isinstance(code, Exception):
            output = (code, b"")
        return [Call(block, 0, seconds, self.num_cuts, output)]

    def check(self, ready, tally):
        instance, cone = ready
        (key, call), = tally.first.items()
        result = call.output
        if isinstance(result, Exception) or result[0] != 0:
            return tally.verdict({key: self.num_cuts}, [], {})
        report = result[1]
        records = json.loads(report)["cut_records"]
        wrong = abs(len(instance.cuts) - len(records))
        for record, cut in zip(records, instance.cuts):
            closed = cutdepth.corner_cut_depth(cone, cut)
            wrong += record["kind"] != closed.kind.value or record["value"] != closed.value
        detail = {"report_bytes": len(report), "report_sha256": hashlib.sha256(report).hexdigest()}
        return tally.verdict({key: wrong}, [], detail)

    def close(self):
        for path in (self.instance_path, self.report_path):
            path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (LpDense, LpTall, LpSmall, CliCorner)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
