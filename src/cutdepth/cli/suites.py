"""Verification suites behind the `verify` subcommands.

Each suite returns CheckRecord rows; the acceptance tests run the same
functions, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import lp
from ..bounds import Disjunction, split_depth_bound, split_point_depth_bound
from ..constructions import (
    depth_lower_bound_cone,
    max_distance_bruteforce,
    max_distance_greedy,
)
from ..corner import (
    CornerData,
    build_corner,
    corner_cut_depth,
    embed_cut_coeffs,
)
from ..depth import DepthKind, cut_depth, point_depth
from ..polyhedron import AffineSpace, Cut, HPolyhedron, normalize

DEFAULT_TOL = 1e-7


@dataclass
class CheckRecord:
    name: str
    passed: bool
    measured: float | None
    expected: float | None
    tolerance: float
    note: str = ""


@dataclass
class RandomCorner:
    data: CornerData
    cuts: list[tuple[Cut, str]] = field(default_factory=list)


def max_distance_suite(n_max: int = 10, tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """Exhaustive vs greedy maximum distance, one record per dimension.

    Checks that the two agree exactly, that both stay strictly below
    (n+1)/2, and that the simplified expression n/2 + (5 - 5*rho)/12 with
    rho = (n+1) mod 3 reproduces the maximum exactly when rho = 1 and only
    then.
    """
    records = []
    for n in range(2, n_max + 1):
        brute = max_distance_bruteforce(n)
        greedy = max_distance_greedy(n)
        rho = (n + 1) % 3
        simplified = n / 2.0 + (5.0 - 5.0 * rho) / 12.0
        matches = abs(simplified - brute) <= 1e-12
        ok = brute == greedy and brute < (n + 1) / 2.0 and matches == (rho == 1)
        records.append(
            CheckRecord(
                name=f"max-distance n={n}",
                passed=ok,
                measured=brute,
                expected=greedy,
                tolerance=0.0,
                note=(
                    f"strict bound {(n + 1) / 2.0}; simplified form "
                    f"{'matches' if matches else 'differs'} (rho={rho})"
                ),
            )
        )
    return records


def cone_suite(
    n_max: int = 6, epsilon: float = 1e-4, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Depth of the valid cut on the deep cone: within [target - 10*eps,
    target + tol] for target sqrt(3+n)/2."""
    records = []
    for n in range(2, n_max + 1):
        cone = depth_lower_bound_cone(n, epsilon)
        result = cut_depth(normalize(cone.polyhedron), cone.cut)
        target = math.sqrt(3.0 + n) / 2.0
        ok = (
            result.kind == DepthKind.FINITE
            and target - 10.0 * epsilon <= result.value <= target + tol
        )
        records.append(
            CheckRecord(
                name=f"deep-cone n={n}",
                passed=ok,
                measured=result.value if result.is_finite else None,
                expected=target,
                tolerance=tol,
                note=f"epsilon={epsilon}",
            )
        )
    return records


def random_corner(rng: np.random.Generator, index: int) -> RandomCorner:
    """Seeded corner with a bundle of cuts covering all outcome kinds.

    Tableau and base-point entries are eighths in [-2, 2]; the base point
    always keeps a fractional row with a nonzero tableau row, from which a
    single-row rounding cut (always valid, always finite depth) is built.
    A vacuous cut exercises the not-violated kind, and every fifth corner
    gets a zero tableau row with fractional base value, which empties the
    mixed-integer set so that a decreasing cut is legitimately unbounded.
    """
    m = int(rng.integers(1, 5))
    n = int(rng.integers(2, 7))
    while True:
        tableau = rng.integers(-16, 17, (m, n)) / 8.0
        base = rng.integers(-16, 17, m) / 8.0
        fractional = np.abs(base - np.round(base)) > 1e-9
        usable = fractional & (np.abs(tableau).max(axis=1) > 0)
        if usable.any():
            break
    row = int(rng.choice(np.nonzero(usable)[0]))
    make_empty = index % 5 == 0 and m >= 2
    if make_empty:
        other = (row + 1) % m
        tableau[other] = 0.0
        base[other] = math.floor(base[other]) + 0.5
    data = CornerData(base, tableau)

    frac = base[row] - math.floor(base[row])
    r = tableau[row]
    rounding = np.where(r >= 0, r / (1.0 - frac), -r / frac)
    cuts = [
        (Cut(rounding, 1.0), "finite"),
        (Cut(np.ones(n), -1.0), "not-violated"),
    ]
    if make_empty:
        down = np.zeros(n)
        down[0] = -1.0
        cuts.append((Cut(down, 1.0), "unbounded"))
    return RandomCorner(data, cuts)


def corner_equivalence_suite(
    count: int = 200, seed: int = 1, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Closed-form corner depth against the depth LP over the cone's own
    normalized body: kinds must agree and finite values match within tol."""
    rng = np.random.default_rng(seed)
    records = []
    for index in range(count):
        corner = random_corner(rng, index)
        cone = build_corner(corner.data)
        worst = 0.0
        kinds = []
        ok = True
        for cut, expected_kind in corner.cuts:
            closed = corner_cut_depth(cone, cut)
            full = Cut(embed_cut_coeffs(cone, cut.coeffs), cut.rhs)
            via_lp = cut_depth(cone.body, full)
            kinds.append(closed.kind.value)
            if closed.kind != via_lp.kind or closed.kind.value != expected_kind:
                ok = False
                continue
            if closed.kind == DepthKind.FINITE:
                gap = abs(closed.value - via_lp.value)
                worst = max(worst, gap)
                if gap > tol:
                    ok = False
        records.append(
            CheckRecord(
                name=f"corner[{index}] m={corner.data.num_basic} n={corner.data.num_nonbasic}",
                passed=ok,
                measured=worst,
                expected=0.0,
                tolerance=tol,
                note="kinds: " + ", ".join(kinds),
            )
        )
    return records


def _box_membership_program(
    lo: np.ndarray, hi: np.ndarray, d: Disjunction, x: np.ndarray
) -> lp.LinearProgram:
    """Feasibility of x in the hull of the two disjunction sides of a box.

    Splits x into y1 + y2 with y_k in t_k * side_k, t1 + t2 = 1; valid
    because boxes are bounded.
    """
    n = lo.shape[0]
    eye, zeros = np.eye(n), np.zeros((2 * n, n))
    box = np.vstack([eye, -eye])
    b_box = np.concatenate([hi, -lo])
    pi, high = d.coeffs[None, :], d.threshold + 1
    y = np.block(
        [
            [box, zeros],  # y1 within t * box
            [pi, zeros[:1]],  # and t * lower side
            [zeros, box],  # y2 within (1 - t) * box
            [zeros[:1], -pi],  # and (1 - t) * upper side
            [eye, eye],  # y1 + y2 = x
            [np.zeros((1, 2 * n))],  # t <= 1
        ]
    )
    t = np.concatenate([-b_box, [-d.threshold], b_box, [-high], np.zeros(n), [1.0]])
    rhs = np.concatenate([np.zeros(2 * n + 1), b_box, [-high], x, [1.0]])
    relations = (lp.LESS_EQUAL,) * (4 * n + 2) + (lp.EQUAL,) * n + (lp.LESS_EQUAL,)
    domains = (lp.FREE,) * (2 * n) + (lp.NONNEGATIVE,)
    return lp.LinearProgram(
        np.zeros(2 * n + 1), np.column_stack([y, t]), relations, rhs, domains
    )


def split_dominance_suite(
    count: int = 50,
    seed: int = 1,
    tol: float = DEFAULT_TOL,
    samples_per_box: int = 40,
) -> list[CheckRecord]:
    """Depth of cut-off points against the split bounds on random boxes.

    For each sampled point strictly between the disjunction sides and
    outside the hull of the two sides (checked by LP), the chain
    point depth <= per-point bound <= disjunction bound must hold within tol.
    """
    rng = np.random.default_rng(seed)
    records = []
    for index in range(count):
        n = int(rng.integers(2, 6))
        lo = rng.uniform(-3.0, 0.0, n)
        hi = lo + rng.uniform(0.3, 2.5, n)
        space = AffineSpace.full_space(n)
        body = normalize(
            HPolyhedron(
                np.vstack([np.eye(n), -np.eye(n)]),
                np.concatenate([hi, -lo]),
                space,
            )
        )
        while True:
            pi = rng.integers(-3, 4, n)
            if pi.any():
                break
        tested = 0
        worst_chain = -math.inf
        ok = True
        for _ in range(samples_per_box):
            x = rng.uniform(lo, hi)
            value = float(pi @ x)
            frac = value - math.floor(value)
            if min(frac, 1.0 - frac) <= 1e-6:
                continue
            d = Disjunction(pi, math.floor(value))
            member = lp.solve(_box_membership_program(lo, hi, d, x))
            if member.status == lp.LpStatus.OPTIMAL:
                continue  # x survives the disjunction, nothing to bound
            depth_x = point_depth(body, x)
            per_point = split_point_depth_bound(space, d, x)
            overall = split_depth_bound(space, d).value
            tested += 1
            worst_chain = max(worst_chain, depth_x - per_point, per_point - overall)
            if depth_x > per_point + tol or per_point > overall + tol:
                ok = False
        records.append(
            CheckRecord(
                name=f"split-box[{index}] n={n}",
                passed=ok,
                measured=(worst_chain if tested else None),
                expected=0.0,
                tolerance=tol,
                note=f"tested {tested} cut-off points, pi={pi.tolist()}",
            )
        )
    return records


SUITES = {
    "lemma-x": max_distance_suite,
    "cone": cone_suite,
    "corner-equivalence": corner_equivalence_suite,
    "split-dominance": split_dominance_suite,
}
