"""cutdepth command line.

Subcommands: depth, point-depth, bound {split,intersection,integer-hull},
verify {lemma-x,cone,corner-equivalence,split-dominance}, and
generate {cone,corner}. Exit codes: 0 success, 1 failed verification,
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from ..bounds import (
    Disjunction,
    integer_hull_depth_bound,
    integer_hull_depth_bound_weak,
    intersection_cut_bound,
    lattice_integer_hull_bound,
    split_depth_bound,
    steepest_edge_lengths,
)
from ..constructions import depth_lower_bound_cone
from ..corner import build_corner, corner_cut_depth, standard_form_model
from ..depth import DepthKind, cut_depth, from_standard_form, point_depth
# unused here: kept because benchmarks/tracer.py wraps cutdepth.cli.main.cut_depth_standard_form
from ..depth import cut_depth_standard_form  # noqa: F401
from ..errors import CutDepthError, InstanceError
from ..polyhedron import AffineSpace, Cut, NormalizedPolyhedron, normalize
from . import files, suites
from .files import CORNER, INEQUALITY, Instance

BOUND_TOL = 1e-7
# the verify options, passed to the suite by name
SUITE_OPTIONS = ("n_max", "epsilon", "count", "seed", "tol")


def _emit(payload: dict, out: str | None) -> None:
    if out:
        files.write_json(payload, out)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _report(payload: dict, out: str | None, rows: list[dict], columns: list[str]) -> None:
    """Write payload as a JSON report to out, or else print rows as a table."""
    if out:
        _emit(payload, out)
        return
    widths = {c: max([len(c), *(len(str(r.get(c, ""))) for r in rows)]) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))


def _depth_result_dict(result) -> dict:
    return {
        "kind": result.kind.value,
        "value": result.value,
        "point": None if result.point is None else result.point.tolist(),
        "ray": None if result.ray is None else result.ray.tolist(),
    }


def _intersection_bound(data, cut: Cut) -> tuple[float | None, str]:
    """The intersection-cut bound of a cut over a corner, or None and the
    reason the cut is not eligible."""
    m = data.num_basic
    if np.abs(cut.coeffs[:m]).max(initial=0.0) > 0:
        return None, "cut has coefficients on the basic variables"
    coeffs = cut.coeffs[m:]
    if cut.rhs <= 0:
        return None, "cut right-hand side is not positive"
    if coeffs.min() < 0:
        return None, "cut has negative coefficients"
    try:
        return intersection_cut_bound(data.tableau, coeffs / cut.rhs), ""
    except CutDepthError as exc:
        return None, str(exc)


def _cut_bounds(inst: Instance, cut: Cut) -> dict:
    if inst.kind == CORNER:
        value, _ = _intersection_bound(inst.polyhedron, cut)
        return {} if value is None else {"intersection": value}
    space = inst.polyhedron.space
    if space.num_equalities == 0 and space.dim >= 2:
        return {"integer-hull": integer_hull_depth_bound(space.dim)}
    return {}


def _body(inst: Instance) -> NormalizedPolyhedron:
    """The instance's normalized body, over (x, s) for a corner; its
    cut-free LP is solved once and shared by every cut."""
    if inst.kind == INEQUALITY:
        return normalize(inst.polyhedron)
    if inst.kind == CORNER:
        return from_standard_form(standard_form_model(inst.polyhedron))
    return from_standard_form(inst.polyhedron)


def cmd_depth(args) -> int:
    inst = files.load_instance(args.input)
    method = args.method
    if method == "auto":
        method = "closed-form" if inst.kind == CORNER else "lp"
    if method != "lp" and inst.kind != CORNER:
        raise InstanceError("closed-form depth requires a corner instance; use --method lp")
    primary = "lp" if method == "both" else method
    # built even without cuts, so that a malformed body is reported either way
    body = _body(inst) if primary == "lp" else None
    records = []
    disagreements = 0
    for index, cut in enumerate(inst.cuts):
        if body is None:
            result = corner_cut_depth(build_corner(inst.polyhedron), cut)
        else:
            result = cut_depth(body, cut)
        record = {"index": index, **_depth_result_dict(result)}
        bounds = _cut_bounds(inst, cut)
        record["bounds"] = bounds
        if result.kind == DepthKind.FINITE and bounds:
            record["bound_respected"] = all(
                result.value <= b + BOUND_TOL for b in bounds.values()
            )
        else:
            record["bound_respected"] = None
        if method == "both":
            other = corner_cut_depth(build_corner(inst.polyhedron), cut)
            agrees = other.kind == result.kind and (
                result.kind != DepthKind.FINITE
                or abs(other.value - result.value) <= BOUND_TOL
            )
            record["cross_check"] = {**_depth_result_dict(other), "agrees": agrees}
            if not agrees:
                disagreements += 1
        records.append(record)
    payload = {
        "command": "depth",
        "method": method,
        "instance": inst.raw,
        "cut_records": records,
    }
    rows = [
        {
            "cut": r["index"],
            "kind": r["kind"],
            "value": "" if r["value"] is None else f"{r['value']:.9g}",
            "bounds": ", ".join(f"{k}={v:.6g}" for k, v in r["bounds"].items()),
            "respected": r["bound_respected"],
        }
        for r in records
    ]
    _report(payload, args.out, rows, ["cut", "kind", "value", "bounds", "respected"])
    return 1 if disagreements else 0


def cmd_point_depth(args) -> int:
    inst = files.load_instance(args.input)
    body = _body(inst)
    records, rows = [], []
    for index, point in enumerate(inst.points):
        try:
            value = point_depth(body, point)
        except CutDepthError as exc:
            raise InstanceError(f"points[{index}]: {exc}") from exc
        # +inf, for a body with no rows, is the one non-finite value a report holds
        depth = value if math.isfinite(value) else "inf"
        records.append({"index": index, "point": point.tolist(), "depth": depth})
        rows.append({"point": index, "depth": f"{value:.9g}"})
    payload = {
        "command": "point-depth",
        "instance": inst.raw,
        "point_records": records,
    }
    _report(payload, args.out, rows, ["point", "depth"])
    return 0


def _parse_list(text: str, where: str, parse=float) -> list:
    try:
        return [parse(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        expected = "integers" if parse is int else "numbers"
        raise InstanceError(f"{where}: expected comma-separated {expected}") from exc


def cmd_bound_split(args) -> int:
    records = []
    disjunctions: list[Disjunction] = []
    if args.pi is not None:
        pi = np.array(_parse_list(args.pi, "--pi", int), dtype=float)
        disjunctions.append(files.wrap("--pi", Disjunction, pi, args.pi0))
    if args.input:
        inst = files.load_instance(args.input)
        poly = inst.polyhedron
        space = standard_form_model(poly).space if inst.kind == CORNER else poly.space
        if args.pi is None:
            disjunctions.extend(inst.disjunctions)
    else:
        if args.pi is None:
            raise InstanceError("--pi is required without --in")
        space = AffineSpace.full_space(disjunctions[0].dim)
    if not disjunctions:
        raise InstanceError("no disjunctions: give --pi or an instance with some")
    for index, d in enumerate(disjunctions):
        if d.dim != space.dim:
            raise InstanceError(
                f"disjunction {index} has dimension {d.dim}, expected {space.dim}"
            )
        bound = split_depth_bound(space, d)
        records.append(
            {
                "index": index,
                "pi": d.coeffs.tolist(),
                "pi0": d.threshold,
                "kind": "covers-hull" if bound.is_covers_hull else "finite",
                "value": bound.value,
            }
        )
    payload = {"command": "bound split", "bound_records": records}
    rows = [
        {
            "disjunction": r["index"],
            "kind": r["kind"],
            "value": "" if r["value"] is None else f"{r['value']:.9g}",
        }
        for r in records
    ]
    _report(payload, args.out, rows, ["disjunction", "kind", "value"])
    return 0


def cmd_bound_intersection(args) -> int:
    inst = files.load_instance(args.input)
    if inst.kind != CORNER:
        raise InstanceError("bound intersection requires a corner instance")
    data = inst.polyhedron
    records = []
    for index, cut in enumerate(inst.cuts):
        value, note = _intersection_bound(data, cut)
        records.append({"index": index, "value": value, "note": note})
    payload = {
        "command": "bound intersection",
        "edge_lengths": steepest_edge_lengths(data.tableau).tolist(),
        "bound_records": records,
    }
    rows = [
        {
            "cut": r["index"],
            "value": "" if r["value"] is None else f"{r['value']:.9g}",
            "note": r["note"],
        }
        for r in records
    ]
    _report(payload, args.out, rows, ["cut", "value", "note"])
    return 0


def cmd_bound_integer_hull(args) -> int:
    record = {
        "n": args.n,
        "value": integer_hull_depth_bound(args.n),
        "weak_value": integer_hull_depth_bound_weak(args.n),
    }
    if args.basis:
        rows = [_parse_list(part, "--basis") for part in args.basis.split(";")]
        if len({len(row) for row in rows}) > 1:
            raise InstanceError("--basis: rows must have equal lengths")
        record["lattice_value"] = files.wrap("--basis", lattice_integer_hull_bound, np.array(rows))
    payload = {"command": "bound integer-hull", "bound_records": [record]}
    if args.out:
        _emit(payload, args.out)
    else:
        line = f"n={args.n}  bound={record['value']:.9g}  sqrt-n bound={record['weak_value']:.9g}"
        if "lattice_value" in record:
            line += f"  lattice bound={record['lattice_value']:.9g}"
        print(line)
    return 0


def cmd_verify(args) -> int:
    options = {k: v for k, v in vars(args).items() if k in SUITE_OPTIONS}
    records = suites.SUITES[args.suite](**options)
    if not records:
        raise InstanceError(f"verify {args.suite}: the options leave no check to run")
    failed = sum(not r.passed for r in records)
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        measured = "-" if r.measured is None else f"{r.measured:.9g}"
        expected = "-" if r.expected is None else f"{r.expected:.9g}"
        print(
            f"{status} {r.name}: measured={measured} expected={expected} "
            f"tol={r.tolerance:g} {r.note}"
        )
    print(f"{len(records) - failed}/{len(records)} checks passed")
    if args.out:
        _emit(
            {
                "command": f"verify {args.suite}",
                "check_records": [asdict(r) for r in records],
            },
            args.out,
        )
    return 1 if failed else 0


def cmd_generate(args) -> int:
    if args.kind == "cone":
        cone = depth_lower_bound_cone(args.n, args.epsilon)
        payload = {
            "polyhedron": {"A": cone.polyhedron.A.tolist(), "b": cone.polyhedron.b.tolist()},
            "cuts": [{"alpha": cone.cut.coeffs.tolist(), "beta": cone.cut.rhs}],
            "points": [cone.reference_point.tolist()],
        }
    else:
        rng = np.random.default_rng(args.seed)
        corner = suites.random_corner(rng, 1)  # index 1: plain, nonempty corner
        payload = {
            "polyhedron": {
                "f": corner.data.base_point.tolist(),
                "R": corner.data.tableau.tolist(),
            },
            "cuts": [
                {"alpha": cut.coeffs.tolist(), "beta": cut.rhs}
                for cut, kind in corner.cuts
                if kind == "finite"
            ],
        }
    _emit(payload, args.out)
    return 0


def _option(parse, accept, expected: str):
    """An argparse type: parse(text), rejected (exit 2) unless accepted."""

    def convert(text: str):
        try:
            if accept(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


# the deep cone's facet offset; a comparison tolerance; a seed for default_rng
_epsilon = _option(float, lambda v: 0.0 < v < 0.25, "a number in (0, 0.25)")
_tol = _option(float, math.isfinite, "a finite number")
_seed = _option(int, lambda v: v >= 0, "an integer >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutdepth",
        description="Compute depths of cutting planes and the bounds they obey.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_depth = sub.add_parser("depth", help="depth of each cut in an instance")
    p_depth.add_argument("--in", dest="input", required=True, metavar="FILE")
    p_depth.add_argument(
        "--method",
        choices=["auto", "lp", "closed-form", "both"],
        default="auto",
        help="force the LP, the corner closed form, or cross-check both",
    )
    p_depth.add_argument("--out", metavar="FILE", help="write a JSON report")
    p_depth.set_defaults(handler=cmd_depth)

    p_point = sub.add_parser("point-depth", help="depth of each point in an instance")
    p_point.add_argument("--in", dest="input", required=True, metavar="FILE")
    p_point.add_argument("--out", metavar="FILE")
    p_point.set_defaults(handler=cmd_point_depth)

    p_bound = sub.add_parser("bound", help="a priori depth bounds")
    bound_sub = p_bound.add_subparsers(dest="bound_kind", required=True)

    p_split = bound_sub.add_parser("split", help="bound for cuts from a disjunction")
    p_split.add_argument("--pi", metavar="K,K,...", help="disjunction coefficients")
    p_split.add_argument("--pi0", type=int, default=0, metavar="K")
    p_split.add_argument("--in", dest="input", metavar="FILE")
    p_split.add_argument("--out", metavar="FILE")
    p_split.set_defaults(handler=cmd_bound_split)

    p_ic = bound_sub.add_parser(
        "intersection", help="bound for corner cuts alpha . s >= beta"
    )
    p_ic.add_argument("--in", dest="input", required=True, metavar="FILE")
    p_ic.add_argument("--out", metavar="FILE")
    p_ic.set_defaults(handler=cmd_bound_intersection)

    p_ih = bound_sub.add_parser("integer-hull", help="dimensional depth bound")
    p_ih.add_argument("--n", type=int, required=True)
    p_ih.add_argument(
        "--basis", metavar="ROW;ROW;...", help="lattice basis, rows comma-separated"
    )
    p_ih.add_argument("--out", metavar="FILE")
    p_ih.set_defaults(handler=cmd_bound_integer_hull)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = p_verify.add_subparsers(dest="suite", required=True)
    for name, helptext in [
        ("lemma-x", "exhaustive vs greedy maximum lattice distance"),
        ("cone", "deep-cone depth reproduction"),
        ("corner-equivalence", "closed form vs depth LP on random corners"),
        ("split-dominance", "point depths vs split bounds on random boxes"),
    ]:
        p = verify_sub.add_parser(name, help=helptext)
        p.add_argument("--tol", type=_tol, default=suites.DEFAULT_TOL)
        p.add_argument("--out", metavar="FILE")
        if name in ("lemma-x", "cone"):
            p.add_argument("--n-max", dest="n_max", type=int, default=10 if name == "lemma-x" else 6)
        if name == "cone":
            p.add_argument("--epsilon", type=_epsilon, default=1e-4)
        if name in ("corner-equivalence", "split-dominance"):
            p.add_argument(
                "--count", type=int, default=200 if name == "corner-equivalence" else 50
            )
            p.add_argument("--seed", type=_seed, default=1)
        p.set_defaults(handler=cmd_verify, suite=name)

    p_gen = sub.add_parser("generate", help="emit instance files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_gen_cone = gen_sub.add_parser("cone", help="deep-cone instance")
    p_gen_cone.add_argument("--n", type=int, required=True)
    p_gen_cone.add_argument("--epsilon", type=_epsilon, default=1e-4)
    p_gen_cone.add_argument("--out", metavar="FILE")
    p_gen_cone.set_defaults(handler=cmd_generate, kind="cone")
    p_gen_corner = gen_sub.add_parser("corner", help="seeded random corner instance")
    p_gen_corner.add_argument("--seed", type=_seed, default=1)
    p_gen_corner.add_argument("--out", metavar="FILE")
    p_gen_corner.set_defaults(handler=cmd_generate, kind="corner")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CutDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
