"""Instance-file parsing and report serialization.

Instances are JSON objects with exactly one polyhedron form:

  inequality:  {"A": [[...]], "b": [...]}  plus optional hull {"L", "xi"}
  standard:    {"lower": [...], "upper": [...]} with "-inf"/"inf" sentinels,
               plus optional {"L", "xi"}
  corner:      {"f": [...], "R": [[...]]}

plus optional "cuts" [{"alpha", "beta"}], "points" [[...]] and
"disjunctions" [{"pi", "pi0"}]. Every number must be finite: the constants
NaN, Infinity and -Infinity, and literals beyond the double range, are
rejected. Cuts and points live in the space of all the instance's
variables, (x, s) for a corner; a corner cut given on s alone is lifted at
parse time with zero coefficients on the basic variables, so every parsed
cut has `Instance.dim` coefficients. Reports are plain JSON written
with stable key order so equal runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ..bounds import Disjunction
from ..corner import CornerData, embed_cut_coeffs
from ..errors import CutDepthError, InstanceError
from ..polyhedron import AffineSpace, Cut, HPolyhedron, StandardFormModel

# the largest finite double: a number outside [-_LARGEST, _LARGEST] (and so
# NaN, an infinity or an integer too large to convert) is rejected
_LARGEST = sys.float_info.max

INEQUALITY = "inequality"
STANDARD = "standard"
CORNER = "corner"


@dataclass
class Instance:
    kind: str
    polyhedron: HPolyhedron | StandardFormModel | CornerData
    cuts: list[Cut] = field(default_factory=list)
    points: list[np.ndarray] = field(default_factory=list)
    disjunctions: list[Disjunction] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        """Dimension of the variable space cuts and points live in."""
        if self.kind == CORNER:
            return self.polyhedron.num_basic + self.polyhedron.num_nonbasic
        if self.kind == STANDARD:
            return self.polyhedron.dim
        return self.polyhedron.A.shape[1]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{where}: expected a number, got {value!r}")
    if not -_LARGEST <= value <= _LARGEST:
        raise InstanceError(f"{where}: expected a finite number")
    return float(value)


def _extended_number(value, where: str) -> float:
    if value == "-inf":
        return -math.inf
    if value == "inf":
        return math.inf
    return _number(value, where)


def _vector(obj, where: str, extended: bool = False) -> np.ndarray:
    if not isinstance(obj, list):
        raise InstanceError(f"{where}: expected a list of numbers")
    parser = _extended_number if extended else _number
    # plain numbers pass as they are; only an entry that needs the parser
    # gets its position named, so no string is built for a valid entry
    values = [
        v if type(v) in (int, float) else parser(v, f"{where}[{i}]") for i, v in enumerate(obj)
    ]
    try:
        # a NaN, an infinity or an integer beyond the double range among the
        # plain numbers puts their sum out of range or fails its conversion
        if -_LARGEST <= sum(values) <= _LARGEST:
            return np.array(values, dtype=float)
    except OverflowError:
        pass
    # out of range: name the plain number at fault, if one is
    for i, v in enumerate(obj):
        if type(v) in (int, float):
            _number(v, f"{where}[{i}]")
    return np.array(values, dtype=float)


def _matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InstanceError(f"{where}: expected a list of rows (row-major)")
    rows = [_vector(r, f"{where} row {i}") for i, r in enumerate(obj)]
    if not rows:
        raise InstanceError(f"{where}: must have at least one row")
    width = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != width:
            raise InstanceError(
                f"{where} row {i} has {r.shape[0]} entries, expected {width}"
            )
    return np.vstack(rows)


def _hull(poly: dict, n: int) -> AffineSpace:
    if ("L" in poly) != ("xi" in poly):
        raise InstanceError("polyhedron: L and xi must be given together")
    if "L" not in poly:
        return AffineSpace.full_space(n)
    L = _matrix(poly["L"], "polyhedron.L")
    xi = _vector(poly["xi"], "polyhedron.xi")
    if L.shape[1] != n:
        raise InstanceError(
            f"polyhedron.L has {L.shape[1]} columns, expected {n}"
        )
    if xi.shape[0] != L.shape[0]:
        raise InstanceError(
            f"polyhedron.xi has length {xi.shape[0]}, expected {L.shape[0]} rows of L"
        )
    return wrap("polyhedron.L", AffineSpace, L, xi)


def wrap(where: str, factory, *args):
    """factory(*args), with a rejected argument reported against where."""
    try:
        return factory(*args)
    except (CutDepthError, ValueError) as exc:
        raise InstanceError(f"{where}: {exc}") from exc


def _parse_polyhedron(poly) -> tuple[str, object]:
    if not isinstance(poly, dict):
        raise InstanceError("polyhedron: expected an object")
    forms = []
    if "A" in poly or "b" in poly:
        forms.append(INEQUALITY)
    if "lower" in poly or "upper" in poly:
        forms.append(STANDARD)
    if "f" in poly or "R" in poly:
        forms.append(CORNER)
    if len(forms) != 1:
        raise InstanceError(
            "polyhedron: exactly one form required "
            "(inequality {A, b}, standard {lower, upper}, or corner {f, R}); "
            f"found {forms or 'none'}"
        )
    form = forms[0]
    if form == INEQUALITY:
        for key in ("A", "b"):
            if key not in poly:
                raise InstanceError(f"polyhedron.{key}: missing")
        A = _matrix(poly["A"], "polyhedron.A")
        b = _vector(poly["b"], "polyhedron.b")
        if b.shape[0] != A.shape[0]:
            raise InstanceError(
                f"polyhedron.b has length {b.shape[0]}, expected {A.shape[0]} rows of A"
            )
        space = _hull(poly, A.shape[1])
        return form, wrap("polyhedron", HPolyhedron, A, b, space)
    if form == STANDARD:
        for key in ("lower", "upper"):
            if key not in poly:
                raise InstanceError(f"polyhedron.{key}: missing")
        lower = _vector(poly["lower"], "polyhedron.lower", extended=True)
        upper = _vector(poly["upper"], "polyhedron.upper", extended=True)
        if lower.shape[0] != upper.shape[0]:
            raise InstanceError(
                f"polyhedron.upper has length {upper.shape[0]}, "
                f"expected {lower.shape[0]} to match polyhedron.lower"
            )
        space = _hull(poly, lower.shape[0])
        return form, wrap("polyhedron", StandardFormModel, space, lower, upper)
    for key in ("f", "R"):
        if key not in poly:
            raise InstanceError(f"polyhedron.{key}: missing")
    f = _vector(poly["f"], "polyhedron.f")
    R = _matrix(poly["R"], "polyhedron.R")
    if R.shape[0] != f.shape[0]:
        raise InstanceError(
            f"polyhedron.R has {R.shape[0]} rows, expected {f.shape[0]} to match polyhedron.f"
        )
    return form, wrap("polyhedron", CornerData, f, R)


def _entries(data: dict, key: str):
    """Enumerate the optional list data[key]."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise InstanceError(f"{key}: expected a list")
    return enumerate(entries)


def parse_instance(data) -> Instance:
    if not isinstance(data, dict):
        raise InstanceError("instance: expected a top-level object")
    if "polyhedron" not in data:
        raise InstanceError("polyhedron: missing")
    kind, poly = _parse_polyhedron(data["polyhedron"])
    inst = Instance(kind, poly, raw=data)

    n = inst.dim
    for i, entry in _entries(data, "cuts"):
        where = f"cuts[{i}]"
        if not isinstance(entry, dict) or "alpha" not in entry or "beta" not in entry:
            raise InstanceError(f"{where}: expected an object with alpha and beta")
        alpha = _vector(entry["alpha"], f"{where}.alpha")
        if kind == CORNER:
            alpha = wrap(f"{where}.alpha", embed_cut_coeffs, poly, alpha)
        elif alpha.shape[0] != n:
            raise InstanceError(
                f"{where}.alpha has length {alpha.shape[0]}, expected {n}"
            )
        beta = _number(entry["beta"], f"{where}.beta")
        inst.cuts.append(wrap(where, Cut, alpha, beta))

    for i, entry in _entries(data, "points"):
        where = f"points[{i}]"
        point = _vector(entry, where)
        if point.shape[0] != n:
            raise InstanceError(
                f"{where} has length {point.shape[0]}, expected {n}"
            )
        inst.points.append(point)

    for i, entry in _entries(data, "disjunctions"):
        where = f"disjunctions[{i}]"
        if not isinstance(entry, dict) or "pi" not in entry or "pi0" not in entry:
            raise InstanceError(f"{where}: expected an object with pi and pi0")
        pi = _vector(entry["pi"], f"{where}.pi")
        if pi.shape[0] != n:
            raise InstanceError(
                f"{where}.pi has length {pi.shape[0]}, expected {n}"
            )
        pi0 = entry["pi0"]
        if isinstance(pi0, bool) or not isinstance(pi0, int):
            raise InstanceError(f"{where}.pi0: expected an integer, got {pi0!r}")
        inst.disjunctions.append(wrap(where, Disjunction, pi, pi0))

    return inst


def _reject_constant(token: str):
    """json's hook for NaN, Infinity and -Infinity, which no instance may hold."""
    raise ValueError(f'{token} is not a finite number; unbounded bounds are "inf" and "-inf"')


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise InstanceError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # a rejected constant, or text that is not UTF-8
        raise InstanceError(f"{path}: {exc}") from exc
    return parse_instance(data)


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
