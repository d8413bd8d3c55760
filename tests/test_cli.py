import json
import math

import numpy as np
import pytest

from cutdepth import lp
from cutdepth.bounds import Disjunction
from cutdepth.cli.files import load_instance, parse_instance
from cutdepth.cli.main import main
from cutdepth.cli.suites import _box_membership_program
from cutdepth.corner import build_corner, corner_cut_depth
from cutdepth.depth import cut_depth
from cutdepth.errors import InstanceError
from cutdepth.polyhedron import normalize

SQUARE = {
    "polyhedron": {
        "A": [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
        "b": [-0.25, 1.0, 0.0, 1.0],
    },
    "cuts": [{"alpha": [1.0, 0.0], "beta": 1.0}],
    "points": [[0.5, 0.5]],
}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


class TestInstanceParsing:
    def test_inequality_form(self, square_file):
        inst = load_instance(square_file)
        assert inst.kind == "inequality"
        assert len(inst.cuts) == 1
        assert inst.dim == 2

    def test_standard_form_with_sentinels(self):
        inst = parse_instance(
            {
                "polyhedron": {
                    "L": [[1.0, -1.0, 1.0]],
                    "xi": [0.5],
                    "lower": ["-inf", 0.0, 0.0],
                    "upper": ["inf", "inf", "inf"],
                }
            }
        )
        assert inst.kind == "standard"
        assert inst.polyhedron.lower[0] == -math.inf

    def test_corner_form(self):
        inst = parse_instance(
            {
                "polyhedron": {"f": [0.5], "R": [[1.0, -1.0]]},
                "cuts": [{"alpha": [2.0, 2.0], "beta": 1.0}],
            }
        )
        assert inst.kind == "corner"
        assert inst.dim == 3

    def test_two_forms_rejected(self):
        with pytest.raises(InstanceError, match="exactly one form"):
            parse_instance(
                {"polyhedron": {"A": [[1.0]], "b": [1.0], "f": [0.5], "R": [[1.0]]}}
            )

    def test_field_named_in_error(self):
        with pytest.raises(InstanceError, match=r"polyhedron\.A row 1"):
            parse_instance({"polyhedron": {"A": [[1.0, 2.0], [1.0]], "b": [1.0, 1.0]}})

    def test_cut_dimension_checked(self):
        with pytest.raises(InstanceError, match=r"cuts\[0\]\.alpha"):
            parse_instance(
                {
                    "polyhedron": {"A": [[1.0, 0.0]], "b": [1.0]},
                    "cuts": [{"alpha": [1.0], "beta": 0.0}],
                }
            )

    def test_disjunction_parsing(self):
        inst = parse_instance(
            {
                "polyhedron": {"A": [[1.0, 0.0]], "b": [1.0]},
                "disjunctions": [{"pi": [1, -2], "pi0": 3}],
            }
        )
        assert inst.disjunctions[0].threshold == 3


class TestDepthCommand:
    def test_box_value(self, square_file, capsys):
        assert main(["depth", "--in", square_file]) == 0
        out = capsys.readouterr().out
        assert "finite" in out
        assert "0.375" in out

    def test_report_matches_library_bit_for_bit(self, square_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["depth", "--in", square_file, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        record = report["cut_records"][0]
        inst = load_instance(square_file)
        direct = cut_depth(normalize(inst.polyhedron), inst.cuts[0])
        assert record["value"] == direct.value
        assert record["kind"] == "finite"
        np.testing.assert_array_equal(np.array(record["point"]), direct.point)

    def test_round_trip_determinism(self, square_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["depth", "--in", square_file, "--out", str(a)])
        main(["depth", "--in", square_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        # re-running the instance echoed in the report reproduces it
        echoed = tmp_path / "echo.json"
        echoed.write_text(json.dumps(json.loads(a.read_text())["instance"]))
        c = tmp_path / "c.json"
        main(["depth", "--in", str(echoed), "--out", str(c)])
        report_a = json.loads(a.read_text())
        report_c = json.loads(c.read_text())
        assert report_a["cut_records"] == report_c["cut_records"]

    def test_corner_instance_cross_check(self, tmp_path):
        path = tmp_path / "corner.json"
        path.write_text(
            json.dumps(
                {
                    "polyhedron": {"f": [0.5], "R": [[1.0, -1.0]]},
                    "cuts": [{"alpha": [2.0, 2.0], "beta": 1.0}],
                }
            )
        )
        out = tmp_path / "report.json"
        assert main(["depth", "--in", str(path), "--method", "both", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        record = report["cut_records"][0]
        assert record["cross_check"]["agrees"] is True
        assert record["value"] == pytest.approx(math.sqrt(6.0) / 8.0, abs=1e-9)
        assert record["bounds"]["intersection"] == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-9
        )
        assert record["bound_respected"] is True

    def test_closed_form_needs_corner(self, square_file):
        assert main(["depth", "--in", square_file, "--method", "closed-form"]) == 2

    def test_missing_file_is_input_error(self):
        assert main(["depth", "--in", "/nonexistent/file.json"]) == 2

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["depth", "--in", str(path)]) == 2

    def test_text_that_is_not_utf8_is_input_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(SQUARE).replace("points", "p\xf6ints").encode("latin-1"))
        assert main(["depth", "--in", str(path)]) == 2

    def test_ineligible_cut_does_not_abort_depth(self, tmp_path):
        # coeffs / rhs falls below the intersection bound's coefficient
        # tolerance on the second cut, so only the first gets that bound
        path = tmp_path / "corner.json"
        path.write_text(
            json.dumps(
                {
                    "polyhedron": {"f": [0.5], "R": [[1.0, -1.0]]},
                    "cuts": [
                        {"alpha": [2.0, 2.0], "beta": 1.0},
                        {"alpha": [1e-6, 1e-6], "beta": 1e7},
                    ],
                }
            )
        )
        out = tmp_path / "report.json"
        assert main(["depth", "--in", str(path), "--out", str(out)]) == 0
        eligible, ineligible = json.loads(out.read_text())["cut_records"]
        assert eligible["bounds"]["intersection"] == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-9
        )
        assert eligible["bound_respected"] is True
        assert "intersection" not in ineligible["bounds"]
        assert ineligible["bound_respected"] is None
        bound_out = tmp_path / "bounds.json"
        assert main(["bound", "intersection", "--in", str(path), "--out", str(bound_out)]) == 0
        records = json.loads(bound_out.read_text())["bound_records"]
        assert records[0]["value"] == eligible["bounds"]["intersection"]
        assert records[1]["value"] is None and records[1]["note"]


    @pytest.mark.parametrize("method", ["auto", "lp", "closed-form", "both"])
    def test_malformed_body_without_cuts_exits_2(self, tmp_path, method):
        # row 0 is orthogonal to the space, which the LP's normalization
        # rejects; the closed form rejects a body that is not a corner
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"polyhedron": {"A": [[0, 0], [1, 0]], "b": [1, 1]}}))
        assert main(["depth", "--in", str(path), "--method", method]) == 2

    def test_closed_form_without_cuts_needs_corner(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**SQUARE, "cuts": []}))
        assert main(["depth", "--in", str(path), "--method", "lp"]) == 0
        for method in ("closed-form", "both"):
            assert main(["depth", "--in", str(path), "--method", method]) == 2

    def test_no_cuts_prints_the_header(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**SQUARE, "cuts": []}))
        assert main(["depth", "--in", str(path)]) == 0
        header = "cut  kind  value  bounds  respected"
        assert capsys.readouterr().out == f"{header}\n{'-' * len(header)}\n"


class TestCornerCutLift:
    """A corner cut given on s and the same cut given on (x, s) with zero
    basic coefficients are one cut."""

    CORNER = {"f": [0.5, 1.25], "R": [[1.0, -1.0, 0.5], [0.25, 0.5, -1.0]]}
    # finite with an intersection bound, unbounded, not violated
    CUTS_ON_S = [
        {"alpha": [2.0, 2.0, 1.0], "beta": 1.0},
        {"alpha": [1.0, -1.0, 0.5], "beta": 1.0},
        {"alpha": [1.0, 1.0, 1.0], "beta": -1.0},
    ]

    def _reports(self, tmp_path, cuts, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"polyhedron": self.CORNER, "cuts": cuts}))
        depth_out = tmp_path / f"{name}-depth.json"
        bound_out = tmp_path / f"{name}-bound.json"
        argv = ["depth", "--in", str(path), "--method", "both", "--out", str(depth_out)]
        assert main(argv) == 0
        assert main(["bound", "intersection", "--in", str(path), "--out", str(bound_out)]) == 0
        return (
            json.loads(depth_out.read_text())["cut_records"],
            json.loads(bound_out.read_text())["bound_records"],
        )

    def test_cuts_on_s_and_on_x_s_agree(self, tmp_path):
        lifted = [{"alpha": [0.0, 0.0, *c["alpha"]], "beta": c["beta"]} for c in self.CUTS_ON_S]
        on_s = parse_instance({"polyhedron": self.CORNER, "cuts": self.CUTS_ON_S})
        on_xs = parse_instance({"polyhedron": self.CORNER, "cuts": lifted})
        for a, b in zip(on_s.cuts, on_xs.cuts):
            assert a.dim == on_s.dim
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
        cut_records, bound_records = self._reports(tmp_path, self.CUTS_ON_S, "s")
        assert [r["kind"] for r in cut_records] == ["finite", "unbounded", "not-violated"]
        assert cut_records[0]["bounds"]["intersection"] > 0
        assert (cut_records, bound_records) == self._reports(tmp_path, lifted, "xs")

    def test_basic_coefficient_rules_out_the_intersection_bound(self, tmp_path):
        cuts = [{"alpha": [0.5, 0.0, 2.0, 2.0, 1.0], "beta": 1.0}]
        cut_records, bound_records = self._reports(tmp_path, cuts, "basic")
        assert cut_records[0]["kind"] == "finite"
        assert "intersection" not in cut_records[0]["bounds"]
        assert cut_records[0]["bound_respected"] is None
        assert bound_records[0]["value"] is None
        assert bound_records[0]["note"] == "cut has coefficients on the basic variables"


class TestPointDepthCommand:
    def test_values(self, square_file, tmp_path):
        out = tmp_path / "points.json"
        assert main(["point-depth", "--in", square_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["point_records"][0]["depth"] == pytest.approx(0.25, abs=1e-12)

    def test_no_points_prints_the_header(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**SQUARE, "points": []}))
        assert main(["point-depth", "--in", str(path)]) == 0
        header = "point  depth"
        assert capsys.readouterr().out == f"{header}\n{'-' * len(header)}\n"

    def test_body_without_rows_has_infinite_depth(self, tmp_path, capsys):
        path = tmp_path / "free.json"
        path.write_text(
            json.dumps(
                {
                    "polyhedron": {"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]},
                    "points": [[0.5, -3.0]],
                }
            )
        )
        assert main(["point-depth", "--in", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[2].split() == ["0", "inf"]
        out = tmp_path / "points.json"
        assert main(["point-depth", "--in", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["point_records"] == [{"index": 0, "point": [0.5, -3.0], "depth": "inf"}]

    def test_outside_point_is_input_error(self, tmp_path):
        path = tmp_path / "inst.json"
        data = dict(SQUARE)
        data["points"] = [[5.0, 5.0]]
        path.write_text(json.dumps(data))
        assert main(["point-depth", "--in", str(path)]) == 2


class TestBoundCommands:
    def test_split_full_space(self, capsys):
        assert main(["bound", "split", "--pi", "1,1", "--pi0", "0"]) == 0
        assert "0.707106781" in capsys.readouterr().out

    def test_split_with_instance_hull(self, tmp_path, capsys):
        path = tmp_path / "seg.json"
        path.write_text(
            json.dumps(
                {
                    "polyhedron": {
                        "A": [[1.0, 0.0]],
                        "b": [1.0],
                        "L": [[1.0, 1.0]],
                        "xi": [0.0],
                    }
                }
            )
        )
        assert main(["bound", "split", "--pi", "1,1", "--in", str(path)]) == 0
        assert "covers-hull" in capsys.readouterr().out

    def test_intersection(self, tmp_path):
        path = tmp_path / "corner.json"
        path.write_text(
            json.dumps(
                {
                    "polyhedron": {"f": [0.5], "R": [[1.0, -1.0]]},
                    "cuts": [{"alpha": [2.0, 2.0], "beta": 1.0}],
                }
            )
        )
        out = tmp_path / "b.json"
        assert main(["bound", "intersection", "--in", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bound_records"][0]["value"] == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-12
        )

    def test_integer_hull(self, capsys):
        assert main(["bound", "integer-hull", "--n", "2"]) == 0
        assert "1.22474487" in capsys.readouterr().out


class TestVerifyCommands:
    def test_lemma_x_small(self, capsys):
        assert main(["verify", "lemma-x", "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "3/3 checks passed" in out

    def test_lemma_x_default_prints_nine_records(self, capsys):
        assert main(["verify", "lemma-x", "--n-max", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        for value in ("1.25", "1.5", "1.75"):
            assert f"measured={value}" in out

    def test_cone_small(self, capsys):
        assert main(["verify", "cone", "--n-max", "3"]) == 0
        assert "2/2 checks passed" in capsys.readouterr().out

    def test_corner_equivalence_small(self, capsys):
        assert main(["verify", "corner-equivalence", "--count", "10"]) == 0
        assert "10/10 checks passed" in capsys.readouterr().out

    def test_split_dominance_small(self, capsys):
        assert main(["verify", "split-dominance", "--count", "5"]) == 0
        assert "5/5 checks passed" in capsys.readouterr().out

    def test_tol_flag_forces_failure(self, capsys):
        # an absurdly negative tolerance cannot be met
        assert main(["verify", "cone", "--n-max", "2", "--tol", "-1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_box_membership_program_rows(self):
        # row-by-row reference over (y1, y2, t): y1 in t * (box, lower side),
        # y2 in (1 - t) * (box, upper side), y1 + y2 = x, t <= 1
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            lo = rng.uniform(-3.0, 0.0, n)
            hi = lo + rng.uniform(0.3, 2.5, n)
            x = rng.uniform(lo, hi)
            d = Disjunction(np.append(rng.integers(-3, 4, n - 1), 1), int(rng.integers(-3, 3)))
            zero, eye = np.zeros(n), np.eye(n)
            box = list(zip(np.vstack([eye, -eye]), np.concatenate([hi, -lo])))
            rows = [[*a, *zero, -b] for a, b in box] + [[*d.coeffs, *zero, -d.threshold]]
            rhs = [0.0] * (2 * n + 1)
            rows += [[*zero, *a, b] for a, b in box] + [[*zero, *-d.coeffs, -(d.threshold + 1)]]
            rhs += [b for _, b in box] + [-(d.threshold + 1)]
            rows += [[*e, *e, 0.0] for e in eye] + [[*zero, *zero, 1.0]]
            rhs += [*x, 1.0]
            program = _box_membership_program(lo, hi, d, x)
            np.testing.assert_array_equal(program.A, np.array(rows))
            np.testing.assert_array_equal(program.rhs, np.array(rhs))
            le, eq = lp.LESS_EQUAL, lp.EQUAL
            assert program.relations == (le,) * (4 * n + 2) + (eq,) * n + (le,)
            assert program.domains == (lp.FREE,) * (2 * n) + (lp.NONNEGATIVE,)

    def test_report_out(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "lemma-x", "--n-max", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["check_records"]) == 2
        assert all(r["passed"] for r in report["check_records"])
        keys = ["name", "passed", "measured", "expected", "tolerance", "note"]
        assert all(list(r) == keys for r in report["check_records"])


class TestGenerateCommands:
    def test_cone_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        assert main(["generate", "cone", "--n", "2", "--epsilon", "0.01", "--out", str(path)]) == 0
        assert main(["depth", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "finite" in out

    def test_corner_round_trip(self, tmp_path):
        path = tmp_path / "corner.json"
        assert main(["generate", "corner", "--seed", "3", "--out", str(path)]) == 0
        inst = load_instance(str(path))
        assert inst.kind == "corner"
        cone = build_corner(inst.polyhedron)
        res = corner_cut_depth(cone, inst.cuts[0])
        assert res.is_finite

    def test_generated_cone_matches_library(self, tmp_path):
        from cutdepth.constructions import depth_lower_bound_cone

        path = tmp_path / "cone.json"
        main(["generate", "cone", "--n", "3", "--epsilon", "0.0001", "--out", str(path)])
        inst = load_instance(str(path))
        built = depth_lower_bound_cone(3, 0.0001)
        np.testing.assert_array_equal(inst.polyhedron.A, built.polyhedron.A)
        np.testing.assert_array_equal(inst.polyhedron.b, built.polyhedron.b)
        got = cut_depth(normalize(inst.polyhedron), inst.cuts[0])
        want = cut_depth(normalize(built.polyhedron), built.cut)
        assert got.value == want.value


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["depth", "--in"], {"cuts": 5}),
        (["depth", "--in"], {"cuts": None}),
        (["point-depth", "--in"], {"points": 5}),
        (["point-depth", "--in"], {"points": None}),
        (["bound", "split", "--in"], {"disjunctions": 5}),
        (["bound", "split", "--in"], {"disjunctions": None}),
        (["bound", "split", "--pi", "0,0"], None),
        (["bound", "split", "--pi", ""], None),
        (["bound", "integer-hull", "--n", "2", "--basis", "1,0;0"], None),
        (["generate", "cone", "--n", "3", "--epsilon", "0.3"], None),
        (["verify", "cone", "--epsilon", "0.5"], None),
        # json.dumps writes these as the constants Infinity, NaN and -Infinity
        (["point-depth", "--in"], {"points": [[math.inf, 0.5]]}),
        (["point-depth", "--in"], {"points": [[math.nan, 0.5]]}),
        (
            ["point-depth", "--in"],
            {"polyhedron": {"lower": [0, -math.inf], "upper": [1, 1]}, "points": [[0.5, 0.5]]},
        ),
        # a literal beyond the double range, which json reads as inf
        (["point-depth", "--in"], '{"polyhedron": {"A": [[1]], "b": [1]}, "points": [[1e400]]}'),
    ],
    ids=[
        "cuts-int", "cuts-null", "points-int", "points-null", "disjunctions-int",
        "disjunctions-null", "pi-zero", "pi-empty", "basis-ragged",
        "generate-epsilon", "verify-epsilon", "point-infinity", "point-nan",
        "lower-minus-infinity", "point-overflow",
    ],
)
def test_malformed_input_exits_2(argv, fields, tmp_path, capsys):
    # the instance is SQUARE with fields replaced, or else the file's text,
    # appended after --in
    if fields is not None:
        path = tmp_path / "inst.json"
        path.write_text(fields if isinstance(fields, str) else json.dumps({**SQUARE, **fields}))
        argv = [*argv, str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an option value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "corner", "--seed", "-1"],
        ["verify", "corner-equivalence", "--seed", "-1"],
        ["verify", "split-dominance", "--seed", "-2"],
        ["bound", "integer-hull", "--n", "3", "--basis", "1,0;0,nan"],
        ["verify", "cone", "--tol", "nan"],
        ["verify", "lemma-x", "--tol", "inf"],
        # options that leave a suite no check to run
        ["verify", "lemma-x", "--n-max", "1"],
        ["verify", "cone", "--n-max", "1"],
        ["verify", "corner-equivalence", "--count", "0"],
        ["verify", "split-dominance", "--count", "-1"],
    ],
    ids=[
        "generate-seed", "corner-equivalence-seed", "split-dominance-seed", "basis-nan",
        "tol-nan", "tol-inf", "lemma-x-no-check", "cone-no-check",
        "corner-equivalence-no-check", "split-dominance-no-check",
    ],
)
def test_bad_option_value_exits_2(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an option value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
