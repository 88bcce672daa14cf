import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cubicgeom import cli, forms, quadrics
from cubicgeom.cli import main, load_points, build_parser, SchemaError
from cubicgeom.field import is_rational, scalar_to_json
from cubicgeom.fixtures import species_points

GOLDEN = Path(__file__).parent / "golden"
FRAME = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]
GAUSS = {"levels": [["1", "0", "1"]]}


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_text(capsys):
    code, out = _run(capsys, "construct")
    assert code == 0
    assert "27 lines:" in out


def test_configurations_json(capsys):
    code, out = _run(capsys, "configurations", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["tritangent_planes"] == 45
    assert data["double_sixes"] == 36
    assert data["trieder_pairs"] == 120
    assert data["triads"] == 40


def test_group_json(capsys):
    code, out = _run(capsys, "group", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["order"] == 51840
    assert data["orbits"] == {"lines": 27, "double_sixes": 36,
                              "tritangents": 45, "triads": 40}


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["construct", "--input", str(bad)])
    assert code == 2


def test_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["construct", "--input", str(bad)]) == 2
    assert "UnicodeDecodeError" in capsys.readouterr().err


def test_degenerate_points_exit_1(tmp_path):
    deg = tmp_path / "deg.json"
    deg.write_text(json.dumps({
        "schema": 1,
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                   ["1", "1", "1"], ["1", "2", "3"], ["1", "2", "3"]]}))
    code = main(["construct", "--input", str(deg)])
    assert code == 1


def test_load_points_with_extension(tmp_path):
    data = {"schema": 1,
            "field": {"levels": [["1", "0", "1"]]},
            "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                       ["1", "1", "1"],
                       [["1", "0"], ["1", "1"], ["2", "-1"]],
                       [["1", "0"], ["1", "-1"], ["2", "1"]]]}
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(data))
    pts = load_points(str(path))
    assert pts.tower.height == 1


def test_output_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["group", "--format", "json", "--output", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["order"] == 51840


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "report.json"
    assert main(["group", "--output", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: FileNotFoundError: ")
    assert "Traceback" not in captured.err and not missing.exists()


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["construct", "--bogus"])


def test_determinism_two_runs(capsys):
    _, out1 = _run(capsys, "cayley-salmon", "--format", "json")
    _, out2 = _run(capsys, "cayley-salmon", "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("command", ["construct", "configurations",
                                     "cayley-salmon", "hexahedral",
                                     "determinantal", "species", "group",
                                     "desmic", "hexagram"])
def test_report_matches_golden(capsys, command):
    code, out = _run(capsys, command, "--format", "json", "--seed", "0")
    assert code == 0
    assert out == (GOLDEN / f"{command}.json").read_text()


def test_construct_golden_keeps_surface_and_pluckers():
    # The spans of construct.json were regenerated when they became a
    # function of the line alone.  Its surface and 27 Plucker vectors were
    # not: this digest was taken before, from the degree-9 implicitization
    # and the Jacobian and conic constructions of the lines.
    data = json.loads((GOLDEN / "construct.json").read_text())
    pinned = json.dumps([data["surface"], {lab: line["plucker"] for lab, line
                                           in data["lines"].items()}],
                        sort_keys=True)
    assert hashlib.sha256(pinned.encode()).hexdigest() == (
        "cddf2cb57c0c77173b19dfd4c47b8fda0ead7dcfc558350af5d14702b75f9c35")


def _plucker_span(plucker):
    """The first two distinct nonzero columns of the antisymmetric matrix
    with entries v_ij = -v_ji, each scaled to a leading 1."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (i, j), x in zip(pairs, plucker):
        m[i][j], m[j][i] = Fraction(x), -Fraction(x)
    leads = [(col, next((x for x in col if x), None)) for col in zip(*m)]
    points = [[x / lead for x in col] for col, lead in leads if lead]
    return [p for n, p in enumerate(points) if p not in points[:n]][:2]


def test_printed_spans_follow_from_plucker_vectors(capsys):
    _, out = _run(capsys, "construct", "--format", "json")
    _, text = _run(capsys, "construct")
    rows = text.splitlines()
    for lab, line in json.loads(out)["lines"].items():
        p, q = line["span"]
        assert [[Fraction(x) for x in pt] for pt in (p, q)] == _plucker_span(
            line["plucker"])
        assert f"  {lab}: span {p} {q}" in rows


def _write(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("data", [
    {"schema": 7, "points": FRAME + [["1", "2", "3"], ["1", "5", "8"]]},
    # JSON true and 1.0 compare equal to 1 in Python; only the integer 1 is
    # schema 1
    {"schema": True, "points": FRAME + [["1", "2", "3"], ["1", "5", "8"]]},
    {"schema": 1.0, "points": FRAME + [["1", "2", "3"], ["1", "5", "8"]]},
    {"schema": 1, "points": FRAME + [["1", "2"], ["1", "5", "8"]]},
    {"schema": 1, "field": {"levels": 5},
     "points": FRAME + [["1", "2", "3"], ["1", "5", "8"]]},
    {"schema": 1, "field": {"levels": [["1", "1"]]},
     "points": FRAME + [["1", "2", "3"], ["1", "5", "8"]]},
    {"schema": 1, "points": FRAME + [["1", "2", "3"], ["1", "5", 8]]},
    {"schema": 1, "points": FRAME + [["1", "2", "3"], ["1", "5", "8/0"]]},
    # a scalar over Q(i) has exactly 2 coefficients: [] was read as 0 and
    # blamed on the points as collinear, ["1"] as 1, and ["1", "2", "3"]
    # was reduced modulo x^2 + 1 to -2 + 2i
    {"schema": 1, "field": GAUSS, "points": FRAME + [[[], "5", "7"], ["1", "5", "8"]]},
    {"schema": 1, "field": GAUSS, "points": FRAME + [[["1"], "5", "7"], ["1", "5", "8"]]},
    {"schema": 1, "field": GAUSS,
     "points": FRAME + [[["1", "2", "3"], "5", "7"], ["1", "5", "8"]]},
    # the zero vector is no point; it exited 1 with a bare ValueError
    {"schema": 1, "points": FRAME[:3] + [["0", "0", "0"], ["1", "2", "3"], ["1", "5", "8"]]},
], ids=["schema-version", "schema-true", "schema-float", "point-arity", "levels-not-a-list",
        "degree-1-modulus", "number-not-a-string", "zero-denominator",
        "no-coefficients", "too-few-coefficients", "too-many-coefficients",
        "zero-point"])
def test_malformed_input_is_a_schema_error(tmp_path, capsys, data):
    path = _write(tmp_path, data)
    with pytest.raises(SchemaError):
        load_points(path)
    # group reports no input, but it still reads one it is given
    for command in ("construct", "group"):
        assert main([command, "--input", path]) == 2
        assert "SchemaError" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    for command in ("construct", "group"):
        assert main([command, "--input", str(tmp_path / "missing.json")]) == 2
        assert "FileNotFoundError" in capsys.readouterr().err


# x^2 - 1 splits over Q, so "theta" is a zero divisor.
REDUCIBLE = {"levels": [["-1", "0", "1"]]}


def test_reducible_modulus_is_not_a_conic(tmp_path, capsys):
    # these six points are in general position over Q(i), but over the
    # reducible Q[x]/(x^2 - 1) they were reported to lie on a conic
    path = _write(tmp_path, {"schema": 1, "field": REDUCIBLE, "points": FRAME + [
        [["1", "0"], ["1", "1"], ["2", "-1"]],
        [["1", "0"], ["1", "-1"], ["2", "1"]]]})
    assert main(["construct", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "reducible" in err


def test_reducible_modulus_is_not_a_traceback(tmp_path, capsys):
    # a leading coordinate 1 + theta has no inverse over Q[x]/(x^2 - 1)
    path = _write(tmp_path, {"schema": 1, "field": REDUCIBLE, "points": FRAME + [
        [["1", "1"], ["2", "0"], ["3", "0"]],
        [["1", "0"], ["1", "-1"], ["2", "1"]]]})
    assert main(["construct", "--input", path]) == 2
    assert "SchemaError" in capsys.readouterr().err


def test_zero_divisor_above_q_exits_2(tmp_path, capsys):
    # x^2 + 1 over Q(i) splits as (x - i)(x + i), which load_points does not
    # test; inverting theta - i then hits a zero divisor
    one = [["1", "0"], ["0", "0"]]
    path = _write(tmp_path, {"schema": 1, "field": {"levels": [
        ["1", "0", "1"], [["1", "0"], ["0", "0"], ["1", "0"]]]},
        "points": FRAME + [[[["0", "-1"], ["1", "0"]], one, one],
                           [one, "2", "3"]]})
    assert main(["construct", "--input", path]) == 2
    assert "ZeroDivisorError" in capsys.readouterr().err


def _species_input(tmp_path, k):
    points = species_points(k)
    return _write(tmp_path, {
        "schema": 1, "field": {"levels": [["1", "0", "1"]]},
        "points": [[scalar_to_json(c) for c in p.coords] for p in points.points]})


@pytest.fixture
def species_cli(monkeypatch, species_sessions):
    """The shared species sessions, which cli.Session now hands out: an
    input read by load_points gets the session of the species fixture with
    the same points, and any other input is an error."""
    by_points = {tuple(s.points): s for s in species_sessions.values()}
    monkeypatch.setattr(cli, "Session", lambda points: by_points[tuple(points)])
    return species_sessions


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hexahedral_over_extension(tmp_path, capsys, species_cli, k):
    # The forms come from their double-sixes by linear algebra, with no root
    # extracted: all 3 exist over Q(i) itself, and no level is added.
    path = _species_input(tmp_path, k)
    code, out = _run(capsys, "hexahedral", "--input", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["forms_found"] == 3
    assert report["cayley_salmon_splits"] == 10
    session = species_cli[k]
    tower = session.points.tower
    for hexform in session.hexforms:
        for x in hexform.x:
            assert all(is_rational(c) or c.tower == tower
                       for c in x.terms.values())


def test_verify_all_over_extension_passes(tmp_path, capsys, species_cli):
    # every claim runs for real over Q(i), the webs and the census included
    path = _species_input(tmp_path, 3)
    code = main(["verify-all", "--input", path])
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert [r for r in rows if not r.startswith("PASS: ")] == [
        "ALL CHECKS PASSED"]
    assert len(rows) == 13 and code == 0
    assert captured.err == ""


def _count_calls(monkeypatch, name, *modules):
    """Count the calls to the function `name` made through any of the
    modules, each of which holds it."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_desmic_meets_each_line_pair_once(monkeypatch, capsys):
    # the webs take their nodes from the grouping of the 135 meets, which
    # the report also counts; the webs' own 36 made 171 meets in all
    meets = _count_calls(monkeypatch, "meet_lines", quadrics)
    assert main(["desmic"]) == 0
    assert len(meets) == 135


ECKARDT_REPORT = """\
PASS: 27 distinct lines with the expected incidence table
PASS: 45 tritangent planes, 36 double-sixes split 1/15/20, 120 trieder pairs, 40 triads
PASS: Cayley-Salmon identity F = lambda*PQR + mu*STU
PASS: hexahedral form: sum x_i = 0, sum x_i^3 = c*F, 15 lines, complementary double-six, 10 Cayley-Salmon splits
PASS: determinantal form det M = kappa*F with parametrization on the surface
PASS: cubo-cubic transformation preserves the surface and inverts exactly
PASS: 4-dimensional quadric web with a 12-nodal Steinerian quartic and a unique desmic partition
PASS: 45 sets of 48 nonsingular quadrics, 360 distinct, each in 6 sets
FAIL: 135 intersection points in 45 groups of 12, each point in 4 groups
PASS: 60 Cremona pairs with 3 collinear diagonal points on the projected Pascal line
PASS: group of order 51840 with orbits 27, 36, 45, 40
PASS: species 1-4 fixtures classified; census holds all five reality profiles
SOME CHECKS FAILED
"""


def test_verify_all_says_what_it_saw(tmp_path, capsys, monkeypatch, eckardt):
    # three lines through one point leave 133 distinct meets, and the point
    # lies in the 4 groups of each of its 3 meets
    path = _write(tmp_path, {"schema": 1, "points": [
        [scalar_to_json(c) for c in p.coords] for p in eckardt.points.points]})
    meets = _count_calls(monkeypatch, "meet_lines", quadrics)
    matchings = _count_calls(monkeypatch, "hexahedral_lines", forms, cli)
    assert main(["verify-all", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ECKARDT_REPORT
    assert captured.err == (
        "FAIL: 135 intersection points in 45 groups of 12, each point in 4 "
        "groups: observed {'points': 133, 'groups': 45, 'per_group': [12], "
        "'memberships': [4, 12]}, expected {'points': 135, 'groups': 45, "
        "'per_group': [12], 'memberships': [4]}\n")
    # the 135 meets once; each of the 3 forms matched to its lines once
    assert (len(meets), len(matchings)) == (135, 3)
