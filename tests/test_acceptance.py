"""Acceptance gate: one test per criterion, all checks at zero tolerance.

Every test prints a single PASS line on success; a failure shows up as the
pytest FAIL line for that criterion.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cubicgeom import incidence as inc
from cubicgeom.blowup import incidence_table
from cubicgeom.determinantal import (grassmann_nets, grassmann_param,
                                     param_lands_on_surface, cubo_cubic,
                                     cubo_cubic_inverse, preserves_surface,
                                     inverts_exactly, plane_cubic,
                                     plane_image_cubic)
from cubicgeom.forms import (cayley_salmon, cs_from_hexahedral,
                             hexahedral_lines, all_hexahedral_forms)
from cubicgeom.hexagram import hexagram_config, pentahedra, verify_all_pairs
from cubicgeom.linalg import ExactMatrix
from cubicgeom.multipoly import MultiPoly, monomials
from cubicgeom.quadrics import (quadric_web, desmic_partition,
                                six_line_quadric_census,
                                intersection_point_grouping, _face_product)
from cubicgeom.species import (conjugation_action, classify_species,
                               involution_census, SPECIES_PROFILES)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _lattice_class(lab):
    v = [0] * 7
    if lab[0] == "a":
        v[lab[1]] = 1
    elif lab[0] == "b":
        v[0] = 2
        for j in range(1, 7):
            if j != lab[1]:
                v[j] = -1
    else:
        v[0] = 1
        v[lab[1]] = -1
        v[lab[2]] = -1
    return v


def _lattice_meets(l1, l2):
    u, v = _lattice_class(l1), _lattice_class(l2)
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:])) == 1


def test_criterion_01_lines(surface, lines):
    assert len(lines) == 27
    assert len(set(lines.values())) == 27
    for line in lines.values():
        assert surface.contains_line(line)
    table = incidence_table(lines)
    for (l1, l2), met in table.items():
        assert met == _lattice_meets(l1, l2)
    _report(1, "27 distinct lines on F; 27x27 incidence table equals the "
               "lattice oracle")


def test_criterion_02_counts(lines, planes):
    assert len(planes) == 45
    for trio, plane in planes.items():
        for lab in trio:
            assert plane.contains(lines[lab].p)
            assert plane.contains(lines[lab].q)
    ds = inc.enumerate_double_sixes()
    assert len(ds) == 36
    assert Counter(inc.double_six_family(d) for d in ds) == \
        Counter({1: 1, 2: 15, 3: 20})
    assert len(inc.enumerate_trieder_pairs()) == 120
    assert len(inc.enumerate_triads()) == 40
    _report(2, "45 tritangent trios, 36 double-sixes split (1,15,20), "
               "120 trieder pairs, 40 triads")


def test_criterion_03_cayley_salmon(surface, planes):
    pairs = inc.enumerate_trieder_pairs()[:12]
    for pair in pairs:
        cs = cayley_salmon(surface, pair, planes)
        forms = cs.plane_forms()
        prod1 = forms[0] * forms[1] * forms[2]
        prod2 = forms[3] * forms[4] * forms[5]
        assert prod1.scale(cs.lam) + prod2.scale(cs.mu) == surface.F
    _report(3, "F = lambda*PQR + mu*STU exactly for 12 trieder pairs")


def test_criterion_04_hexahedral(surface, planes, hexforms,
                                 is_double_six_labels):
    for hexform in hexforms:
        total, cubes = MultiPoly(4), MultiPoly(4)
        for x in hexform.x:
            total = total + x
            cubes = cubes + x * x * x
        assert total.is_zero()
        assert hexform.c != 0 and cubes == surface.F.scale(hexform.c)
        matched, ds = hexahedral_lines(hexform, planes)
        assert len(set(matched.values())) == 15
        assert is_double_six_labels(ds)
    assert len(cs_from_hexahedral(hexforms[0], surface)) == 10
    forms, by_ds = all_hexahedral_forms(surface, planes)
    assert len(forms) == 360
    assert len(by_ds) == 36
    assert all(len(v) == 10 for v in by_ds.values())
    _report(4, "hexahedral identities exact; 15 lines + double-six; 10 CS "
               "splits; 360 forms over 36 double-sixes")


def test_criterion_05_determinantal(surface, rep):
    assert rep.det_poly() == surface.F.scale(rep.kappa)
    gamma = grassmann_param(grassmann_nets(rep))
    assert param_lands_on_surface(surface, gamma)
    tmap = cubo_cubic(rep)
    assert tmap.factor.degree() == 3
    assert all(t.degree() == 3 for t in tmap.components)
    assert preserves_surface(tmap, surface)
    tinv = cubo_cubic_inverse(rep)
    assert inverts_exactly(tmap, tinv)
    assert plane_image_cubic(tmap, plane_cubic(tinv), seed=0) == 1
    _report(5, "det M = kappa*F; F(gamma) = 0; cubo-cubic map cubic after "
               "degree-3 factor, F divides F o T, T' o T = id as an "
               "identity, plane maps into one cubic")


def test_criterion_06_desmic(surface, lines, planes, sorted_trios):
    points, groups = intersection_point_grouping(lines)
    for trio in sorted_trios[:3]:
        web = quadric_web(surface, trio, groups[trio], planes[trio])
        assert len(web.basis) == 4
        assert ExactMatrix([b.coeff_vector() for b in web.basis]).rank() == 4
        assert web.quartic.degree() == 4
        grad = web.quartic.gradient()
        assert len(set(web.nodes)) == 12
        for node in web.nodes:
            assert surface.contains_point(node)
            assert web.quartic.evaluate(node.coords) == 0
            assert all(g.evaluate(node.coords) == 0 for g in grad)
        part = desmic_partition(web.nodes)
        deg4 = monomials(4, 4)
        rows = [_face_product([web.nodes[i] for i in t]).coeff_vector(deg4)
                for t in part]
        assert ExactMatrix(rows).rank() == 2
    census = six_line_quadric_census(surface, planes)
    per = Counter(len(v["nonsingular"]) for v in census["per_set"].values())
    assert per == Counter({48: 45})
    assert len(census["distinct"]) == 360
    assert set(census["multiplicities"]) == {6}
    assert len(set(points.values())) == 135
    assert len(groups) == 45 and all(len(g) == 12 for g in groups.values())
    assert set(Counter(p for g in groups.values() for p in g).values()) == {4}
    _report(6, "webs of dimension 4 with verified 12-nodal Steinerians and "
               "unique desmic partitions; 45x48 census, 360 distinct x6; "
               "135 points in 45x12 groups x4")


def test_criterion_07_hexagram(surface, lines, planes, hexform):
    matched, _ = hexahedral_lines(hexform, planes)
    config = hexagram_config(hexform, matched, surface, lines)
    assert len(config.cremona_pairs) == 60
    pentahedra(config)
    reports = verify_all_pairs(surface, config, lines, seed=0)
    assert len(reports) == 180
    for rep in reports:
        coords = [list(p.coords) for p in rep.diagonal_points]
        assert ExactMatrix(coords).rank() == 2
        for p in rep.diagonal_points:
            assert rep.pascal_projection.contains(p)
    _report(7, "60 Cremona pairs; 3 exactly collinear diagonal points on the "
               "projected Pascal line, 3 centers each")


def test_criterion_08_group():
    assert inc.group_order() == 51840
    assert inc.orbit_sizes() == {"lines": 27, "double_sixes": 36,
                                 "tritangents": 45, "triads": 40}
    _report(8, "stabilizer-chain order 51840 with orbits 27, 36, 45, 40")


def test_criterion_09_species(species_sessions):
    expect = {1: (27, 45), 2: (15, 15), 3: (7, 5), 4: (3, 7)}
    for k in (1, 2, 3, 4):
        s = species_sessions[k]
        species, profile = classify_species(
            conjugation_action(s.surface, s.lines))
        assert species == k
        assert profile[:2] == expect[k]
        assert profile[2:] == SPECIES_PROFILES[k][2:]
    census = involution_census()
    assert {(27, 45, 36, 0), (15, 15, 15, 1), (7, 5, 6, 2), (3, 7, 1, 3),
            (3, 13, 0, 12)} <= set(census)
    _report(9, "species 1-4 fixtures classified with expected profiles; census "
               "holds all five including (3,13) with no fixed double-six")


def test_criterion_10_determinism(tmp_path):
    # the two runs are independent: start both, then wait for both
    procs = [subprocess.Popen(
        [sys.executable, "-m", "cubicgeom.cli", "verify-all",
         "--format", "json", "--seed", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    outs = []
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
        outs.append(out)
    assert outs[0] == outs[1]
    golden = Path(__file__).parent / "golden" / "verify-all.json"
    assert outs[0] == golden.read_bytes()
    report = json.loads(outs[0])
    assert report["all_pass"] is True
    _report(10, "two verify-all runs produce byte-identical reports, equal "
                "to the committed golden report, all checks passing")
