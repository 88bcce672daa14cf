import itertools
import random

import pytest

from cubicgeom import incidence as inc
from cubicgeom.field import rat
from cubicgeom.blowup import (SixPoints, incidence_table,
                              sample_surface_points, DegeneratePointsError,
                              CUBIC_MONOMIALS_P3)
from cubicgeom.fixtures import fixture_points
from cubicgeom.linalg import ExactMatrix
from cubicgeom.multipoly import MultiPoly, monomials, eval_monomial
from cubicgeom.projgeom import ProjPoint, canonicalize, incidences


@pytest.fixture(scope="module", params=["fixture", "eckardt", "species2"])
def any_surface(request, session, eckardt, species_sessions):
    return {"fixture": session, "eckardt": eckardt,
            "species2": species_sessions[2]}[request.param].surface


def _implicitize(basis):
    """The cubic F with F(C_0, ..., C_3) = 0 from the 55 x 20 kernel of its
    degree-9 composition, scaled as a kernel vector: the reference for the
    library's det M."""
    composed = [MultiPoly.constant(3, rat(1)) for _ in CUBIC_MONOMIALS_P3]
    for n, expo in enumerate(CUBIC_MONOMIALS_P3):
        for cub, k in zip(basis, expo):
            composed[n] = composed[n] * cub ** k
    rows = [[c.coefficient(m) for c in composed] for m in monomials(3, 9)]
    kern = ExactMatrix(rows).kernel_basis()
    assert len(kern) == 1
    return MultiPoly(4, dict(zip(CUBIC_MONOMIALS_P3, kern[0])))


def test_surface_vanishes_on_the_net(any_surface):
    assert any_surface.F.substitute(any_surface.basis).is_zero()


def test_surface_equals_implicitization(any_surface):
    assert any_surface.F == _implicitize(any_surface.basis)


def test_27_distinct_lines_on_surface(surface, lines):
    assert len(lines) == 27
    assert len(set(lines.values())) == 27
    for line in lines.values():
        assert surface.contains_line(line)


def test_geometric_incidence_matches_rule(lines):
    table = incidence_table(lines)
    for (l1, l2), met in table.items():
        assert met == inc.meets_rule(l1, l2)


def _image(surface, x):
    return ProjPoint([cub.evaluate(x) for cub in surface.basis])


def _conic_points(five):
    """Points of the conic through five plane points: the second meets of
    lines through the first point q, x = C(d) q - (C(q + d) - C(d)) d."""
    conics = monomials(3, 2)
    kern = ExactMatrix([[eval_monomial(e, p) for e in conics]
                        for p in five]).kernel_basis()
    conic = MultiPoly(3, dict(zip(conics, kern[0])))
    q = five[0]
    for d in ([rat(1), rat(2), rat(3)], [rat(2), rat(-1), rat(1)],
              [rat(-1), rat(3), rat(2)]):
        cd = conic.evaluate(d)
        twice_b = conic.evaluate([a + b for a, b in zip(q, d)]) - cd
        yield [cd * a - twice_b * b for a, b in zip(q, d)]


def test_exceptional_lines_through_base_points(surface, lines):
    # The net's Jacobian at p_i maps the directions at p_i onto a_i, the
    # conic through the other five points maps onto b_i, and the line
    # p_i p_j onto c_ij.  The incidence table cannot tell a_i from b_i;
    # these images can.  By the meet rule, a_i meets exactly the b_j and
    # c_ij with j != i.
    pts = [p.coords for p in surface.source]
    for i in range(6):
        partners = {lab for lab in inc.ALL_LABELS
                    if lab != inc.a(i + 1) and inc.meets_rule(inc.a(i + 1), lab)}
        assert partners == ({inc.b(j) for j in range(1, 7) if j != i + 1}
                            | {inc.c(i + 1, j) for j in range(1, 7) if j != i + 1})
        jac = [[cub.partial(k).evaluate(pts[i]) for k in range(3)]
               for cub in surface.basis]
        images = {ProjPoint(col) for col in zip(*jac) if any(col)}
        assert len(images) >= 2
        assert all(lines[inc.a(i + 1)].contains(x) for x in images)
        conic = [x for x in _conic_points(pts[:i] + pts[i + 1:])
                 if any(cub.evaluate(x) for cub in surface.basis)]
        assert len({_image(surface, x) for x in conic}) >= 2
        assert all(lines[inc.b(i + 1)].contains(_image(surface, x))
                   for x in conic)
        for j in range(i + 1, 6):
            for t in (rat(-1), rat(3)):
                x = [a + t * b for a, b in zip(pts[i], pts[j])]
                assert lines[inc.c(i + 1, j + 1)].contains(_image(surface, x))


def test_degenerate_points_rejected():
    pts = [[rat(1), rat(0), rat(0)], [rat(0), rat(1), rat(0)],
           [rat(0), rat(0), rat(1)], [rat(1), rat(1), rat(0)],
           [rat(1), rat(2), rat(0)], [rat(1), rat(5), rat(8)]]
    # four of these points are collinear
    with pytest.raises(DegeneratePointsError):
        SixPoints(pts)


def test_sampled_points_on_surface(surface):
    pts = sample_surface_points(surface, 10, seed=3)
    assert len(pts) == 10
    for p in pts:
        assert surface.contains_point(p)


def _sampled_centers_oracle(surface, n, seed, avoid):
    """The sampling loop on canonical Fraction coordinates: each image of the
    net as given, tested against the avoided lines by its Fraction
    incidences, and compared by its coordinates."""
    rng = random.Random(seed)
    base = {p.coords for p in surface.source}
    out = []
    while len(out) < n:
        coords = [rat(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2)]
        pt = canonicalize([rat(1), coords[0], coords[1]])
        if pt in base:
            continue
        vals = [cub.evaluate(pt) for cub in surface.basis]
        if not any(vals):
            continue
        img = canonicalize(vals)
        if any(not any(incidences(line.plucker, img)) for line in avoid):
            continue
        if img not in out:
            out.append(img)
    return out


@pytest.mark.parametrize("which", ["fixture", "species2"])
def test_sampled_centers_match_fraction_oracle(which, session,
                                               species_sessions):
    # The net is cleared by one common factor: a factor per cubic would
    # change the map and move every center.
    s = session if which == "fixture" else species_sessions[2]
    avoid = list(s.lines.values())
    for seed in (0, 5):
        pts = sample_surface_points(s.surface, 4, seed=seed, avoid_lines=avoid)
        assert [p.coords for p in pts] == _sampled_centers_oracle(
            s.surface, 4, seed, avoid)


def test_no_eckardt_points(lines):
    # all 135 pairwise intersection points are distinct on the fixture
    points = set()
    for l1, l2 in itertools.combinations(inc.ALL_LABELS, 2):
        if inc.meets_rule(l1, l2):
            from cubicgeom.projgeom import meet_lines
            points.add(meet_lines(lines[l1], lines[l2]))
    assert len(points) == 135


def test_fixture_points_general_position():
    fixture_points()  # construction runs the general-position checks
