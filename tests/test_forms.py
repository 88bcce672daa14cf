import dataclasses

import pytest

from cubicgeom import incidence as inc
from cubicgeom.cli import Session
from cubicgeom.field import rat, inverse
from cubicgeom.fixtures import species_points
from cubicgeom.linalg import ExactMatrix
from cubicgeom.multipoly import MultiPoly
from cubicgeom.projgeom import meet_planes
from cubicgeom.forms import (tritangent_plane, cayley_salmon, cs_from_hexahedral,
                             hexahedral_lines, NoDecompositionError)


def _second_relation(x_forms):
    """Canonical relation (a_i) with sum(a_i x_i) = 0, independent of (1,...,1)."""
    cols = ExactMatrix(list(zip(*(f.linear_coeffs() for f in x_forms))))
    kern = cols.kernel_basis()
    assert len(kern) == 2, f"relation space has dimension {len(kern)}"
    v = next(v for v in kern if any(c != v[0] for c in v))
    inv = inverse(next(c for c in v if c))
    return [c * inv for c in v]


def segre_membership(hexform, points):
    """Check sampled surface points map into the Segre-cubic slice.

    The image (x_1(P), ..., x_6(P)) must satisfy sum(y_i) = 0,
    sum(a_i y_i) = 0 and sum(y_i^3) = 0.
    """
    a = _second_relation(hexform.x)
    for pt in points:
        ys = [f.evaluate(pt.coords) for f in hexform.x]
        if sum(ys[1:], ys[0]):
            return False
        if sum((ai * y for ai, y in zip(a[1:], ys[1:])), a[0] * ys[0]):
            return False
        if sum((y * y * y for y in ys[1:]), ys[0] ** 3):
            return False
    return True


def test_tritangent_planes_contain_their_trios(lines, planes):
    assert len(planes) == 45
    for trio, plane in planes.items():
        for lab in trio:
            line = lines[lab]
            assert plane.contains(line.p) and plane.contains(line.q)


def test_tritangent_plane_single(lines):
    trio = inc.TRITANGENT_TRIOS[0]
    plane = tritangent_plane(trio, lines)
    for lab in trio:
        assert plane.contains(lines[lab].p)


def test_cayley_salmon_identity(surface, first_cs):
    forms = first_cs.plane_forms()
    prod1 = forms[0] * forms[1] * forms[2]
    prod2 = forms[3] * forms[4] * forms[5]
    assert prod1.scale(first_cs.lam) + prod2.scale(first_cs.mu) == surface.F


def test_cayley_salmon_many_pairs(surface, planes):
    for pair in inc.enumerate_trieder_pairs()[:12]:
        cs = cayley_salmon(surface, pair, planes)
        assert cs.lam != 0 and cs.mu != 0


def test_hexahedral_identities(surface, hexforms):
    assert len(hexforms) == 3
    for hexform in hexforms:
        total = MultiPoly(4)
        cubes = MultiPoly(4)
        for x in hexform.x:
            total = total + x
            cubes = cubes + x * x * x
        assert total.is_zero()
        assert cubes == surface.F.scale(hexform.c)
        assert hexform.c != 0


def test_hexahedral_lines_and_double_six(planes, hexform,
                                         is_double_six_labels):
    matched, ds = hexahedral_lines(hexform, planes)
    assert len(matched) == 15
    assert len(set(matched.values())) == 15
    assert is_double_six_labels(ds)


def _axes_by_meets(hexform, lines):
    """Oracle: each partition's axis as the meet of two of its planes,
    looked up among the 27 lines."""
    matched = {}
    for part in inc.partitions_into_pairs(range(6)):
        part = tuple(sorted(tuple(sorted(p)) for p in part))
        axis = meet_planes(*(hexform.planes[frozenset(p)] for p in part[:2]))
        matched[part] = next(lab for lab in inc.ALL_LABELS if axis == lines[lab])
    return matched


@pytest.mark.parametrize("which", ["session", "eckardt", "species3"])
def test_axes_by_trios_match_plane_meets(request, which):
    s = (request.getfixturevalue("species_sessions")[3] if which == "species3"
         else request.getfixturevalue(which))
    assert len(s.hexforms) == 3
    for hexform in s.hexforms:
        matched, _ = hexahedral_lines(hexform, s.planes)
        assert matched == _axes_by_meets(hexform, s.lines)


def test_plane_off_the_tritangents_raises(planes, hexform):
    # x_0 + h and x_1 - h keep sum(x_i) = 0 but move the planes x_0 + x_j
    # and x_1 + x_j, j > 1, off the 45 tritangent planes
    h = MultiPoly.variable(0, 4)
    x = [hexform.x[0] + h, hexform.x[1] - h] + hexform.x[2:]
    moved = dataclasses.replace(hexform, x=x)
    with pytest.raises(NoDecompositionError, match="not tritangent through"):
        hexahedral_lines(moved, planes)


def test_cs_from_hexahedral_ten_splits(surface, hexform):
    splits = cs_from_hexahedral(hexform, surface)
    assert len(splits) == 10


def test_segre_membership(surface, hexform):
    # surface points land on the Segre-cubic slice cut by the extra relation
    from cubicgeom.blowup import sample_surface_points
    pts = sample_surface_points(surface, 5, seed=2)
    assert segre_membership(hexform, pts)


def _ratio(form, base):
    """The scalar c with form = c * base, read off and then checked."""
    m, lead = base.leading()
    c = form.coefficient(m) / lead
    assert base.scale(c) == form
    return c


@pytest.mark.parametrize("which", ["session", "species3", "eckardt"])
def test_pair_scalars_close_up(request, which):
    # Oracle from the pencil derivation: scale the pair's planes lam*P, Q, R,
    # mu*S, T, U by p, ..., u to (x_j + x_k) / 2.  Then
    # sum(x_i^3) = -24 (pqr lam PQR + stu mu STU) = c (lam PQR + mu STU),
    # so p*q*r = s*t*u, checked here as an identity.
    s = (Session(species_points(3)) if which == "species3"
         else request.getfixturevalue(which))
    cs = s.first_cs
    base = cs.plane_forms()
    base[0], base[3] = base[0].scale(cs.lam), base[3].scale(cs.mu)
    assert len(s.hexforms) == 3
    for hexform in s.hexforms:
        x = hexform.x
        halves = [(x[j] + x[k]).scale(rat(1, 2))
                  for j, k in ((1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4))]
        p, q, r, s_, t, u = (_ratio(h, f) for h, f in zip(halves, base))
        assert p * q * r == s_ * t * u
