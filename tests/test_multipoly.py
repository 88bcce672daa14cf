import pytest

from cubicgeom.binforms import binary_from_poly, binary_gcd_degree
from cubicgeom.field import rat
from cubicgeom.fixtures import gauss_tower
from cubicgeom.linalg import signed_minors
from cubicgeom.multipoly import (MultiPoly, monomials, coprime_on_a_line,
                                 CERTIFICATE_LINES)


def _xyz():
    return [MultiPoly.variable(i, 3) for i in range(3)]


def test_ring_operations():
    x, y, z = _xyz()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.degree() == 2
    assert p.evaluate([rat(3), rat(2), rat(0)]) == 5


def test_divide_exact_roundtrip():
    x, y, z = _xyz()
    a = x * x + y * z
    b = x + y + z.scale(rat(2))
    assert (a * b).divide_exact(b) == a
    with pytest.raises(ValueError):
        (a * b + MultiPoly.constant(3, rat(1))).divide_exact(b)


def test_monomials_grlex_count():
    assert len(monomials(4, 3)) == 20
    assert len(monomials(3, 2)) == 6
    assert monomials(2, 1) == [(1, 0), (0, 1)]


def _xyzw():
    return [MultiPoly.variable(i, 4) for i in range(4)]


def _degree_on(line, forms):
    p, q = line
    return binary_gcd_degree([binary_from_poly(f.restrict(p, q), f.degree())
                              for f in forms])


def test_shared_linear_factor_is_not_certified():
    x, y, z, w = _xyzw()
    g = x - y + z.scale(rat(2))
    assert not coprime_on_a_line([g * x, g * y, g * (x + w)])
    assert coprime_on_a_line([x, y, z + w])


def test_factor_shared_at_infinity_on_first_line():
    # 2x - y vanishes at the first point of the first line, so there it
    # restricts to a multiple of t: a common root (1 : 0) and no other
    x, y, z, w = _xyzw()
    g = x.scale(rat(2)) - y
    forms = [g * x, g * y, g * z]
    assert _degree_on(CERTIFICATE_LINES[0], forms) == 1
    assert not coprime_on_a_line(forms)


def test_common_root_on_first_line_is_certified_by_a_later_line():
    # both planes pass through p + q = (4 : 1 : 1 : 7) of the first line
    x, y, z, w = _xyzw()
    forms = [x - y.scale(rat(4)), (y - z) * w]
    assert _degree_on(CERTIFICATE_LINES[0], forms) == 1
    assert _degree_on(CERTIFICATE_LINES[1], forms) == 0
    assert coprime_on_a_line(forms)


def test_certificate_over_gauss():
    i = gauss_tower().gen()
    x, y, z, w = _xyzw()
    g = x + y.scale(i)
    assert not coprime_on_a_line([g * z, g * (w + x.scale(i))])
    assert coprime_on_a_line([g, x - y.scale(i)])


def test_line_inside_every_form_is_skipped():
    # two planes through the first line: coprime, but both vanish on it
    p, q = CERTIFICATE_LINES[0]
    planes = [MultiPoly.linear_form(signed_minors([p, q, r]))
              for r in ([1, 0, 0, 0], [0, 1, 0, 0])]
    assert _degree_on(CERTIFICATE_LINES[0], planes) is None
    assert coprime_on_a_line(planes)


def test_substitute_and_gradient():
    x, y, z = _xyz()
    p = x * x * y
    q = p.substitute([y, z, x])          # x->y, y->z, z->x
    assert q == y * y * z
    gx = p.partial(0)
    assert gx == (x * y).scale(rat(2))
    assert [g.nvars for g in p.gradient()] == [3, 3, 3]
