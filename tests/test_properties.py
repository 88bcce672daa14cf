from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cubicgeom.field import (QQ, FieldElement, rat, rat_str, scalar_from_json,
                             scalar_to_json)
from cubicgeom.linalg import ExactMatrix
from cubicgeom.multipoly import MultiPoly, monomials
from cubicgeom.projgeom import ProjPoint, canonicalize

rationals = st.builds(rat, st.integers(-40, 40),
                      st.integers(1, 12))


def _poly(coeffs, degree):
    monos = monomials(3, degree)
    acc = MultiPoly(3)
    for e, c in zip(monos, coeffs):
        acc = acc + MultiPoly(3, {e: c}) if c else acc
    return acc


polys2 = st.builds(_poly, st.lists(rationals, min_size=6, max_size=6),
                   st.just(2))
polys1 = st.builds(_poly, st.lists(rationals, min_size=3, max_size=3),
                   st.just(1))


@settings(max_examples=60, deadline=None)
@given(polys2, polys2, polys2)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=60, deadline=None)
@given(polys2, polys1)
def test_divide_exact_inverts_multiplication(a, b):
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).divide_exact(b) == a


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_kernel_vectors_annihilate(rows):
    m = ExactMatrix([list(r) for r in rows])
    for vec in m.kernel_basis():
        for row in rows:
            assert sum(x * v for x, v in zip(row, vec)) == 0
    assert m.rank() + len(m.kernel_basis()) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_zero_iff_rank_deficient(rows):
    m = ExactMatrix([list(r) for r in rows])
    assert (m.det() == 0) == (m.rank() < 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=4, max_size=4), rationals,
       st.lists(rationals, min_size=4, max_size=4), st.integers(0, 3))
def test_canonicalization_scale_invariant(coords, scale, imag, k):
    if not any(coords) or scale == 0:
        return
    scaled = [scale * c for c in coords]
    assert canonicalize(coords) == canonicalize(scaled)
    p, q = ProjPoint(coords), ProjPoint(scaled)
    assert p == q and hash(p) == hash(q)
    # over Q, ints is the primitive integer vector with a positive lead
    assert all(x.denominator == 1 for x in p.ints)
    assert gcd(*p.ints) == 1 and next(x for x in p.ints if x) > 0
    assert p.coords == canonicalize(p.ints)
    # over Q(i), ints has denominator 1, and equality of points agrees with
    # equality of their canonical coordinates
    gauss = QQ.extend([rat(1), rat(0), rat(1)])
    u = [gauss.embed(a) + gauss.gen() * b for a, b in zip(coords, imag)]
    v = [(gauss.embed(scale) + gauss.gen()) * x for x in u]
    w = u[:k] + [u[k] + 1] + u[k + 1:]
    pu = ProjPoint(u)
    assert all(x.den == 1 if isinstance(x, FieldElement) else x.denominator == 1
               for x in pu.ints)
    for other in (v, w):
        if not any(other):
            continue
        po = ProjPoint(other)
        same = canonicalize(u) == canonicalize(other)
        assert (pu == po) == same
        assert not same or hash(pu) == hash(po)


@settings(max_examples=40, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_field_tower_inverse(a, b, c, d):
    tower = QQ.extend([rat(1), rat(0), rat(1)])
    x = tower.gen() * tower.embed(rat(a, 7)) + tower.embed(rat(b, 5))
    y = tower.gen() * tower.embed(rat(c, 3)) + tower.embed(rat(d, 11))
    if x.is_zero():
        return
    assert x.inverse() * x == tower.one()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


# Levels for the arithmetic oracle, each as its defining polynomials from the
# bottom up in the input's JSON form (a scalar over a level is a "p/q" string
# or a list of scalars over the level below).
ORACLE_LEVELS = {
    "Q(i)": [["1", "0", "1"]],
    "Q(sqrt2)": [["-2", "0", "1"]],
    "Q(omega)": [["1", "1", "1"]],
    "Q(sqrt(1/2))": [["-1/2", "0", "1"]],
    "Q(cbrt2)": [["-2", "0", "0", "1"]],
    "Q(cbrt(1/2))": [["-1/2", "0", "0", "1"]],
    "Q(i)(sqrt(1+i))": [["1", "0", "1"], [["-1", "-1"], "0", "1"]],
}


def _ref(levels, data):
    """A JSON scalar as nested tuples of Fractions, a rational embedded."""
    if not levels:
        return Fraction(data)
    below, n = levels[:-1], len(levels[-1]) - 1
    if isinstance(data, str):
        return (_ref(below, data),) + (_ref(below, "0"),) * (n - 1)
    return tuple(_ref(below, c) for c in data)


def _ref_add(levels, x, y):
    if not levels:
        return x + y
    return tuple(_ref_add(levels[:-1], a, b) for a, b in zip(x, y))


def _ref_neg(levels, x):
    return -x if not levels else tuple(_ref_neg(levels[:-1], a) for a in x)


def _ref_mul(levels, x, y):
    """The dense product, then each top term c t^k replaced by
    -c sum m_i t^(k-n+i) for the monic modulus sum m_i t^i."""
    if not levels:
        return x * y
    below = levels[:-1]
    modulus = [_ref(below, c) for c in levels[-1]]
    n = len(modulus) - 1
    out = [_ref(below, "0")] * (2 * n - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = _ref_add(below, out[i + j], _ref_mul(below, a, b))
    while len(out) > n:
        top = out.pop()
        for i, m in enumerate(modulus[:-1], len(out) - n):
            out[i] = _ref_add(below, out[i], _ref_neg(below, _ref_mul(below, top, m)))
    return tuple(out)


def _json_scalars(levels):
    """JSON scalars over levels, with many zero coefficients."""
    if not levels:
        return st.one_of(st.just("0"), st.builds("{}/{}".format, st.integers(-30, 30),
                                                  st.integers(1, 9)))
    n = len(levels[-1]) - 1
    return st.lists(_json_scalars(levels[:-1]), min_size=n, max_size=n)


rational_operands = st.one_of(st.integers(-6, 6),
                              st.builds(rat, st.integers(-30, 30), st.integers(1, 9)))


@pytest.mark.parametrize("name", sorted(ORACLE_LEVELS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_oracle(name, data):
    levels = ORACLE_LEVELS[name]
    tower = QQ
    for modulus in levels:
        tower = tower.extend([scalar_from_json(tower, c) for c in modulus])
    x_json, y_json = data.draw(_json_scalars(levels)), data.draw(_json_scalars(levels))
    x, y = scalar_from_json(tower, x_json), scalar_from_json(tower, y_json)
    r = data.draw(rational_operands)

    def ref(v):
        # the stored form is canonical: the same value read back is equal
        encoded = scalar_to_json(v)
        again = scalar_from_json(tower, encoded)
        assert v == again and hash(v) == hash(again)
        return _ref(levels, encoded)

    def add(u, v):
        return _ref_add(levels, u, v)

    def sub(u, v):
        return _ref_add(levels, u, _ref_neg(levels, v))

    def mul(u, v):
        return _ref_mul(levels, u, v)

    rx, ry, rr = ref(x), ref(y), _ref(levels, rat_str(rat(r)))
    operands = [(y, ry), (r, rr)]
    if tower.height > 1:
        z = scalar_from_json(tower.base, data.draw(_json_scalars(levels[:-1])))
        zero_rest = ["0"] * (len(levels[-1]) - 2)
        operands.append((z, _ref(levels, [scalar_to_json(z)] + zero_rest)))
    for w, rw in operands:
        assert ref(x + w) == ref(w + x) == add(rx, rw)
        assert ref(x - w) == sub(rx, rw) and ref(w - x) == sub(rw, rx)
        assert ref(x * w) == ref(w * x) == mul(rx, rw)
        assert (x == w) == (w == x) == (rx == rw)
        if rx == rw:
            assert hash(x) == hash(w)
    assert ref(-x) == _ref_neg(levels, rx)
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert hash(tower.embed(r)) == hash(r) and tower.embed(r) == r
    if x:
        assert x != x / 2
        inv = x.inverse()
        assert mul(rx, ref(inv)) == _ref(levels, "1")
        assert ref(y / x) == mul(ry, ref(inv)) and ref(r / x) == mul(rr, ref(inv))
    if r:
        assert ref(x / r) == mul(rx, _ref(levels, rat_str(1 / rat(r))))
