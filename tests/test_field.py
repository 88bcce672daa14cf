import random

import pytest

from cubicgeom.field import (QQ, FieldElement, FieldTower, ZeroDivisorError,
                             mpq, rat, rat_str, is_rational, scalar_from_json,
                             inverse, clear_denominators, residue,
                             _poly_divmod, _poly_mul, _poly_xgcd)
from cubicgeom.projgeom import ProjPoint


def test_rat_exact():
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat("7/3") == rat(7, 3)
    assert rat_str(rat(-5, 10)) == "-1/2"


def test_tower_degree_two():
    tower = QQ.extend([rat(1), rat(0), rat(1)], name="i")
    i = tower.gen()
    assert i * i == tower.embed(rat(-1))
    assert (i + tower.one()).inverse() * (i + tower.one()) == tower.one()


def test_tower_degree_three():
    tower = QQ.extend([rat(-2), rat(0), rat(0), rat(1)])
    t = tower.gen()
    assert t * t * t == tower.embed(rat(2))
    inv = t.inverse()
    assert inv * t == tower.one()


def test_conjugation_involution():
    tower = QQ.extend([rat(1), rat(0), rat(1)], name="i")
    x = tower.gen() * tower.embed(rat(3)) + tower.embed(rat(2))
    assert x.conjugate().conjugate() == x
    assert x + x.conjugate() == tower.embed(rat(4))


def test_reducible_modulus_detected():
    # x^2 - 1 factors, so inverting x - 1 hits a zero divisor
    tower = QQ.extend([rat(-1), rat(0), rat(1)])
    bad = tower.gen() - tower.one()
    with pytest.raises(ZeroDivisorError):
        bad.inverse()


def test_scalar_json_roundtrip():
    tower = QQ.extend([rat(1), rat(0), rat(1)])
    x = tower.gen() + tower.embed(rat(5, 7))
    assert scalar_from_json(tower, x.to_json()) == x
    assert scalar_from_json(QQ, rat_str(rat(-3, 4))) == rat(-3, 4)


def test_is_rational_predicate():
    tower = QQ.extend([rat(1), rat(0), rat(1)])
    assert is_rational(rat(2))
    assert not is_rational(tower.gen())


def _gauss_cbrt2():
    """Q(i)(t) with t^3 = 2, and its generators i and t."""
    gauss = QQ.extend([rat(1), rat(0), rat(1)], name="i")
    tower = gauss.extend([rat(-2), rat(0), rat(0), rat(1)], name="t")
    return tower, gauss.gen(), tower.gen()


def test_height_two_tower_arithmetic():
    tower, i, t = _gauss_cbrt2()
    assert (tower.height, tower.degree) == (2, 6)
    assert t * t * t == 2
    x = t + i
    assert x * x.inverse() == tower.one()
    assert x.inverse() * x == 1


def test_expressions_mix_rationals_and_levels():
    tower, i, t = _gauss_cbrt2()
    x = rat(1, 2) + i * t - 3
    assert x.tower is tower
    assert x - i * t == rat(-5, 2)
    assert (i + t) - t == i
    assert i * i * t == -t
    assert (x + 3) / t == rat(1, 2) / t + i
    assert (2 * i + t * t) * rat(1, 2) == i + t * t / 2


def test_conjugation_on_top_level_over_gauss():
    gauss = QQ.extend([rat(1), rat(0), rat(1)], name="i")
    i = gauss.gen()
    tower = gauss.extend([rat(-2), rat(0), rat(1)], name="s")
    s = tower.gen()
    x = i + (1 + i) * s
    assert x.conjugate() == i - (1 + i) * s
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    assert norm == i * i - (1 + i) * (1 + i) * 2


def test_scalar_json_roundtrip_height_two():
    tower, i, t = _gauss_cbrt2()
    x = i + rat(5, 7) * t + i * t * t
    data = x.to_json()
    assert data == [["0/1", "1/1"], ["5/7", "0/1"], ["0/1", "1/1"]]
    assert scalar_from_json(tower, data) == x
    assert scalar_from_json(tower, "3/4") == rat(3, 4)


def test_hash_agrees_across_heights():
    tower, i, t = _gauss_cbrt2()
    lifted = tower.embed(i)
    assert lifted == i
    assert hash(lifted) == hash(i)
    assert len({lifted, i}) == 1
    assert hash(tower.embed(rat(2, 3))) == hash(rat(2, 3))
    # a level over Q hashes its integer numerators; rational values stay
    # pinned to the rational's hash
    gauss = i.tower
    half = (i * i + 3) / 4
    assert half == rat(1, 2) and hash(half) == hash(rat(1, 2))
    assert hash(gauss.embed(rat(-7, 5))) == hash(rat(-7, 5))
    assert len({half, rat(1, 2), tower.embed(half)}) == 1


def test_arithmetic_builds_no_tower(monkeypatch):
    gauss = QQ.extend([rat(1), rat(0), rat(1)], name="i")
    i = gauss.gen()
    calls = []
    init = FieldTower.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldTower, "__init__", counting_init)
    for k in range(1, 20):
        x = (k + 2 * i) * (rat(1, k) - i) + rat(1, k)
        assert x * x.inverse() == 1
        assert (x / (i + k) - x * (i + k).inverse()).is_zero()
    assert calls == []


def _gauss_over_q():
    return QQ.extend([rat(1), rat(0), rat(1)], name="i")


def _gauss_sqrt():
    """Q(i)(s) with s^2 = 1 + i: a degree-2 level over a degree-2 level."""
    gauss = _gauss_over_q()
    return gauss.extend([-1 - gauss.gen(), rat(0), rat(1)])


# Q(omega) has modulus x^2 + x + 1, so its m1 terms count.
QUADRATIC_LEVELS = {
    "Q(i)": _gauss_over_q,
    "Q(sqrt2)": lambda: QQ.extend([rat(-2), rat(0), rat(1)]),
    "Q(omega)": lambda: QQ.extend([rat(1), rat(1), rat(1)]),
    "Q(i)(s)": _gauss_sqrt,
}


def _draw(rng, tower):
    if tower is QQ:
        return rat(rng.randint(-9, 9), rng.randint(1, 6))
    return FieldElement(tower, [_draw(rng, tower.base), _draw(rng, tower.base)])


@pytest.mark.parametrize("level", sorted(QUADRATIC_LEVELS))
def test_quadratic_closed_forms_match_polynomial_helpers(level):
    tower = QUADRATIC_LEVELS[level]()
    base, modulus = tower.base, tower.modulus
    rng = random.Random(16)
    for _ in range(40):
        x, y = _draw(rng, tower), _draw(rng, tower)
        product = _poly_divmod(_poly_mul(x.coeffs, y.coeffs, base), modulus,
                               base)[1]
        assert (x * y).coeffs == FieldElement(tower, product).coeffs
        if x.is_zero():
            continue
        g, s = _poly_xgcd(x.coeffs, modulus, base)
        assert len(g) == 1
        inverse = FieldElement(tower, [c / g[0] for c in s])
        assert x.inverse().coeffs == inverse.coeffs
        assert x * x.inverse() == 1


def test_zero_norm_raises_zero_divisor():
    # over Q(i), x^2 + 1 = (x - i)(x + i): theta - i has norm 0
    gauss = _gauss_over_q()
    tower = gauss.extend([rat(1), rat(0), rat(1)])
    with pytest.raises(ZeroDivisorError):
        (tower.gen() - gauss.gen()).inverse()


def test_levels_pad_with_one_cached_zero():
    tower = _gauss_over_q().extend([rat(-2), rat(0), rat(0), rat(1)])
    assert tower.zero() is tower.zero()
    assert tower.base.zero() is tower.base.zero()
    x = tower.embed(rat(3))
    assert x.coeffs[1] is tower.base.zero() and x.coeffs[2] is tower.base.zero()
    # a level over Q stores integer numerators over one positive denominator
    low = x.coeffs[0]
    assert (low.num, low.den) == ((3, 0), 1)
    y = tower.base.embed(rat(4, 6)) + tower.base.gen() * rat(2, 9)
    assert (y.num, y.den) == ((6, 2), 9)
    assert (-y / 2).den == 9 and (y * 0).den == 1


def test_inverse_is_exact_for_int_mpq_and_tower_elements():
    for x in (3, -4):
        inv = inverse(x)
        assert type(inv) is mpq and inv * x == 1
    assert inverse(3) == rat(1, 3)
    assert inverse(rat(-2, 7)) == rat(-7, 2) and type(inverse(rat(2, 7))) is mpq
    tower, i, t = _gauss_cbrt2()
    for x in (1 + 2 * i, _gauss_over_q().gen() + 3, t - i):
        assert inverse(x) * x == 1
    with pytest.raises(ZeroDivisionError):
        inverse(0)


def test_point_of_integer_coordinates_holds_exact_rationals():
    point = ProjPoint([2, 4, 6, 8])
    assert all(type(c) is mpq for c in point.coords)
    assert point.coords == (1, 2, 3, 4)
    assert ProjPoint([0, 3, 1, -2]).coords == (0, 1, rat(1, 3), rat(-2, 3))


def test_clear_denominators_per_level():
    m, cleared = clear_denominators([rat(1, 6), rat(-3, 4), 0, 5])
    assert m == 12 and cleared == [2, -9, 0, 60]
    assert all(type(c) is int for c in cleared)
    gauss = _gauss_over_q()
    i = gauss.gen()
    values = [i / 6 + rat(1, 4), rat(2, 3), gauss.zero()]
    m, cleared = clear_denominators(values)
    assert m == 12
    assert cleared == [12 * x for x in values]
    assert [c.den for c in cleared if isinstance(c, FieldElement)] == [1, 1]
    tower, i, t = _gauss_cbrt2()
    values = [t / 2, i / 4, rat(1, 3)]
    m, cleared = clear_denominators(values)
    assert m == 12
    assert cleared == [12 * x for x in values]
    assert cleared[:2] == [t * 6, i * 3]


def test_residue_is_a_ring_map_onto_z_mod_p():
    p, root = 13, 5     # 5^2 = -1 (mod 13)
    assert residue(-1, p, root) == 12
    i = _gauss_over_q().gen()
    x, y = i * 2 + 3, i * -4 + 1
    assert residue(x, p, root) == (3 + 2 * root) % p
    assert residue(x * y, p, root) == residue(x, p, root) * residue(y, p, root) % p
    assert residue(i / 2, p, root) is None      # denominator 2
    assert residue(i, p, 2) is None             # 2^2 + 1 != 0 (mod 13)
    sqrt2 = QQ.extend([rat(-2), rat(0), rat(1)]).gen()
    assert residue(sqrt2, p, root) is None
    assert residue(_gauss_cbrt2()[2], p, root) is None   # a level above Q(i)
