import pytest

from cubicgeom.field import QQ, rat, is_rational
from cubicgeom.fixtures import gauss_tower
from cubicgeom.binforms import (solve_cubic, eval_binary, deflate_binary_form,
                                MultipleRootError, NotARootError)


def _check_root(coeffs, root):
    (t, u), tower = root
    emb = [tower.embed(c) for c in coeffs]
    te = tower.embed(t) if is_rational(t) else t
    ue = tower.embed(u) if is_rational(u) else u
    val = eval_binary(emb, te, ue)
    assert val == tower.zero()


def test_rational_roots():
    # (t - u)(t - 2u)(t + 3u)
    coeffs = [rat(1), rat(0), rat(-7), rat(6)]
    roots = solve_cubic(coeffs)
    assert len(roots) == 3
    assert all(tower is QQ for _, tower in roots)
    for root in roots:
        _check_root(coeffs, root)


def test_quadratic_extension_root():
    # (t - u)(t^2 - 2u^2)
    coeffs = [rat(1), rat(-1), rat(-2), rat(2)]
    roots = solve_cubic(coeffs)
    assert sorted(tower.height for _, tower in roots) == [0, 1]
    for root in roots:
        _check_root(coeffs, root)


def test_irreducible_cubic_root():
    # t^3 - 2u^3
    coeffs = [rat(1), rat(0), rat(0), rat(-2)]
    roots = solve_cubic(coeffs)
    assert len(roots) == 1
    assert roots[0][1].height == 1
    _check_root(coeffs, roots[0])


def test_multiple_root_rejected():
    # (t - u)^2 (t + u)
    coeffs = [rat(1), rat(-1), rat(-1), rat(1)]
    with pytest.raises(MultipleRootError):
        solve_cubic(coeffs)


def test_root_at_infinity():
    # u (t - u)(t + u): degenerate leading coefficient
    coeffs = [rat(0), rat(1), rat(0), rat(-1)]
    roots = solve_cubic(coeffs)
    assert ((rat(1), rat(0)), QQ) in [(tuple(r), t) for r, t in roots]
    for root in roots:
        _check_root(coeffs, root)


def test_deflate_roundtrip():
    coeffs = [rat(1), rat(0), rat(-7), rat(6)]
    rest = deflate_binary_form(coeffs, [((rat(1), rat(1)), 1)])
    # remaining quadratic has roots 2 and -3
    assert eval_binary(rest, rat(2), rat(1)) == 0
    assert eval_binary(rest, rat(-3), rat(1)) == 0


def test_deflate_root_at_infinity_over_gauss():
    # -t (s - i t)(s + 2t): dividing by -t for (1 : 0) and by s - i t for
    # (i : 1) leaves s + 2t exactly
    i = gauss_tower().gen()
    coeffs = [rat(0), rat(-1), i - 2, 2 * i]
    rest = deflate_binary_form(coeffs, [((rat(1), rat(0)), 1), ((i, rat(1)), 1)])
    assert rest == [1, 2]
    with pytest.raises(NotARootError):
        deflate_binary_form(coeffs, [((rat(1), rat(0)), 2)])


def test_irreducible_cubic_over_gauss_builds_degree_six():
    # t^3 - 2u^3 over Q(i): the root lives in Q(i)(cbrt 2)
    coeffs = [rat(1), rat(0), rat(0), rat(-2)]
    gauss = gauss_tower()
    roots = solve_cubic(coeffs, gauss)
    assert len(roots) == 1
    (t, u), tower = roots[0]
    assert (tower.height, tower.degree) == (2, 6)
    assert tower.base == gauss
    assert t * t * t == 2 * u * u * u
    _check_root(coeffs, roots[0])
