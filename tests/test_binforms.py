import pytest

from cubicgeom.field import rat
from cubicgeom.fixtures import gauss_tower
from cubicgeom.binforms import (eval_binary, deflate_binary_form,
                                irreducible_over_q, _rational_roots,
                                NotARootError)


def test_rational_roots():
    # (t - 1)(t - 2)(t + 3), constant first
    assert _rational_roots([rat(6), rat(-7), rat(0), rat(1)]) == [-3, 1, 2]
    # 4t^2 - 1 and t^2 - t: a monic transform and a root at zero
    assert _rational_roots([rat(-1), rat(0), rat(4)]) == [rat(-1, 2), rat(1, 2)]
    assert _rational_roots([rat(0), rat(-1), rat(1)]) == [0, 1]


def test_irreducible_cubic_root():
    # t^3 - 2 has no rational root; t^3 - 8 has the root 2
    assert _rational_roots([rat(-2), rat(0), rat(0), rat(1)]) == []
    assert irreducible_over_q([rat(-2), rat(0), rat(0), rat(1)])
    assert not irreducible_over_q([rat(-8), rat(0), rat(0), rat(1)])


def test_multiple_root_rejected():
    # (t - 1)^2 (t + 1) and t^2: a repeated root is no irreducible level
    assert not irreducible_over_q([rat(1), rat(-1), rat(-1), rat(1)])
    assert not irreducible_over_q([rat(0), rat(0), rat(1)])
    assert irreducible_over_q([rat(1), rat(0), rat(1)])


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
