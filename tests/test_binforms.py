from cubicgeom.field import rat
from cubicgeom.binforms import irreducible_over_q, _rational_roots


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

