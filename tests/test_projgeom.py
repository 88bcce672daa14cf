import itertools
import random

import pytest

from cubicgeom.field import rat
from cubicgeom.fixtures import gauss_tower
from cubicgeom.projgeom import (ProjPoint, ProjPlane, ProjLine, span_plane,
                                plane_through_line, meet_planes, meet_lines,
                                meet_coplanar, meet_line_plane, lines_meet,
                                plucker_pairing, plucker_relation_holds,
                                CollinearError, EqualLinesError)


def _pt(*xs):
    return ProjPoint([rat(x) for x in xs])


def test_point_canonicalization():
    assert _pt(2, 4, 6, 0) == _pt(1, 2, 3, 0)
    assert _pt(0, -3, 6, 9) == _pt(0, 1, -2, -3)


def test_span_and_meet_roundtrip():
    p1, p2, p3 = _pt(1, 0, 0, 0), _pt(0, 1, 0, 0), _pt(0, 0, 1, 1)
    h = span_plane(p1, p2, p3)
    for p in (p1, p2, p3):
        assert h.contains(p)
    with pytest.raises(CollinearError):
        span_plane(p1, p2, _pt(1, 1, 0, 0))


def test_plucker_relation_and_meeting():
    l1 = ProjLine(_pt(1, 0, 0, 0), _pt(0, 1, 0, 0))
    l2 = ProjLine(_pt(1, 0, 0, 0), _pt(0, 0, 1, 0))
    l3 = ProjLine(_pt(0, 0, 1, 0), _pt(0, 0, 0, 1))
    assert plucker_relation_holds(l1)
    assert lines_meet(l1, l2)
    assert not lines_meet(l1, l3)
    assert plucker_pairing(l1, l2) == 0
    assert meet_lines(l1, l2) == _pt(1, 0, 0, 0)


def test_meet_lines_closed_form():
    # through (1:1:1:1): one line on the x_3 = x_0 plane, one in x_2 = x_1
    x = _pt(1, 1, 1, 1)
    l1 = ProjLine(x, _pt(1, 2, 3, 1))
    l2 = ProjLine(_pt(0, 1, 1, 5), x)
    assert meet_lines(l1, l2) == x == meet_lines(l2, l1)
    # integral coordinates in, integral coordinates out
    point = meet_coplanar([1, 2, 3, 1], [3, 4, 5, 3], l2.plucker)
    assert ProjPoint(point) == x
    with pytest.raises(EqualLinesError):
        meet_lines(l1, ProjLine(_pt(3, 4, 5, 3), _pt(1, 2, 3, 1)))
    skew = ProjLine(_pt(0, 0, 1, 0), _pt(0, 0, 0, 1))
    with pytest.raises(ValueError, match="do not meet"):
        meet_lines(ProjLine(_pt(1, 0, 0, 0), _pt(0, 1, 0, 0)), skew)


def test_meet_planes_and_line_plane():
    h1 = ProjPlane([rat(1), rat(0), rat(0), rat(0)])
    h2 = ProjPlane([rat(0), rat(1), rat(0), rat(0)])
    axis = meet_planes(h1, h2)
    assert h1.contains(axis.p) and h1.contains(axis.q)
    assert h2.contains(axis.p) and h2.contains(axis.q)
    line = ProjLine(_pt(1, 0, 0, 0), _pt(0, 0, 0, 1))
    assert meet_line_plane(line, h1) == _pt(0, 0, 0, 1)


def test_plane_through_line():
    line = ProjLine(_pt(1, 0, 0, 0), _pt(0, 1, 0, 0))
    h = plane_through_line(line, _pt(0, 0, 1, 0))
    assert h == ProjPlane([rat(0), rat(0), rat(0), rat(1)])


def _rank(rows):
    """Rank by plain Gaussian elimination, independent of linalg."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("over", ["Q", "Q(i)"])
def test_line_contains_matches_rank_oracle(over):
    rng = random.Random(7)
    i = gauss_tower().gen() if over == "Q(i)" else rat(0)

    def scalar():
        return rat(rng.randint(-4, 4)) + rng.randint(-3, 3) * i

    def point():
        return ProjPoint([scalar() for _ in range(4)])

    seen = set()
    for _ in range(30):
        p, q = point(), point()
        if p == q:
            continue
        line = ProjLine(p, q)
        s, t = scalar(), scalar()
        on = [a * s + b * t for a, b in zip(p.coords, q.coords)]
        candidates = [point(), p, q]
        if any(on):
            candidates.append(ProjPoint(on))
        for x in candidates:
            expected = _rank([p.coords, q.coords, x.coords]) == 2
            assert line.contains(x) == expected
            seen.add(expected)
    # a coordinate line, and points on and off it
    axis = ProjLine(_pt(1, 0, 0, 0), _pt(0, 1, 0, 0))
    for coords in itertools.product((0, 1), repeat=4):
        if any(coords):
            expected = not coords[2] and not coords[3]
            assert axis.contains(_pt(*coords)) == expected
    assert seen == {True, False}
