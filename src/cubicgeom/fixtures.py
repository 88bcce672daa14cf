"""Reference point sets: the rational fixture and the real-species fixtures."""

from __future__ import annotations

from .field import QQ, rat
from .blowup import SixPoints

FIXTURE_COORDS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 5, 8)]


def fixture_points():
    """Six rational points in general position (the standard test surface)."""
    return SixPoints([[rat(x) for x in p] for p in FIXTURE_COORDS])


def gauss_tower():
    """Q(i) with i^2 = -1; conjugation is i -> -i."""
    return QQ.extend([rat(1), rat(0), rat(1)], name="i")


def species_points(k):
    """Conjugation-stable six-point sets realizing real species 1..4.

    k-1 of the six points come in complex-conjugate pairs over Q(i); species 5
    has no such blow-up model and is only reachable abstractly.
    """
    if k == 1:
        return fixture_points()
    tower = gauss_tower()
    i = tower.gen()
    one = tower.one()
    zero = tower.zero()

    def pt(x, y, z):
        return [x, y, z]

    if k == 2:
        pts = [pt(one, zero, zero), pt(zero, one, zero), pt(zero, zero, one),
               pt(one, one, one),
               pt(one, 1 + i, 2 - i), pt(one, 1 - i, 2 + i)]
    elif k == 3:
        pts = [pt(one, zero, zero), pt(zero, one, zero),
               pt(one, 1 + i, 2 - i), pt(one, 1 - i, 2 + i),
               pt(one, 3 + 2 * i, 1 - i), pt(one, 3 - 2 * i, 1 + i)]
    elif k == 4:
        pts = [pt(one, 1 + i, 2 - i), pt(one, 1 - i, 2 + i),
               pt(one, 3 + 2 * i, 1 - i), pt(one, 3 - 2 * i, 1 + i),
               pt(one, 2 - 3 * i, 5 + i), pt(one, 2 + 3 * i, 5 - i)]
    else:
        raise ValueError("species fixtures exist for k in 1..4")
    return SixPoints(pts, tower)
