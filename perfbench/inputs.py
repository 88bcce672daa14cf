"""Seeded six-point inputs for the benchmark workloads.

Each input is written as the schema-1 JSON that ``cubicgeom --input`` reads,
so any operation of a run can be replayed by hand.  Inputs come only from the
workload name, the benchmark seed and the operation index.  An input is
redrawn only when it is degenerate: two points coincide, three are collinear
or all six lie on a conic, the cases ``SixPoints`` rejects with
``DegeneratePointsError``.  Inputs with Eckardt points are kept.
"""

import itertools
import json
import math
import random

FRAME = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
README_FIXTURE = FRAME + [(1, 2, 3), (1, 5, 8)]
ECKARDT_INPUT = FRAME + [(1, 2, 3), (1, 3, -2)]
HEIGHT = 9          # largest |coordinate| of a drawn rational point
GAUSS_RE = 5        # largest |a|, |c| of a drawn point (1 : a+bi : c+di)
GAUSS_IM = 3        # largest |b|, |d|

# Gaussian integers are (re, im) pairs; rational points use im = 0.


def _g(x):
    return x if isinstance(x, tuple) else (x, 0)


def _gmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _det(rows):
    """Leibniz determinant over the Gaussian integers (n <= 6)."""
    n = len(rows)
    total = (0, 0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = (-1 if inversions % 2 else 1, 0)
        for r, c in enumerate(perm):
            term = _gmul(term, _g(rows[r][c]))
            if term == (0, 0):
                break
        total = (total[0] + term[0], total[1] + term[1])
    return total


def _conic_row(p):
    x, y, z = (_g(c) for c in p)
    return [_gmul(x, x), _gmul(x, y), _gmul(x, z), _gmul(y, y), _gmul(y, z),
            _gmul(z, z)]


def general_position(points):
    """The conditions of ``cubicgeom.blowup.check_general_position``.

    Coincident points are caught as collinear triples.
    """
    if any(_det(list(t)) == (0, 0) for t in itertools.combinations(points, 3)):
        return False
    return _det([_conic_row(p) for p in points]) != (0, 0)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _conic_through(points):
    """Symmetric matrix of the conic through five rational points."""
    rows = [_conic_row(p) for p in points]
    # The kernel of a rank-5 5x6 matrix: signed maximal minors.
    coeffs = []
    for k in range(6):
        minor = [[r[c][0] for c in range(6) if c != k] for r in rows]
        coeffs.append((-1) ** k * _det(minor)[0])
    a, b, c, d, e, f = coeffs      # x^2, xy, xz, y^2, yz, z^2
    return [[2 * a, b, c], [b, 2 * d, e], [c, e, 2 * f]]


def eckardt_trios(points):
    """Tritangent trios whose three lines meet, for six rational points.

    Uses the plane model, independent of the library: c_ij, c_kl, c_mn meet
    when the lines p_i p_j, p_k p_l, p_m p_n of the plane do, and a_i, b_j,
    c_ij meet when p_i p_j is tangent at p_i to the conic through the five
    points other than p_j.
    """
    found = []
    for i, j, k, l, m, n in _pairings(range(6)):
        lines = [_cross(points[i], points[j]), _cross(points[k], points[l]),
                 _cross(points[m], points[n])]
        if _det(lines) == (0, 0):
            found.append(f"c{i + 1}{j + 1},c{k + 1}{l + 1},c{m + 1}{n + 1}")
    for i, j in itertools.permutations(range(6), 2):
        conic = _conic_through([p for t, p in enumerate(points) if t != j])
        tangent = [sum(conic[r][s] * points[i][s] for s in range(3))
                   for r in range(3)]
        if sum(t * q for t, q in zip(tangent, points[j])) == 0:
            lo, hi = sorted((i + 1, j + 1))
            found.append(f"a{i + 1},b{j + 1},c{lo}{hi}")
    return found


def _pairings(items):
    items = list(items)
    if not items:
        yield ()
        return
    first = items[0]
    for partner in items[1:]:
        rest = [x for x in items[1:] if x != partner]
        for tail in _pairings(rest):
            yield (first, partner) + tail


def _rational_point(rng):
    while True:
        p = tuple(rng.randint(-HEIGHT, HEIGHT) for _ in range(3))
        if any(p) and math.gcd(*p) == 1:
            sign = -1 if next(c for c in p if c) < 0 else 1
            return tuple(sign * c for c in p)


def _conjugate_pair(rng):
    while True:
        a, c = rng.randint(-GAUSS_RE, GAUSS_RE), rng.randint(-GAUSS_RE, GAUSS_RE)
        b, d = rng.randint(-GAUSS_IM, GAUSS_IM), rng.randint(-GAUSS_IM, GAUSS_IM)
        if b or d:
            return [(1, (a, b), (c, d)), (1, (a, -b), (c, -d))]


def rational_draw(rng):
    """The frame plus two seeded points of height <= 9 in general position."""
    while True:
        points = FRAME + [_rational_point(rng), _rational_point(rng)]
        if general_position(points):
            return points


def species_draw(rng, k):
    """k - 1 seeded conjugate pairs over Q(i) plus 8 - 2k frame points."""
    while True:
        points = FRAME[:6 - 2 * (k - 1)]
        for _ in range(k - 1):
            points = points + _conjugate_pair(rng)
        if general_position(points):
            return points


def rng_for(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def to_json(points):
    """Schema-1 input; Q(i) points make the file declare the field i^2 = -1."""
    gaussian = any(isinstance(c, tuple) for p in points for c in p)

    def enc(c):
        if isinstance(c, tuple):
            return [str(c[0]), str(c[1])]
        return [str(c), "0"] if gaussian else str(c)

    data = {"schema": 1, "points": [[enc(c) for c in p] for p in points]}
    if gaussian:
        data["field"] = {"levels": [["1", "0", "1"]]}
    return json.dumps(data, sort_keys=True)
