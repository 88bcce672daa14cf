"""Exact projective primitives in P^2 and P^3.

Points and plane covectors are canonicalized so the first nonzero coordinate
is 1; lines carry a spanning pair of points and a cached Plucker 6-vector in
the order (01, 02, 03, 12, 13, 23), canonicalized the same way.  A line
prints as its Plucker vector and a span that depends on the line alone, not
on the pair it was built from.

Each object also keeps ``ints``, its field.primitive vector, computed once
when it is built: over Q the primitive integer vector with a positive lead,
above Q the canonical vector cleared to integral entries.  The canonical
vector is ``ints`` divided by its first nonzero entry, so equality and
hashing compare ``ints`` and agree with comparing the canonical vectors.
Incidences, meets and spans are computed on ``ints``: they are homogeneous,
so a scale changes no zero test and no canonical result.
"""

from __future__ import annotations

from .field import rat, inverse, scalar_to_json, canonicalize, primitive
from .linalg import ExactMatrix, signed_minors


class CollinearError(ValueError):
    pass


class EqualPlanesError(ValueError):
    pass


class EqualLinesError(ValueError):
    pass


class ProjPoint:
    __slots__ = ("coords", "ints")

    def __init__(self, coords):
        self.ints = primitive(coords)
        self.coords = canonicalize(self.ints)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def __len__(self):
        return len(self.coords)

    def map_coords(self, fn):
        return ProjPoint([fn(c) for c in self.coords])

    def to_json(self):
        return [scalar_to_json(c) for c in self.coords]


class ProjPlane:
    """A plane in P^3 as a coefficient covector."""

    __slots__ = ("coeffs", "ints")

    def __init__(self, coeffs):
        self.ints = primitive(coeffs)
        self.coeffs = canonicalize(self.ints)

    def contains(self, point):
        (a, b, c, d), (x, y, z, w) = self.ints, point.ints
        return not (a * x + b * y + c * z + d * w)

    def contains_line(self, line):
        return self.contains(line.p) and self.contains(line.q)

    def __eq__(self, other):
        return isinstance(other, ProjPlane) and self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __repr__(self):
        return "Plane" + repr(list(map(str, self.coeffs)))

    def map_coords(self, fn):
        return ProjPlane([fn(c) for c in self.coeffs])

    def to_json(self):
        return [scalar_to_json(c) for c in self.coeffs]


class ProjLine:
    """A line in P^3 spanned by two points, with cached Plucker coordinates."""

    __slots__ = ("p", "q", "plucker", "ints")

    def __init__(self, p, q):
        raw = plucker_vector(p.ints, q.ints)
        if not any(raw):
            raise ValueError("points do not span a line")
        self.p = p
        self.q = q
        self.ints = primitive(raw)
        self.plucker = canonicalize(self.ints)

    def contains(self, point):
        """Whether the point lies on the line: its four incidences vanish."""
        return not any(incidences(self.ints, point.ints))

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __repr__(self):
        return f"Line[{self.p!r}, {self.q!r}]"

    def map_coords(self, fn):
        return ProjLine(self.p.map_coords(fn), self.q.map_coords(fn))

    def span(self):
        """The line's first two distinct meets with the coordinate planes
        x_k = 0: nonzero columns k of the matrix p q^T - q p^T, whose
        entries are the Plucker coordinates."""
        v = self.ints
        index = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
        columns = [[v[index[i, k]] if i < k else -v[index[k, i]] if i > k
                    else rat(0) for i in range(4)] for k in range(4)]
        return list(dict.fromkeys(ProjPoint(c) for c in columns if any(c)))[:2]

    def to_json(self):
        return {"span": [x.to_json() for x in self.span()],
                "plucker": [scalar_to_json(c) for c in self.plucker]}


def span_plane(p1, p2, p3):
    """The plane through three points of P^3; raises CollinearError."""
    minors = signed_minors([p1.ints, p2.ints, p3.ints])
    if not any(minors):
        raise CollinearError("points are collinear")
    # An exact rational 1 at the last nonzero minor, as in the kernel vector
    # of the 3x4 matrix: a coordinate plane through points over an extension
    # keeps a rational coefficient, which is how the reports print it.
    last = max(k for k, m in enumerate(minors) if m)
    inv = inverse(minors[last])
    return ProjPlane([rat(1) if k == last else m * inv
                      for k, m in enumerate(minors)])


def plane_through_line(line, point):
    """The plane spanned by a line and a point off it."""
    return span_plane(line.p, line.q, point)


def plane_of_lines(l1, l2):
    """The plane of two distinct meeting lines."""
    return plane_through_line(l1, l2.p if not l1.contains(l2.p) else l2.q)


def meet_planes(h1, h2):
    """The intersection line of two distinct planes."""
    if h1 == h2:
        raise EqualPlanesError("planes coincide")
    m = ExactMatrix([list(h1.ints), list(h2.ints)])
    kern = m.kernel_basis()
    return ProjLine(ProjPoint(kern[0]), ProjPoint(kern[1]))


def plucker_pairing(l1, l2):
    a, b = l1.ints, l2.ints
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[3] * b[2] - a[4] * b[1] + a[5] * b[0])


def lines_meet(l1, l2):
    """Whether two distinct lines of P^3 intersect."""
    if l1 == l2:
        raise EqualLinesError("lines coincide")
    return not plucker_pairing(l1, l2)


def incidences(v, x):
    """The four incidences p_ij x_k - p_ik x_j + p_jk x_i (i < j < k) of a
    point x and the line of Plucker vector v, lazily: the 3x3 minors of the
    matrix of two points of the line and x.  Each is the value at x of a
    plane through the line, and x lies on the line exactly when all vanish."""
    yield v[0] * x[2] - v[1] * x[1] + v[3] * x[0]
    yield v[0] * x[3] - v[2] * x[1] + v[4] * x[0]
    yield v[1] * x[3] - v[2] * x[2] + v[5] * x[0]
    yield v[3] * x[3] - v[4] * x[2] + v[5] * x[1]


def plucker_vector(p, q):
    """The Plucker vector of the line through p and q, unscaled, in the
    order (01, 02, 03, 12, 13, 23); zero when p and q are dependent."""
    return [p[i] * q[j] - p[j] * q[i]
            for i in range(4) for j in range(i + 1, 4)]


def meet_coplanar(p, q, v):
    """Coordinates of the meet of the line through p and q with a coplanar
    line of Plucker vector v, by +, - and * alone.  The first incidence of v
    that is nonzero at p or q is a plane through v's line that misses pq, and
    it meets pq at c(q) p - c(p) q; that point must pass all four incidences.
    Raises EqualLinesError if the lines coincide, ValueError if they are
    skew."""
    for cp, cq in zip(incidences(v, p), incidences(v, q)):
        if cp or cq:
            x = [cq * a - cp * b for a, b in zip(p, q)]
            if any(incidences(v, x)):
                raise ValueError("lines do not meet in a single point")
            return x
    raise EqualLinesError("lines coincide")


def meet_lines(l1, l2):
    """The intersection point of two distinct meeting lines."""
    return ProjPoint(meet_coplanar(l1.p.ints, l1.q.ints, l2.ints))
