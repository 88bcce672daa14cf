"""Cubic surfaces from six general plane points, by linear algebra.

The net of plane cubics C_0..C_3 through the six points maps P^2 onto the
surface.  Its linear syzygies sum_k C_k L_kj = 0, j = 0, 1, 2, make a 3x3
matrix M(t) of linear forms in t_0..t_3 with M(C(x))^T x = 0, and the
surface is F = det M (Hilbert-Burch).  The 27 lines follow family by
family: a_i is the kernel of M(t)^T p_i, c_ij the image of the line
p_i p_j, and b_i the meet of the planes of the tritangent trios
{a_j, b_i, c_ij} and {a_k, b_i, c_ik}.
"""

from __future__ import annotations

import itertools
import random

from .field import QQ, rat, inverse, primitive
from .linalg import ExactMatrix, det3
from .multipoly import MultiPoly, monomials, eval_monomial, cleared
from . import incidence as inc
from .projgeom import (ProjPoint, ProjLine, lines_meet, meet_planes,
                       plane_of_lines, incidences)


class DegeneratePointsError(ValueError):
    def __init__(self, message, subset=None):
        super().__init__(message)
        self.subset = subset


class EckardtOrSingularError(ValueError):
    pass


CUBIC_MONOMIALS_P2 = monomials(3, 3)
CUBIC_MONOMIALS_P3 = monomials(4, 3)


class SixPoints:
    """Six ordered points of P^2 in general position over a common tower."""

    def __init__(self, points, tower=QQ):
        if len(points) != 6:
            raise ValueError("need exactly 6 points")
        self.points = [p if isinstance(p, ProjPoint) else ProjPoint(p) for p in points]
        self.tower = tower
        check_general_position(self)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, k):
        return self.points[k]


def check_general_position(pts):
    """No coincident pair, no collinear triple, no conic through all six."""
    points = pts.points
    for i, j in itertools.combinations(range(6), 2):
        if points[i] == points[j]:
            raise DegeneratePointsError(f"points {i} and {j} coincide", (i, j))
    for i, j, k in itertools.combinations(range(6), 3):
        if not det3([points[i].coords, points[j].coords, points[k].coords]):
            raise DegeneratePointsError(f"points {i}, {j}, {k} are collinear", (i, j, k))
    conic_monos = monomials(3, 2)
    m = ExactMatrix([[eval_monomial(e, p.coords) for e in conic_monos] for p in points])
    if not m.det():
        raise DegeneratePointsError("all six points lie on a conic", tuple(range(6)))
    return True


def cubic_net(pts):
    """Basis (4 cubics) of the net of plane cubics through the six points."""
    m = ExactMatrix([[eval_monomial(e, p.coords) for e in CUBIC_MONOMIALS_P2]
                     for p in pts])
    kern = m.kernel_basis()
    if len(kern) != 4:
        raise DegeneratePointsError(
            f"cubic system has dimension {len(kern)}, expected 4")
    return [MultiPoly(3, dict(zip(CUBIC_MONOMIALS_P2, v))) for v in kern]


class CubicSurface:
    """Exact cubic form F = det M in t_0..t_3, with the net of cubics, the
    syzygy matrix M and the six points it comes from."""

    def __init__(self, form, basis, source, matrix):
        self.F = form
        self._integral_form = cleared([form])[0]
        self.basis = basis
        self.source = source
        self.matrix = matrix
        self.tower = source.tower

    def contains_point(self, point):
        """F(x) = 0, on F cleared to integral coefficients and x's ints."""
        return not self._integral_form.evaluate(point.ints)

    def restrict_to_line(self, line):
        """F pulled back along the spanning-pair parametrization (binary cubic)."""
        return self.F.restrict(line.p.coords, line.q.coords)

    def contains_line(self, line):
        return self.restrict_to_line(line).is_zero()


def build_surface(pts):
    """F = det M, M(t)_ij = sum_k t_k A_ikj for the net's linear syzygies
    sum_k C_k L_kj = 0 with L_kj = sum_i x_i A_ikj, scaled so that its last
    nonzero coefficient is 1."""
    basis = cubic_net(pts)
    quartics = monomials(3, 4)
    # column 3k + i holds the coefficients of x_i C_k
    columns = [(cub * MultiPoly.variable(i, 3)).coeff_vector(quartics)
               for cub in basis for i in range(3)]
    kern = ExactMatrix(list(zip(*columns))).kernel_basis()
    if len(kern) != 3:
        raise DegeneratePointsError(
            f"the net has {len(kern)} linear syzygies, expected 3")
    matrix = [[MultiPoly.linear_form([v[3 * k + i] for k in range(4)])
               for v in kern] for i in range(3)]
    det = det3(matrix)
    if det.is_zero():
        raise DegeneratePointsError("the syzygy matrix has determinant 0")
    coeffs = det.coeff_vector(CUBIC_MONOMIALS_P3)
    last = max(k for k, c in enumerate(coeffs) if c)
    inv = inverse(coeffs[last])
    # an exact rational 1 at the last nonzero coefficient, as in a kernel
    # vector, so that F prints the same over every tower
    form = MultiPoly(4, {e: rat(1) if k == last else c * inv
                         for k, (e, c) in enumerate(zip(CUBIC_MONOMIALS_P3, coeffs))})
    return CubicSurface(form, basis, pts, matrix)


# -- the 27 lines ----------------------------------------------------------

def _line_a(surface, i):
    """The exceptional line over p_i: the points t with M(t)^T p_i = 0."""
    p = surface.source[i].coords
    rows = [sum((surface.matrix[r][j] * x for r, x in enumerate(p)),
                MultiPoly(4)).linear_coeffs() for j in range(3)]
    kern = ExactMatrix(rows).kernel_basis()
    if len(kern) != 2:
        raise EckardtOrSingularError(
            f"M(t)^T p_{i + 1} = 0 has a kernel of dimension {len(kern)}")
    return ProjLine(ProjPoint(kern[0]), ProjPoint(kern[1]))


def _line_c(surface, i, j):
    """Image of the line p_i p_j.  Each net cubic restricts to it as
    f(s, t) = s t (alpha s + beta t), so f(1, 1) = alpha + beta and
    f(1, 2) = 2 alpha + 4 beta give the line's points alpha and beta."""
    pi, pj = surface.source[i].coords, surface.source[j].coords
    at1 = [x + y for x, y in zip(pi, pj)]
    at2 = [x + y + y for x, y in zip(pi, pj)]
    alphas, betas = [], []
    for cub in surface.basis:
        f1, f2 = cub.evaluate(at1), cub.evaluate(at2)
        beta = (f2 - f1 - f1) * rat(1, 2)
        alphas.append(f1 - beta)
        betas.append(beta)
    try:
        return ProjLine(ProjPoint(alphas), ProjPoint(betas))
    except ValueError as exc:
        raise EckardtOrSingularError(f"degenerate image of line {i}{j}") from exc


def _line_b(lines, i):
    """b_i as the meet of the planes of {a_j, c_ij} and {a_k, c_ik}, j and
    k the first two indices other than i: {a_j, b_i, c_ij} is a trio."""
    j, k = [m for m in range(1, 7) if m != i][:2]
    return meet_planes(plane_of_lines(lines[inc.a(j)], lines[inc.c(i, j)]),
                       plane_of_lines(lines[inc.a(k)], lines[inc.c(i, k)]))


def labeled_lines(surface):
    """All 27 lines keyed by their Schlafli labels."""
    table = {inc.a(i): _line_a(surface, i - 1) for i in range(1, 7)}
    for i, j in itertools.combinations(range(1, 7), 2):
        table[inc.c(i, j)] = _line_c(surface, i - 1, j - 1)
    for i in range(1, 7):
        table[inc.b(i)] = _line_b(table, i)
    if len(set(table.values())) != 27:
        raise EckardtOrSingularError("line images are not pairwise distinct")
    return table


def incidence_table(lines):
    """Geometric 27x27 meet table keyed by label pairs."""
    out = {}
    for l1, l2 in itertools.combinations(inc.ALL_LABELS, 2):
        out[(l1, l2)] = lines_meet(lines[l1], lines[l2])
    return out


def sample_surface_points(surface, n, seed=0, avoid_lines=None):
    """n exact points on F, images of pseudorandom plane points off the base
    points and, if given, off the avoided lines.

    The net is cleared to integral coefficients by one common factor, which
    keeps the map, and evaluated at the plane point's primitive vector; the
    avoided lines are tested on those integral values, and only an accepted
    image becomes a ProjPoint."""
    rng = random.Random(seed)
    base = {p.ints for p in surface.source}
    net = cleared(surface.basis)
    avoid = [line.ints for line in avoid_lines] if avoid_lines else []
    out = []
    while len(out) < n:
        coords = [rat(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2)]
        x = primitive([rat(1), coords[0], coords[1]])
        if x in base:
            continue
        vals = [cub.evaluate(x) for cub in net]
        if not any(vals) or any(not any(incidences(v, vals)) for v in avoid):
            continue
        img = ProjPoint(vals)
        if img not in out:
            out.append(img)
    return out
