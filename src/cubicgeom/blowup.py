"""Cubic surfaces from six general plane points.

The surface is the image of P^2 under the net of cubics through the six
points; the 27 lines come out family by family: a_i from the Jacobian at
p_i, c_ij from restricting the net to the line p_i p_j, b_i from the conic
through the other five points.
"""

from __future__ import annotations

import itertools
import random

from .field import QQ, rat
from .linalg import ExactMatrix, det3
from .multipoly import MultiPoly, monomials, eval_monomial
from .binforms import binary_from_poly, deflate_binary_form
from . import incidence as inc
from .projgeom import ProjPoint, ProjLine, lines_meet


class DegeneratePointsError(ValueError):
    def __init__(self, message, subset=None):
        super().__init__(message)
        self.subset = subset


class NonUniqueImplicitError(ValueError):
    pass


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
    """Exact cubic form F in t_0..t_3 plus its blow-up provenance."""

    def __init__(self, form, basis, source):
        self.F = form
        self.basis = basis
        self.source = source
        self.tower = source.tower

    def contains_point(self, point):
        return not self.F.evaluate(point.coords)

    def restrict_to_line(self, line):
        """F pulled back along the spanning-pair parametrization (binary cubic)."""
        return self.F.restrict(line.p.coords, line.q.coords)

    def contains_line(self, line):
        return self.restrict_to_line(line).is_zero()


def implicitize(basis, source):
    """The cubic F with F(C_0,...,C_3) = 0; unique up to scale."""
    composed = {}
    for expo in CUBIC_MONOMIALS_P3:
        term = MultiPoly.constant(3, rat(1))
        for cub, k in zip(basis, expo):
            for _ in range(k):
                term = term * cub
        composed[expo] = term
    deg9 = monomials(3, 9)
    rows = [[composed[expo].coefficient(m) for expo in CUBIC_MONOMIALS_P3]
            for m in deg9]
    kern = ExactMatrix(rows).kernel_basis()
    if len(kern) != 1:
        raise NonUniqueImplicitError(
            f"implicitization kernel has dimension {len(kern)}")
    form = MultiPoly(4, dict(zip(CUBIC_MONOMIALS_P3, kern[0])))
    return CubicSurface(form, basis, source)


def build_surface(pts):
    return implicitize(cubic_net(pts), pts)


# -- the 27 lines ----------------------------------------------------------

def _independent_directions(p):
    """The first two coordinate directions completing p to a basis of P^2."""
    dirs = []
    for k in range(3):
        e = [rat(0)] * 3
        e[k] = rat(1)
        rows = [list(p.coords)] + [list(d) for d in dirs] + [e]
        if ExactMatrix(rows).rank() == len(rows):
            dirs.append(e)
        if len(dirs) == 2:
            return dirs
    raise EckardtOrSingularError("no independent directions at the point")


def _line_a(surface, i):
    """Image of the exceptional directions at p_i: span of two Jacobian images."""
    p = surface.source[i]
    jac = [[cub.partial(k).evaluate(p.coords) for k in range(3)]
           for cub in surface.basis]
    d1, d2 = _independent_directions(p)
    img1 = [sum((row[k] * d1[k] for k in range(3)), rat(0)) for row in jac]
    img2 = [sum((row[k] * d2[k] for k in range(3)), rat(0)) for row in jac]
    if not any(img1) or not any(img2):
        raise EckardtOrSingularError(f"Jacobian rank too small at point {i}")
    try:
        return ProjLine(ProjPoint(img1), ProjPoint(img2))
    except ValueError as exc:
        raise EckardtOrSingularError(f"Jacobian rank 1 at point {i}") from exc


def _line_c(surface, i, j):
    """Image of the line p_i p_j: deflate the restricted binary cubics by s*t."""
    pi, pj = surface.source[i], surface.source[j]
    alphas, betas = [], []
    for cub in surface.basis:
        bin3 = binary_from_poly(cub.restrict(pi.coords, pj.coords), 3)
        lin = deflate_binary_form(bin3, [((rat(1), rat(0)), 1), ((rat(0), rat(1)), 1)])
        alphas.append(lin[0])
        betas.append(lin[1])
    try:
        return ProjLine(ProjPoint(alphas), ProjPoint(betas))
    except ValueError as exc:
        raise EckardtOrSingularError(f"degenerate image of line {i}{j}") from exc


def _line_b(surface, i):
    """Image of the conic through the five points other than p_i."""
    others = [k for k in range(6) if k != i]
    conic_monos = monomials(3, 2)
    rows = [[eval_monomial(e, surface.source[k].coords) for e in conic_monos]
            for k in others]
    kern = ExactMatrix(rows).kernel_basis()
    if len(kern) != 1:
        raise DegeneratePointsError(f"conic through 5 points not unique ({i})")
    coeff = dict(zip(conic_monos, kern[0]))
    s_mat = _conic_matrix(coeff)
    j0 = others[0]
    p = surface.source[j0]
    d1, d2 = _independent_directions(p)

    def sdot(u, v):
        return sum((u[r] * s_mat[r][c] * v[c] for r in range(3) for c in range(3)),
                   rat(0))

    # residual intersection of the pencil of lines through p with the conic:
    # x(s,t) = (d S d) p - 2 (p S d) d,  d = s d1 + t d2
    s_var = MultiPoly(2, {(1, 0): rat(1)})
    t_var = MultiPoly(2, {(0, 1): rat(1)})
    d_polys = [s_var.scale(d1[k]) + t_var.scale(d2[k]) for k in range(3)]
    dsd = _bilinear_poly(d_polys, s_mat, d_polys)
    psd = _bilinear_poly([MultiPoly.constant(2, x) for x in p.coords], s_mat, d_polys)
    x_polys = [dsd.scale(p.coords[k]) - (psd * d_polys[k]).scale(rat(2))
               for k in range(3)]
    # five known parameter roots: four through the other points, one tangent
    roots = []
    for m in others[1:]:
        pm = surface.source[m].coords
        alpha = det3([p.coords, d1, pm])
        beta = det3([p.coords, d2, pm])
        roots.append(((-beta, alpha), 1))
    t_alpha = sdot(p.coords, d1)
    t_beta = sdot(p.coords, d2)
    roots.append(((-t_beta, t_alpha), 1))
    alphas, betas = [], []
    for cub in surface.basis:
        sext = binary_from_poly(cub.substitute(x_polys), 6)
        lin = deflate_binary_form(sext, roots)
        alphas.append(lin[0])
        betas.append(lin[1])
    try:
        return ProjLine(ProjPoint(alphas), ProjPoint(betas))
    except ValueError as exc:
        raise EckardtOrSingularError(f"degenerate image of conic {i}") from exc


def _conic_matrix(coeff):
    half = rat(1, 2)
    e = {tuple(k): v for k, v in coeff.items()}

    def g(expo):
        return e.get(expo, rat(0))

    return [[g((2, 0, 0)), g((1, 1, 0)) * half, g((1, 0, 1)) * half],
            [g((1, 1, 0)) * half, g((0, 2, 0)), g((0, 1, 1)) * half],
            [g((1, 0, 1)) * half, g((0, 1, 1)) * half, g((0, 0, 2))]]


def _bilinear_poly(u_polys, s_mat, v_polys):
    acc = MultiPoly(2)
    for r in range(3):
        for col in range(3):
            if s_mat[r][col]:
                acc = acc + (u_polys[r] * v_polys[col]).scale(s_mat[r][col])
    return acc


def labeled_lines(surface):
    """All 27 lines keyed by their Schlafli labels."""
    table = {}
    for i in range(1, 7):
        table[inc.a(i)] = _line_a(surface, i - 1)
        table[inc.b(i)] = _line_b(surface, i - 1)
    for i, j in itertools.combinations(range(1, 7), 2):
        table[inc.c(i, j)] = _line_c(surface, i - 1, j - 1)
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
    """n exact points on F, images of pseudorandom plane points off the base points."""
    rng = random.Random(seed)
    base = set(surface.source.points)
    avoid = list(avoid_lines) if avoid_lines else []
    out = []
    while len(out) < n:
        coords = [rat(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2)]
        pt = ProjPoint([rat(1), coords[0], coords[1]])
        if pt in base:
            continue
        vals = [cub.evaluate(pt.coords) for cub in surface.basis]
        if not any(vals):
            continue
        img = ProjPoint(vals)
        if any(line.contains(img) for line in avoid):
            continue
        if img in out:
            continue
        out.append(img)
    return out
