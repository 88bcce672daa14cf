"""Determinantal shape of the cubic, the Grassmann-net parametrization of the
surface, and the associated cubo-cubic Cremona transformation of P^3.

Its claims are identities composed through the powers of its components
(CuboCubicMap.powers), a plane image's uniqueness a rank modulo a prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import prod

from .field import rat, residue
from .linalg import ExactMatrix, cross3, det3, integral_rank, signed_minors
from .multipoly import (MultiPoly, monomials, eval_monomial, coprime_on_a_line,
                        cleared)
from .projgeom import ProjPoint


class DegenerateNetsError(ValueError):
    pass


class UnexpectedFactorDegreeError(ValueError):
    pass


@dataclass
class DeterminantalRep:
    """3x3 matrix M of linear forms in t_0..t_3 with zero diagonal, det M = kappa*F."""

    matrix: list          # 3x3 of linear MultiPoly(4)
    kappa: object
    cs: object            # the underlying trihedral decomposition

    def det_poly(self):
        return det3(self.matrix)


def det_rep(cs, surface):
    """Zero-diagonal determinantal matrix built from a trihedral decomposition.

    With (A1,B1,C1) the first trieder (lam absorbed into A1) and (A2,B2,C2) the
    second (mu absorbed), M = [[0,A1,A2],[B2,0,B1],[C1,C2,0]] has
    det M = A1*B1*C1 + A2*B2*C2 = F.
    """
    forms = cs.plane_forms()
    a1, b1, c1 = forms[0].scale(cs.lam), forms[1], forms[2]
    a2, b2, c2 = forms[3].scale(cs.mu), forms[4], forms[5]
    zero = MultiPoly(4)
    m = [[zero, a1, a2], [b2, zero, b1], [c1, c2, zero]]
    rep = DeterminantalRep(m, rat(1), cs)
    if rep.det_poly() != surface.F:
        raise DegenerateNetsError("determinant does not reproduce the surface")
    return rep


@dataclass
class GrassmannNets:
    """3x4 matrix A with entries linear in (lambda_1..lambda_3), M(t)*lam = A(lam)*t."""

    a: list               # 3x4 of linear MultiPoly(3)
    rep: DeterminantalRep


def grassmann_nets(rep):
    # tensor[j][k][i]: coefficient of t_i in M[j][k]
    tensor = [[entry.linear_coeffs() for entry in row] for row in rep.matrix]
    a = [[MultiPoly.linear_form([tensor[j][k][i] for k in range(3)])
          for i in range(4)] for j in range(3)]
    nets = GrassmannNets(a, rep)
    if not bilinear_identity_holds(nets):
        raise DegenerateNetsError("net rewriting does not match the matrix")
    return nets


def bilinear_identity_holds(nets):
    """M(t)*lam = A(lam)*t as an identity in the 7 variables (t, lam)."""
    for j in range(3):
        lhs = MultiPoly(7)
        for k in range(3):
            lhs = lhs + (_embed(nets.rep.matrix[j][k], 7, 0)
                         * MultiPoly.variable(4 + k, 7))
        rhs = MultiPoly(7)
        for i in range(4):
            rhs = rhs + _embed(nets.a[j][i], 7, 4) * MultiPoly.variable(i, 7)
        if lhs != rhs:
            return False
    return True


def _embed(p, nvars, offset):
    return MultiPoly(nvars, {
        tuple([0] * offset + list(e) + [0] * (nvars - offset - p.nvars)): c
        for e, c in p.terms.items()})


def grassmann_param(nets):
    """The parametrization gamma: P^2 -> X by signed maximal minors of A(lam)."""
    gamma = signed_minors(nets.a)
    rows = [g.coeff_vector(monomials(3, 3)) for g in gamma]
    if ExactMatrix(rows).rank() != 4:
        raise DegenerateNetsError("parametrization cubics are dependent")
    return gamma


def param_lands_on_surface(surface, gamma):
    """F(gamma(lam)) = 0 as a degree-9 identity in lam."""
    return surface.F.substitute(gamma).is_zero()


@dataclass
class CuboCubicMap:
    """x -> (T_0(x) : ... : T_3(x)), cubics left after removing the factor G."""

    components: list      # 4 cubic MultiPoly(4)
    factor: object        # the extracted common cubic factor G
    rep: DeterminantalRep

    def apply(self, point):
        vals = [t.evaluate(point.coords) for t in self.components]
        if not any(vals):
            return None
        return ProjPoint(vals)

    @cached_property
    def powers(self):
        """The 20 cubic monomials in T cleared to integral coefficients by
        one common factor (the same map), each from a quadratic one."""
        t = cleared(self.components)
        table = {e: t[e.index(1)] for e in monomials(4, 1)}
        for degree in (2, 3):
            table = {e: table[_bump(e, k, -1)] * t[k] for e in monomials(4, degree)
                     for k in [next(k for k, n in enumerate(e) if n)]}
        return table

    def compose(self, form):
        """form o T up to a nonzero constant factor, for a cubic form."""
        return sum((self.powers[e].scale(c) for e, c in form.terms.items()),
                   MultiPoly(4))


def _bump(e, k, n):
    """The exponent e with n more factors x_k."""
    return e[:k] + (e[k] + n,) + e[k + 1:]


def _vertices(rows):
    """lam^(i) = m_(i+1) x m_(i+2), the pairwise meets of the lines m_k(x).lam = 0."""
    return [cross3(rows[(i + 1) % 3], rows[(i + 2) % 3]) for i in range(3)]


def _stacked_minors(matrix, vertices, shift):
    """Signed maximal minors of the 3x4 stack of plane covectors
    c_i(x)_l = sum_k vertices[i + shift]_k * (coefficient of t_l in matrix[i][k])."""
    coeffs = [[entry.linear_coeffs() for entry in row] for row in matrix]
    stacked = [[
        sum((vertices[(i + shift) % 3][k].scale(coeffs[i][k][l]) for k in range(3)),
            MultiPoly(4))
        for l in range(4)] for i in range(3)]
    return signed_minors(stacked)


def cubo_cubic(rep):
    """The Cremona transformation attached to the determinantal matrix.

    The rows m_i(x) of M(x) cut three lines in the lam-plane; their pairwise
    intersections are the triangle vertices lam^(i) = m_j(x) x m_k(x)
    (quadratic in x).  Pairing vertex lam^(i+1) with net i of the transposed
    system (covector c_i(x)_l = sum_k m_{ki,l} lam^(i+1)_k) gives three planes
    whose intersection point is the image: the signed minors of the stacked
    3x4 matrix are sextics with the common cubic factor
    G = M[0][1]*M[1][2]*M[2][0], the first trihedron of the Cayley-Salmon
    form with lam absorbed (see det_rep).  Dividing G out leaves the four
    cubic components; they are certified coprime, so G is exactly the
    greatest common factor.  On the surface all three vertices collapse onto
    the kernel of M(x), so the image stays on the surface (preserves_surface):
    the map exchanges the right kernel of M at the source with the left
    kernel at the image, and the companion map cubo_cubic_inverse undoes it
    (inverts_exactly).
    """
    m = rep.matrix
    return _cubic_map(_stacked_minors(list(zip(*m)), _vertices(m), 1),
                      m[0][1] * m[1][2] * m[2][0], rep)


def cubo_cubic_inverse(rep):
    """The inverse transformation: column vertices paired with the direct
    nets; its factor is the second trihedron M[0][2]*M[1][0]*M[2][1]."""
    m = rep.matrix
    return _cubic_map(_stacked_minors(m, _vertices(list(zip(*m))), 1),
                      m[0][2] * m[1][0] * m[2][1], rep)


def _cubic_map(minors, factor, rep):
    """The map by minors / factor; raises UnexpectedFactorDegreeError unless
    factor divides every minor and the quotients are proven coprime."""
    try:
        components = [f.divide_exact(factor) for f in minors]
    except ValueError as exc:
        raise UnexpectedFactorDegreeError(
            "the trihedron product does not divide the minors") from exc
    if not coprime_on_a_line(components):
        raise UnexpectedFactorDegreeError("components share a nontrivial factor")
    return CuboCubicMap(components, factor, rep)


def preserves_surface(tmap, surface):
    """F divides F o T: the transformation maps the surface into itself."""
    return _divides(surface.F, tmap.compose(cleared([surface.F])[0]))


def _divides(divisor, poly):
    try:
        poly.divide_exact(divisor)
    except ValueError:
        return False
    return True


def inverts_exactly(tmap, tinv):
    """T' o T = phi * id as an identity: T' o T is nonzero and
    x_i (T' o T)_j = x_j (T' o T)_i for all i < j.  T' is cleared by one
    common factor and composed through the powers of T."""
    composed = [tmap.compose(t).terms for t in cleared(tinv.components)]

    def times(i, terms):  # x_i * terms
        return {_bump(e, i, 1): c for e, c in terms.items()}
    return any(composed) and all(times(i, composed[j]) == times(j, composed[i])
                                 for i, j in combinations(range(4), 2))


# The plane h.x = 0 whose image plane_image_cubic checks, and a prime
# p = 1 (mod 4): Z[i] maps onto Z/p with i sent to I_MOD_P, a root of -1.
PLANE = (1, 2, 3, 5)
RANK_PRIME, I_MOD_P = 2147483053, 2502840


def plane_cubic(tinv):
    """G = sum h_k T'_k.  If T' o T = phi * id, then G o T = phi * (h.x),
    so G contains the image of the plane h.x = 0."""
    return sum((t.scale(h) for h, t in zip(PLANE, cleared(tinv.components))),
               MultiPoly(4))


def plane_images(tmap, seed=0):
    """25 distinct images of seeded points of the plane h.x = 0."""
    rng = random.Random(seed)
    images = []
    while len(images) < 25:
        u, v = (rat(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(2))
        # x_3 solved from the plane equation at (1, u, v, x_3)
        x3 = -(PLANE[0] + PLANE[1] * u + PLANE[2] * v) / PLANE[3]
        img = tmap.apply(ProjPoint([rat(1), u, v, x3]))
        if img is not None and img not in images:
            images.append(img)
    return images


def plane_image_cubic(tmap, cubic, seed=0):
    """The dimension of the cubics through the image of the plane h.x = 0,
    with `cubic` (see plane_cubic) as witness: 0 unless it is nonzero and
    h.x divides cubic o T.  The 25 x 20 matrix of the cubic monomials at
    plane_images then has the witness in its kernel; rank 19 modulo
    RANK_PRIME, which reduction can only lower, makes that kernel exactly
    1-dimensional.  Otherwise the exact rank is taken.
    """
    if not cubic or not _divides(MultiPoly.linear_form(list(PLANE)),
                                 tmap.compose(cubic)):
        return 0
    images = plane_images(tmap, seed)
    if _rank_mod_p(images) == 19:
        return 1
    return 20 - ExactMatrix([[eval_monomial(e, img.coords) for e in monomials(4, 3)]
                             for img in images]).rank()


def _rank_mod_p(images):
    """The rank modulo RANK_PRIME of the cubic monomials at the images'
    integral vectors (over Q(i) in Z[i], i going to I_MOD_P); None over any
    other field."""
    reduced = [[residue(x, RANK_PRIME, I_MOD_P) for x in img.ints]
               for img in images]
    if any(x is None for img in reduced for x in img):
        return None
    return integral_rank([[prod(pow(x, n, RANK_PRIME) for x, n in zip(img, e))
                           for e in monomials(4, 3)] for img in reduced],
                         RANK_PRIME)
