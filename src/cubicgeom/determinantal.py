"""Determinantal shape of the cubic, the Grassmann-net parametrization of the
surface, and the associated cubo-cubic Cremona transformation of P^3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import rat
from .linalg import ExactMatrix, cross3, det3, signed_minors
from .multipoly import MultiPoly, monomials, eval_monomial, coprime_on_a_line
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
            lhs = lhs + _embed(nets.rep.matrix[j][k], 7, 0) * _lam_var(k)
        rhs = MultiPoly(7)
        for i in range(4):
            rhs = rhs + _embed(nets.a[j][i], 7, 4) * _t_var(i)
        if lhs != rhs:
            return False
    return True


def _embed(p, nvars, offset):
    return MultiPoly(nvars, {
        tuple([0] * offset + list(e) + [0] * (nvars - offset - p.nvars)): c
        for e, c in p.terms.items()})


def _t_var(i):
    return MultiPoly.variable(i, 7)


def _lam_var(k):
    return MultiPoly.variable(4 + k, 7)


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


def param_rank_at(gamma, lam):
    """Rank of the differential of gamma at a parameter value."""
    jac = [[g.partial(k).evaluate(lam) for k in range(3)] for g in gamma]
    return ExactMatrix(jac).rank()


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
    the kernel of M(x), so the image stays on the surface: the map exchanges
    the right kernel of M at the source with the left kernel at the image,
    and the companion map cubo_cubic_inverse undoes it.
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


def triangle_minors(rep):
    """The literal triangle construction: vertex lam^(i) with net i itself.

    Pairing each row with its opposite vertex makes every plane satisfy
    c_i(x).x = det M(x), so the resulting sextic map restricts to the
    identity on the surface — but the four sextics are coprime (a binary gcd
    on a rational line proves it), so no cubic map falls out of this
    assignment; see cubo_cubic for the assignment that does.  Returns
    (sextics, whether they are proven coprime).
    """
    sextics = _stacked_minors(rep.matrix, _vertices(rep.matrix), 0)
    return sextics, coprime_on_a_line(sextics)


def preserves_surface(tmap, surface):
    """F divides F o T: the transformation maps the surface into itself."""
    composed = surface.F.substitute(tmap.components)
    try:
        composed.divide_exact(surface.F)
    except ValueError:
        return False
    return True


def inverts_on_points(tmap, tinv, points):
    """T' (T x) = x exactly for the given points."""
    for pt in points:
        img = tmap.apply(pt)
        if img is None:
            return False
        back = tinv.apply(img)
        if back is None or back != pt:
            return False
    return True


def fixes_surface_points(tmap, points):
    """T(x) = x exactly for the given surface points."""
    for pt in points:
        img = tmap.apply(pt)
        if img is None or img != pt:
            return False
    return True


def plane_image_cubic(tmap, seed=0):
    """Fit a cubic through the images of sampled points of a seeded plane.

    Returns the kernel of the 25x20 evaluation matrix (dimension 1 when the
    image of the plane is a single cubic surface).
    """
    rng = random.Random(seed)
    plane = [rat(1), rat(2), rat(3), rat(5)]
    images = []
    while len(images) < 25:
        u, v = (rat(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(2))
        # x_3 solved from the plane equation at (1, u, v, x_3)
        x3 = -(plane[0] + plane[1] * u + plane[2] * v) / plane[3]
        pt = ProjPoint([rat(1), u, v, x3])
        img = tmap.apply(pt)
        if img is None or img in images:
            continue
        images.append(img)
    cubics = monomials(4, 3)
    rows = [[eval_monomial(e, img.coords) for e in cubics] for img in images]
    return ExactMatrix(rows).kernel_basis()
