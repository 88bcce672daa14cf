"""Equation shapes of a cubic surface: tritangent planes, trihedral-pair
decompositions F = lam*PQR + mu*STU, and Cremona hexahedral forms
x_1..x_6 with sum(x_i) = 0, sum(a_i x_i) = 0 and sum(x_i^3) = c*F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .field import rat, inverse
from .linalg import ExactMatrix
from .multipoly import MultiPoly, monomials
from .binforms import solve_cubic
from .projgeom import ProjPlane, span_plane, meet_planes
from . import incidence as inc


class NotCoplanarError(ValueError):
    pass


class NoDecompositionError(ValueError):
    pass


class DependentPlanesError(ValueError):
    pass


CUBIC_MONOMIALS_P3 = monomials(4, 3)


def tritangent_plane(trio, lines):
    """The common plane of a coplanar trio of lines."""
    trio = inc.label_order(trio)
    l1, l2, l3 = (lines[lab] for lab in trio)
    third = l2.p if not l1.contains(l2.p) else l2.q
    plane = span_plane(l1.p, l1.q, third)
    for line in (l1, l2, l3):
        if not plane.contains_line(line):
            raise NotCoplanarError(f"trio {sorted(map(inc.label_str, trio))} "
                                   "is not coplanar")
    return plane


def tritangent_planes(lines):
    """All 45 tritangent planes keyed by their line trios."""
    return {trio: tritangent_plane(trio, lines) for trio in inc.TRITANGENT_TRIOS}


@dataclass
class CayleySalmonForm:
    """F = lam * P*Q*R + mu * S*T*U for a trihedral pair (rows P,Q,R; cols S,T,U)."""

    pair: frozenset
    row_trios: list
    col_trios: list
    planes: list          # [P, Q, R, S, T, U] as ProjPlane
    lam: object
    mu: object

    def plane_forms(self):
        return [MultiPoly.linear_form(h.coeffs) for h in self.planes]

    def holds_for(self, form):
        p, q, r, s, t, u = self.plane_forms()
        return (p * q * r).scale(self.lam) + (s * t * u).scale(self.mu) == form


def cayley_salmon(surface, pair, planes):
    """Solve F = lam*PQR + mu*STU for the given trihedral pair; planes maps
    each tritangent trio to its plane."""
    matrix = inc.trieder_pair_matrix(pair)
    row_trios = [frozenset(row) for row in matrix]
    col_trios = [frozenset(matrix[r][c] for r in range(3)) for c in range(3)]
    six = [planes[t] for t in row_trios + col_trios]
    forms = [MultiPoly.linear_form(h.coeffs) for h in six]
    pqr = forms[0] * forms[1] * forms[2]
    stu = forms[3] * forms[4] * forms[5]
    cols = ExactMatrix([[pqr.coefficient(m), stu.coefficient(m)]
                        for m in CUBIC_MONOMIALS_P3])
    sol = cols.solve([surface.F.coefficient(m) for m in CUBIC_MONOMIALS_P3])
    if sol is None or not sol[0] or not sol[1]:
        raise NoDecompositionError("no trihedral decomposition for this pair")
    cs = CayleySalmonForm(pair, row_trios, col_trios, six, sol[0], sol[1])
    if not cs.holds_for(surface.F):
        raise NoDecompositionError("decomposition identity fails")
    return cs


@dataclass
class HexahedralForm:
    """Six linear forms with sum 0, one extra relation, and sum of cubes c*F."""

    cs: CayleySalmonForm
    tower: object
    root: tuple           # (t, u) in the tower
    scalars: tuple        # (p, q, r, s, t, u) applied to the six plane forms
    x: list               # the six linear MultiPoly forms
    c: object             # sum(x_i^3) = c * F

    relation: list = field(default=None)

    def __post_init__(self):
        if self.relation is None:
            self.relation = _second_relation(self.x)

    def plane(self, i, j):
        """The plane x_i + x_j = 0."""
        return ProjPlane((self.x[i] + self.x[j]).linear_coeffs())


def _second_relation(x_forms):
    """Canonical relation (a_i) with sum(a_i x_i) = 0, independent of (1,...,1)."""
    cols = ExactMatrix(list(zip(*(f.linear_coeffs() for f in x_forms))))
    kern = cols.kernel_basis()
    if len(kern) != 2:
        raise DependentPlanesError(f"relation space has dimension {len(kern)}")
    for v in kern:
        if not _proportional_to_ones(v):
            lead = next(c for c in v if c)
            inv = inverse(lead)
            return [c * inv for c in v]
    raise DependentPlanesError("no relation independent of the sum relation")


def _proportional_to_ones(v):
    return all(c == v[0] for c in v)


def hexahedral_from_cs(cs, surface):
    """All Cremona hexahedral forms attached to one trihedral decomposition.

    The six plane forms (with lam, mu absorbed) are rescaled by (p,q,r,s,t,u)
    so that they sum to zero; that leaves a pencil (t:u), and requiring the
    sum of cubes to be proportional to F cuts out a binary cubic, one
    hexahedral form per simple root.  Of the two candidate closure conditions
    p*q*r = s*t*u and p*q*r = -s*t*u exactly one admits solutions; this is
    asserted, not assumed.
    """
    forms = cs.plane_forms()
    trio1 = [forms[0].scale(cs.lam), forms[1], forms[2]]
    trio2 = [forms[3].scale(cs.mu), forms[4], forms[5]]
    first, second, s_idx = _independent_ordering(trio1, trio2)
    base = first + [second[s_idx]]
    rest = [second[k] for k in range(3) if k != s_idx]
    cols = ExactMatrix(list(zip(*(f.linear_coeffs() for f in base))))
    abcd = [cols.solve(f.linear_coeffs()) for f in rest]
    (ca, cb, cc, cd), (da, db, dc, dd) = abcd

    results = []
    winning_signs = set()
    for sign in (rat(-1), rat(1)):
        # p*q*r + sign*s*t*u = 0 with p = -(t*a + u*a'), ..., s = -(t*d + u*d')
        # reduces to (ta+ua')(tb+ub')(tc+uc') + sign*(td+ud')*t*u = 0
        cubic = [ca * cb * cc,
                 ca * cb * dc + (ca * db + da * cb) * cc + sign * cd,
                 (ca * db + da * cb) * dc + da * db * cc + sign * dd,
                 da * db * dc]
        if not any(cubic):
            continue
        for (tv, uv), tower in solve_cubic(cubic, surface.tower):
            scal = (-(tv * ca + uv * da), -(tv * cb + uv * db),
                    -(tv * cc + uv * dc), -(tv * cd + uv * dd), tv, uv)
            if not all(scal):
                continue
            scaled = [f.scale(s) for f, s in zip(base + rest, scal[:4] + scal[4:])]
            p1, q1, r1, s1, t1, u1 = scaled
            x = [q1 + r1 - p1, r1 + p1 - q1, p1 + q1 - r1,
                 t1 + u1 - s1, u1 + s1 - t1, s1 + t1 - u1]
            if sum(x, MultiPoly(4)):
                continue
            cubes = sum((f * f * f for f in x), MultiPoly(4))
            c = _ratio(cubes, surface.F)
            if c is None or not c:
                continue
            winning_signs.add(sign)
            results.append(HexahedralForm(cs, tower, (tv, uv), scal, x, c))
    if len(winning_signs) != 1:
        raise NoDecompositionError(
            f"expected exactly one valid closure sign, got {len(winning_signs)}")
    return results


def _independent_ordering(trio1, trio2):
    """Pick (P,Q,R) from one trihedron and S from the other, linearly independent."""
    for first, second in ((trio1, trio2), (trio2, trio1)):
        for s_idx in range(3):
            vecs = [f.linear_coeffs() for f in first + [second[s_idx]]]
            if ExactMatrix(vecs).rank() == 4:
                return first, second, s_idx
    raise DependentPlanesError("no independent four among the six planes")


def _ratio(num, den):
    """The scalar c with num = c * den, or None."""
    lead_m, lead_c = den.leading()
    top = num.coefficient(lead_m)
    if not top:
        return None
    c = top * inverse(lead_c)
    return c if den.scale(c) == num else None


def hexahedral_lines(hexform, lines):
    """The 15 surface lines cut by the hexahedral planes, and the leftover double-six.

    Each partition of {1..6} into three pairs gives three planes x_i + x_j = 0
    whose covectors sum to zero, hence a pencil with a common axis line; the 15
    axes lie on the surface and the 12 unmatched labels form a double-six.
    """
    matched = {}
    for part in inc.partitions_into_pairs(range(6)):
        part = sorted(tuple(sorted(p)) for p in part)
        (i, j), (k, l), _ = part
        axis = meet_planes(hexform.plane(i, j), hexform.plane(k, l))
        label = next((lab for lab in inc.ALL_LABELS if axis == lines[lab]), None)
        if label is None:
            raise NoDecompositionError(
                f"hexahedral axis for partition {part} is not one of the 27 lines")
        matched[tuple(tuple(p) for p in part)] = label
    if len(set(matched.values())) != 15:
        raise NoDecompositionError("hexahedral axes are not 15 distinct lines")
    leftover = frozenset(inc.ALL_LABELS) - set(matched.values())
    if not inc.is_double_six_labels(leftover):
        raise NoDecompositionError("complement of the 15 axes is not a double-six")
    return matched, leftover


def cs_from_hexahedral(hexform, surface):
    """The 10 trihedral decompositions recovered from a hexahedral form.

    Each split of {1..6} into two triples turns the identity
    sum(x_i^3) = c*F into F = lam*PQR + mu*STU for the six planes
    x_i + x_j = 0 with i, j in a common triple.
    """
    out = []
    target = surface.F.scale(-hexform.c * rat(1, 3))
    for triple in itertools.combinations(range(1, 6), 2):
        left = (0,) + triple
        right = tuple(k for k in range(6) if k not in left)
        prods = []
        for side in (left, right):
            prod = MultiPoly.constant(4, rat(1))
            for i, j in itertools.combinations(side, 2):
                prod = prod * (hexform.x[i] + hexform.x[j])
            prods.append(prod)
        if prods[0] + prods[1] != target:
            raise NoDecompositionError(
                f"split {left}|{right} does not reproduce the surface")
        out.append((left, right, prods[0], prods[1]))
    return out


def segre_membership(hexform, points):
    """Check sampled surface points map into the Segre-cubic slice.

    The image (x_1(P), ..., x_6(P)) must satisfy sum(y_i) = 0,
    sum(a_i y_i) = 0 and sum(y_i^3) = 0.
    """
    a = hexform.relation
    for pt in points:
        ys = [f.evaluate(pt.coords) for f in hexform.x]
        if sum(ys[1:], ys[0]):
            return False
        if sum((ai * y for ai, y in zip(a[1:], ys[1:])), a[0] * ys[0]):
            return False
        if sum((y * y * y for y in ys[1:]), ys[0] ** 3):
            return False
    return True


def all_hexahedral_forms(surface, lines, planes):
    """Every hexahedral form from every trihedral pair, with its double-six.

    Returns (forms, by_double_six) where forms is a list of
    (pair, HexahedralForm, double_six) triples.
    """
    results = []
    by_ds = {}
    for pair in inc.enumerate_trieder_pairs():
        cs = cayley_salmon(surface, pair, planes)
        for hexform in hexahedral_from_cs(cs, surface):
            _, ds = hexahedral_lines(hexform, lines)
            results.append((pair, hexform, ds))
            by_ds.setdefault(ds, []).append(hexform)
    return results, by_ds
