"""Equation shapes of a cubic surface: tritangent planes, trihedral-pair
decompositions F = lam*PQR + mu*STU, and Cremona hexahedral forms
x_1..x_6 with sum(x_i) = 0, sum(a_i x_i) = 0 and sum(x_i^3) = c*F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .field import FieldElement, rat, inverse
from .linalg import ExactMatrix
from .multipoly import MultiPoly, monomials, ratio
from .projgeom import ProjPlane, plane_of_lines
from . import incidence as inc


class NotCoplanarError(ValueError):
    pass


class NoDecompositionError(ValueError):
    pass


CUBIC_MONOMIALS_P3 = monomials(4, 3)


def tritangent_plane(trio, lines):
    """The common plane of a coplanar trio of lines."""
    trio = inc.label_order(trio)
    l1, l2, l3 = (lines[lab] for lab in trio)
    plane = plane_of_lines(l1, l2)
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
    """Six linear forms with sum 0, one extra relation, and sum of cubes c*F;
    the planes x_i + x_j = 0 contain no line of double_six."""

    double_six: frozenset
    x: list               # the six linear MultiPoly forms
    c: object             # sum(x_i^3) = c * F

    @cached_property
    def planes(self):
        """The 15 planes x_i + x_j = 0, keyed frozenset({i, j})."""
        return {frozenset((i, j)): ProjPlane((self.x[i] + self.x[j]).linear_coeffs())
                for i, j in itertools.combinations(range(6), 2)}


@lru_cache(maxsize=36)
def _double_six_scalars(ds, planes):
    """Scalars lam_t, up to one common factor, with lam_t * (plane of t) =
    x_i + x_j for the 15 tritangent trios t off the double-six ds
    (Cremona, Math. Ann. 13, 1878).  Three of them pass through each of the
    15 lines off ds, and as sum(x_i) = 0 their scaled covectors sum to zero:
    a linear system whose solutions form a line.  planes: the 45 planes in
    TRITANGENT_TRIOS order."""
    off = frozenset(inc.ALL_LABELS).difference(*ds)
    trios = [t for t in inc.TRITANGENT_TRIOS if t <= off]
    covectors = [planes[inc.TRIO_INDEX[t]].coeffs for t in trios]
    rows = [[cov[k] if lab in t else rat(0) for t, cov in zip(trios, covectors)]
            for lab in inc.label_order(off) for k in range(4)]
    kern = ExactMatrix(rows).kernel_basis()
    if len(kern) != 1:
        raise NoDecompositionError(
            f"plane scalars of a double-six span dimension {len(kern)}")
    return dict(zip(trios, kern[0]))


def hexahedral_from_cs(cs, surface, planes):
    """The Cremona hexahedral forms of the three double-sixes that share no
    line with the trihedral pair of cs, sorted by the scalar of T.

    The pair's planes P, Q, R, S, T, U lie among the 15 planes x_i + x_j = 0
    of each; scaled by _double_six_scalars, with U's scalar 1, they give
    x_1 = Q + R - P, ..., x_6 = S + T - U.  sum(x_i) = 0 and
    sum(x_i^3) = c*F with c != 0 are checked, not assumed.
    """
    trios = cs.row_trios + cs.col_trios
    key = tuple(planes[t] for t in inc.TRITANGENT_TRIOS)
    results = []
    for ds in inc.enumerate_double_sixes():
        if inc.pair_lines(cs.pair) & frozenset().union(*ds):
            continue
        lam = _double_six_scalars(ds, key)
        unit = inverse(lam[trios[5]])
        p, q, r, s, t, u = (f.scale(lam[trio] * unit)
                            for f, trio in zip(cs.plane_forms(), trios))
        x = [q + r - p, r + p - q, p + q - r, t + u - s, u + s - t, s + t - u]
        c = ratio(sum((f * f * f for f in x), MultiPoly(4)), surface.F)
        if sum(x, MultiPoly(4)) or not c:
            raise NoDecompositionError(
                "the double-six's planes give no hexahedral form")
        results.append((surface.tower.embed(lam[trios[4]] * unit),
                        HexahedralForm(ds, x, c)))
    results.sort(key=lambda item: _scalar_key(item[0]))
    return [form for _, form in results]


def _scalar_key(x):
    """Rationals in their usual order, tower elements by coefficient list."""
    return ([k for c in x.coeffs for k in _scalar_key(c)]
            if isinstance(x, FieldElement) else [x])


def hexahedral_lines(hexform, planes):
    """The 15 surface lines cut by the hexahedral planes, and the leftover
    double-six; planes maps each tritangent trio to its plane.

    The 15 planes x_i + x_j = 0 are the tritangent planes off the form's
    double-six.  Each partition of {1..6} into three pairs gives three of
    them whose covectors sum to zero, hence a pencil with a common axis: the
    one line that their three trios share, as each plane was checked to hold
    its trio's lines.  The 12 unmatched labels form a double-six.
    """
    trio_of = {plane: trio for trio, plane in planes.items()}
    matched = {}
    for part in inc.partitions_into_pairs(range(6)):
        part = tuple(sorted(tuple(sorted(p)) for p in part))
        axis = frozenset.intersection(
            *(trio_of.get(hexform.planes[frozenset(p)], frozenset()) for p in part))
        if len(axis) != 1:
            raise NoDecompositionError(f"the planes of partition {list(part)} "
                                       "are not tritangent through one line")
        matched[part] = next(iter(axis))
    if len(set(matched.values())) != 15:
        raise NoDecompositionError("hexahedral axes are not 15 distinct lines")
    leftover = frozenset(inc.ALL_LABELS) - set(matched.values())
    if leftover != frozenset().union(*hexform.double_six):
        raise NoDecompositionError(
            "complement of the 15 axes is not the form's double-six")
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


def all_hexahedral_forms(surface, planes):
    """Every hexahedral form from every trihedral pair, with its double-six.

    Returns (forms, by_double_six) where forms is a list of
    (pair, HexahedralForm, double_six) triples.
    """
    results = []
    by_ds = {}
    for pair in inc.enumerate_trieder_pairs():
        cs = cayley_salmon(surface, pair, planes)
        for hexform in hexahedral_from_cs(cs, surface, planes):
            _, ds = hexahedral_lines(hexform, planes)
            results.append((pair, hexform, ds))
            by_ds.setdefault(ds, []).append(hexform)
    return results, by_ds
