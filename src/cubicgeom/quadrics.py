"""Webs of quadrics attached to a tritangent plane, the 45x48/360 quadric
census, the Steinerian desmic quartic with its 12 nodes and 3 desmic
tetrahedra, and the grouping of the 135 line-intersection points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import rat, inverse, clear_denominators, primitive, canonicalize
from .linalg import (ExactMatrix, signed_minors, rank_below_3, det4,
                     integral_rank)
from .multipoly import MultiPoly, monomials, eval_monomial, ratio
from .projgeom import ProjPlane, span_plane, meet_lines
from . import incidence as inc


class NoSolutionError(ValueError):
    pass


class WrongDimensionError(ValueError):
    pass


class NodeVerificationFailedError(ValueError):
    pass


class NoDesmicPartitionError(ValueError):
    pass


QUADRIC_MONOMIALS = monomials(4, 2)
_UPPER = [(r, c) for r in range(4) for c in range(r, 4)]


def _symmetric(entries):
    """The symmetric 4x4 matrix with the given upper-triangle entries."""
    mat = [[None] * 4 for _ in range(4)]
    for (r, c), x in zip(_UPPER, entries):
        mat[r][c] = mat[c][r] = x
    return mat


class QuadricSurface:
    """A quadric from a symmetric 4x4 matrix, of which only the upper
    triangle is read.  `upper` holds the field.primitive vector of its 10
    entries (over Q the primitive integer vector with a positive lead), and
    equality and hashing compare it, which is comparing the matrices up to
    scale.  `lead` is the first nonzero entry of the given matrix, and
    `mat`, built when first read, the matrix divided by it."""

    __slots__ = ("upper", "lead", "_mat")

    def __init__(self, mat):
        entries = [mat[r][c] for r, c in _UPPER]
        self.lead = next((x for x in entries if x), None)
        if self.lead is None:
            raise ValueError("zero quadric")
        self.upper = primitive(entries)
        self._mat = None

    @property
    def mat(self):
        if self._mat is None:
            self._mat = tuple(map(tuple, _symmetric(canonicalize(self.upper))))
        return self._mat

    @classmethod
    def from_form(cls, q):
        half = rat(1, 2)
        mat = [[rat(0)] * 4 for _ in range(4)]
        for (e, c) in q.terms.items():
            idx = [k for k in range(4) for _ in range(e[k])]
            r, s = idx
            if r == s:
                mat[r][r] = c
            else:
                mat[r][s] = c * half
                mat[s][r] = c * half
        return cls(mat)

    def form(self):
        acc = MultiPoly(4)
        for r in range(4):
            for c in range(4):
                if self.mat[r][c]:
                    e = [0] * 4
                    e[r] += 1
                    e[c] += 1
                    acc = acc + MultiPoly(4, {tuple(e): self.mat[r][c]})
        return acc

    def coeff_vector(self):
        q = self.form()
        return [q.coefficient(m) for m in QUADRIC_MONOMIALS]

    def __eq__(self, other):
        return isinstance(other, QuadricSurface) and self.upper == other.upper

    def __hash__(self):
        return hash(self.upper)


def _restrict_to_plane(form, plane):
    basis = ExactMatrix([list(plane.coeffs)]).kernel_basis()
    params = [MultiPoly.linear_form([basis[m][k] for m in range(3)])
              for k in range(4)]
    return form.substitute(params)


def residual_quadric(surface, plane, pencil_planes):
    """The unique (Q, alpha) with pi_1 pi_2 pi_3 = plane*Q + alpha*F.

    alpha comes from restricting both cubics to the tritangent plane (where
    the plane*Q term dies), and Q by one exact division; Q cuts the surface
    along the three residual conics of the pencil planes.
    """
    product = MultiPoly.constant(4, rat(1))
    for h in pencil_planes:
        product = product * MultiPoly.linear_form(h.coeffs)
    prod_r = _restrict_to_plane(product, plane)
    f_r = _restrict_to_plane(surface.F, plane)
    if prod_r.is_zero():
        alpha = rat(0)
    else:
        alpha = ratio(prod_r, f_r)
        if alpha is None:
            raise NoSolutionError("restricted cubics are not proportional")
    remainder = product - surface.F.scale(alpha)
    if remainder.is_zero():
        raise NoSolutionError("degenerate pencil choice")
    q = remainder.divide_exact(MultiPoly.linear_form(plane.coeffs))
    return QuadricSurface.from_form(q), alpha


def _face_product(tetrad):
    acc = MultiPoly.constant(4, rat(1))
    for i in range(4):
        h = span_plane(*(tetrad[j] for j in range(4) if j != i))
        acc = acc * MultiPoly.linear_form(h.coeffs)
    return acc


def desmic_lines(nodes):
    """The 16 lines of the desmic system, as the node triples of rank 2 on
    the nodes' integral vectors, a triple's 3x3 minors taken only up to the
    first nonzero one.  Any other count raises NoDesmicPartitionError."""
    coords = [n.ints for n in nodes]
    found = [t for t in itertools.combinations(range(len(nodes)), 3)
             if rank_below_3([coords[i] for i in t])]
    if len(found) != 16:
        raise NoDesmicPartitionError(f"found {len(found)} desmic lines")
    return found


def desmic_partition(nodes):
    """The unique split of the 12 nodes into 3 non-degenerate tetrahedra with
    linearly dependent face-plane products.

    The certificate is the 16 desmic lines: each passes through one vertex of
    every tetrahedron, so a tetrad holds no two nodes of a line.  Only the
    partitions of the 5775 that obey this are checked on the exact products.
    """
    joined = {pair for line in desmic_lines(nodes)
              for pair in itertools.combinations(line, 2)}
    found = []
    deg4 = monomials(4, 4)
    for part in _partitions_into_tetrads(12):
        if any(pair in joined for t in part
               for pair in itertools.combinations(t, 2)):
            continue
        tetrads = [[nodes[i] for i in t] for t in part]
        if not all(ExactMatrix([n.coords for n in t]).det() for t in tetrads):
            continue
        rows = [_face_product(t).coeff_vector(deg4) for t in tetrads]
        if ExactMatrix(rows).rank() == 2:
            found.append(part)
    if len(found) != 1:
        raise NoDesmicPartitionError(f"found {len(found)} desmic partitions")
    return found[0]


def _partitions_into_tetrads(n):
    idx = list(range(n))
    for first_rest in itertools.combinations(idx[1:], 3):
        t1 = (0,) + first_rest
        rem = [i for i in idx if i not in t1]
        for second_rest in itertools.combinations(rem[1:], 3):
            t2 = (rem[0],) + second_rest
            t3 = tuple(i for i in rem if i not in t2)
            yield (t1, t2, t3)


@dataclass
class QuadricWeb:
    """A 4-dimensional linear system of quadrics through six of the 12 nodes.

    The base points are one vertex pair from each desmic tetrahedron, chosen
    as the first selection (in a deterministic scan) whose span of quadrics
    is 4-dimensional and whose Jacobian determinant is a quartic singular at
    all 12 nodes.
    """

    trio: frozenset
    plane: ProjPlane
    basis: list              # 4 QuadricSurfaces
    nodes: list              # the 12 nodes: the trio's group
    tetrads: tuple           # desmic partition as index tetrads
    base_points: tuple       # indices of the 6 base nodes
    quartic: MultiPoly       # the Steinerian, det[S_0 x | ... | S_3 x]


def _jacobian_det(mats):
    """det [S_0 x | S_1 x | S_2 x | S_3 x] for symmetric matrices S_k, by
    Laplace expansion along the first row."""
    cols = [[MultiPoly.linear_form(row) for row in m] for m in mats]
    rows = [[cols[c][r] for c in range(4)] for r in range(4)]
    return sum((a * v for a, v in zip(rows[0], signed_minors(rows[1:]))),
               MultiPoly(4))


def quadric_web(surface, trio, nodes, plane):
    """The web of quadrics attached to a tritangent plane, with its Steinerian.

    The nodes are the trio's group of intersection_point_grouping; unless
    they are 12 distinct points of the surface, NodeVerificationFailedError.
    The basis spans the quadrics through six of them (one vertex pair from
    each tetrahedron of desmic_partition, whose certificate is the 16 desmic
    lines); the first pair choice of a deterministic scan whose Jacobian
    quartic is zero and singular at all 12 nodes is taken, and the web keeps
    that quartic, the Steinerian, of the basis's lead-1 matrices.  The scan
    runs on integral vectors: the base-point rows are the nodes' ints
    (scaling a row keeps the kernel), and the quartic it tests is that of
    the basis's primitive matrices, evaluated at the nodes' ints.  That
    quartic is the Steinerian times the product of the primitive matrices'
    leads, so the web keeps it divided by that product.  The full family of residual quadrics
    spans 8 dimensions (see residual_family_rank), so this 4-dimensional
    system is the one cut by the base-point conditions.
    """
    if len(nodes) != 12 or len(set(nodes)) != 12:
        raise NodeVerificationFailedError("expected 12 distinct nodes")
    for node in nodes:
        if not surface.contains_point(node):
            raise NodeVerificationFailedError(f"node {node} is not on F = 0")
    part = desmic_partition(nodes)
    for pairsel in itertools.product(itertools.combinations(range(4), 2),
                                     repeat=3):
        base_idx = tuple(part[ti][a] for ti, pair in enumerate(pairsel)
                         for a in pair)
        rows = [[eval_monomial(e, nodes[i].ints) for e in QUADRIC_MONOMIALS]
                for i in base_idx]
        kern = ExactMatrix(rows).kernel_basis()
        if len(kern) != 4:
            continue
        basis = [QuadricSurface.from_form(MultiPoly(4, zip(QUADRIC_MONOMIALS, vec)))
                 for vec in kern]
        k_int = _jacobian_det([_symmetric(b.upper) for b in basis])
        if k_int.is_zero() or k_int.degree() != 4:
            continue
        grad = k_int.gradient()
        if not any(k_int.evaluate(n.ints) or any(g.evaluate(n.ints) for g in grad)
                   for n in nodes):
            leads = rat(1)
            for b in basis:
                leads = leads * next(x for x in b.upper if x)
            return QuadricWeb(frozenset(trio), plane, basis, nodes, part,
                              base_idx, k_int.scale(inverse(leads)))
    raise WrongDimensionError("no admissible base-point selection found")


def residual_family_rank(surface, trio, planes):
    """The exact dimension of the span of all residual quadrics of the plane.

    The residual quadric is trilinear in the three pencil members, and the 4
    tritangent members of each pencil span it, so the 64 census quadrics of
    the plane span the family; the measured rank is 8.
    """
    return ExactMatrix(_trilinear_quadrics(
        surface, planes[trio], _pencil_members(trio, planes))).rank()


def _product_entries(u, v):
    """Upper-triangle entries of twice the matrix of the quadric u*v, which
    stay integral on integral covectors."""
    return [2 * u[r] * v[r] if r == c else u[r] * v[c] + u[c] * v[r]
            for r, c in _UPPER]


def _pencil_members(trio, planes):
    """For each line of the trio, in label order, the 4 other tritangent
    planes through it."""
    return [[planes[t] for t in others]
            for _, others in inc.trios_through(trio)]


def _pencil_weights(h, o, m):
    """(a, b) with a*h + b*o a nonzero multiple of m, by Cramer's rule on the
    first nonzero 2x2 minor of (h, o) and checked on all four coordinates;
    NoSolutionError if m is not in the pencil of h and o."""
    for r, s in itertools.combinations(range(4), 2):
        det = h[r] * o[s] - h[s] * o[r]
        if det:
            a, b = m[r] * o[s] - m[s] * o[r], h[r] * m[s] - h[s] * m[r]
            if any(a * x + b * y - det * z for x, y, z in zip(h, o, m)):
                break
            return a, b
    raise NoSolutionError("a member is not in the pencil of its line")


def _trilinear_quadrics(surface, plane, members):
    """The residual quadrics of all 64 triples of pencil members, each up to
    a nonzero factor, as upper-triangle entries in itertools.product order.

    Every covector is first cleared to integral coordinates: the plane by
    lambda, o_i (the first member through line i) by mu_i.  Each member is
    then a*plane + b*o_i, up to a factor, and the residual quadric is
    trilinear in the three (a, b): a corner with a plane factor is the
    product of the other two linear forms, taken twice so that it needs no
    half, and only the (o_1, o_2, o_3) corner needs residual_quadric,
    rescaled by 2 mu_1 mu_2 mu_3 / lambda to match.  All 8 corners are then
    scaled by one common denominator, so the contraction runs on integers
    (on elements with denominator 1 over an extension of Q).
    """
    lam, h = clear_denominators(plane.coeffs)
    fixed = [m[0] for m in members]
    scale, factors, weights = rat(2, lam), [], []
    for o, ms in zip(fixed, members):
        mu, oc = clear_denominators(o.coeffs)
        scale *= mu
        factors.append((h, oc))
        weights.append([_pencil_weights(h, oc, m.ints) for m in ms])
    q, _ = residual_quadric(surface, plane, fixed)
    scale *= q.lead
    den, top = clear_denominators([scale * q.mat[r][c] for r, c in _UPPER])
    table = {(1, 1, 1): top}
    for corner in itertools.product((0, 1), repeat=3):
        if corner != (1, 1, 1):
            drop = corner.index(0)
            u, v = (factors[i][s] for i, s in enumerate(corner) if i != drop)
            table[corner] = [den * x for x in _product_entries(u, v)]
    # contract the corner index of each pencil in turn with its 4 members
    for i, ab in enumerate(weights):
        table = {key[:i] + (j,) + key[i + 1:]:
                 [a * x + b * y for x, y in
                  zip(entries, table[key[:i] + (1,) + key[i + 1:]])]
                 for key, entries in table.items() if key[i] == 0
                 for j, (a, b) in enumerate(ab)}
    return [table[key] for key in itertools.product(range(4), repeat=3)]


def six_line_quadric_census(surface, planes):
    """For each tritangent plane, the 64 residual quadrics of tritangent
    pencil members, with per-set nonsingular counts and global deduplication.

    The quadrics come integral from _trilinear_quadrics; nonsingularity is
    det4 and a singular quadric's rank is integral_rank, so no entry is
    divided until a nonsingular quadric is canonicalized as its key."""
    per_set = {}
    membership = {}
    for trio in inc.TRITANGENT_TRIOS:
        nonsingular = []
        singular_ranks = []
        for entries in _trilinear_quadrics(surface, planes[trio],
                                           _pencil_members(trio, planes)):
            mat = _symmetric(entries)
            if det4(mat):
                q = QuadricSurface(mat)
                nonsingular.append(q)
                membership.setdefault(q, set()).add(trio)
            else:
                singular_ranks.append(integral_rank(mat))
        per_set[trio] = {"nonsingular": nonsingular,
                         "singular_ranks": sorted(singular_ranks)}
    distinct = set(membership)
    multiplicities = sorted(len(v) for v in membership.values())
    return {"per_set": per_set, "distinct": distinct,
            "membership": membership, "multiplicities": multiplicities}


def intersection_point_grouping(lines):
    """The 135 pairwise intersection points of the 27 lines, grouped 45x12.

    The group of a tritangent plane consists of the intersection points of
    the residual line-pairs of the 12 other tritangent planes through its
    three lines, ordered by trio line, then by the scan order of the other
    trios; they are the 12 nodes of the plane's Steinerian quartic (see
    quadric_web).  Every point lies in exactly 4 groups.
    """
    points = {}
    for l1, l2 in itertools.combinations(inc.ALL_LABELS, 2):
        if inc.meets_rule(l1, l2):
            points[frozenset({l1, l2})] = meet_lines(lines[l1], lines[l2])
    groups = {trio: [points[other - {lab}]
                     for lab, others in inc.trios_through(trio)
                     for other in others]
              for trio in inc.TRITANGENT_TRIOS}
    return points, groups
