import itertools
from collections import Counter

import pytest

from cubicgeom import incidence as inc
from cubicgeom.field import rat
from cubicgeom.linalg import ExactMatrix, det3, signed_minors
from cubicgeom.multipoly import MultiPoly, monomials
from cubicgeom.projgeom import ProjPoint
from cubicgeom.quadrics import (QuadricSurface, residual_quadric,
                                residual_family_rank, steinerian_nodes,
                                desmic_lines, desmic_partition, quadric_web,
                                steinerian, six_line_quadric_census,
                                intersection_point_grouping, _face_product,
                                _partitions_into_tetrads, _pencil_members,
                                _trilinear_quadrics, _symmetric,
                                NoDesmicPartitionError)

@pytest.fixture(scope="module")
def trio(sorted_trios):
    return sorted_trios[0]


@pytest.fixture(scope="module")
def web(surface, trio, lines, planes):
    return quadric_web(surface, trio, lines, planes[trio])


@pytest.fixture(scope="module")
def quartic(surface, web, lines):
    return steinerian(surface, web)


def test_residual_quadric_of_the_plane_itself(surface, trio, lines, planes):
    plane = planes[trio]
    q, alpha = residual_quadric(surface, plane, [plane, plane, plane])
    form = MultiPoly.linear_form(plane.coeffs)
    assert q == QuadricSurface.from_form(form * form)
    assert alpha == 0


def test_residual_identity(surface, trio, lines, planes):
    # pi_1 pi_2 pi_3 = pi*Q + alpha*F for a genuine triple of tritangent
    # pencil members
    plane = planes[trio]
    labs = sorted(trio, key=lambda l: inc.LABEL_INDEX[l])
    others = [next(planes[t] for t in inc.TRITANGENT_TRIOS
                   if lab in t and t != trio) for lab in labs]
    q, alpha = residual_quadric(surface, plane, others)
    prod = MultiPoly.constant(4, rat(1))
    for h in others:
        prod = prod * MultiPoly.linear_form(h.coeffs)
    residue = prod - surface.F.scale(alpha)
    quotient = residue.divide_exact(MultiPoly.linear_form(plane.coeffs))
    assert QuadricSurface.from_form(quotient) == q


def test_full_family_spans_eight(surface, trio, lines, planes):
    assert residual_family_rank(surface, trio, planes) == 8


def test_twelve_nodes_constructed(surface, trio, lines):
    nodes = steinerian_nodes(trio, lines)
    assert len(nodes) == 12
    assert len(set(nodes)) == 12
    for n in nodes:
        assert surface.contains_point(n)


def test_desmic_partition_unique_and_dependent(trio, lines):
    nodes = steinerian_nodes(trio, lines)
    part = desmic_partition(nodes)
    assert sorted(i for t in part for i in t) == list(range(12))
    deg4 = monomials(4, 4)
    rows = [_face_product([nodes[i] for i in t]).coeff_vector(deg4)
            for t in part]
    assert ExactMatrix(rows).rank() == 2


def test_desmic_lines_meet_every_tetrad(trio, lines):
    # a (12_4, 16_3) configuration: 16 lines of 3 nodes, 4 through each
    # node, and each line through one vertex of every tetrahedron
    nodes = steinerian_nodes(trio, lines)
    found = desmic_lines(nodes)
    assert len(found) == 16
    assert set(Counter(i for line in found for i in line).values()) == {4}
    tetrad_of = {i: k for k, t in enumerate(desmic_partition(nodes))
                 for i in t}
    for line in found:
        assert ExactMatrix([nodes[i].coords for i in line]).rank() == 2
        assert sorted(tetrad_of[i] for i in line) == [0, 1, 2]


def test_node_moved_off_its_lines_has_no_partition(trio, lines):
    nodes = steinerian_nodes(trio, lines)
    x = nodes[0].coords
    moved = [ProjPoint([x[0] + 1, x[1], x[2], x[3]])] + nodes[1:]
    # the 4 lines through the moved node are gone, and no new one appears
    with pytest.raises(NoDesmicPartitionError, match="found 12 desmic lines"):
        desmic_partition(moved)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), rat(0))


def _probe_partition(nodes):
    """Oracle for desmic_partition that does not use the desmic lines.

    A partition of the 12 nodes is a candidate when the face products of its
    tetrads, evaluated at 3 probes, are linearly dependent; those values come
    from one covector per node triple, each known only up to scale, which
    changes neither which tetrads are degenerate nor whether the 3x3 probe
    determinant vanishes.  Candidates are confirmed on the exact face-plane
    products, and exactly one must pass.
    """
    probes = [(rat(1), rat(2), rat(3), rat(5)), (rat(1), rat(-1), rat(2), rat(7)),
              (rat(2), rat(3), rat(-5), rat(1))]
    faces = {}
    for triple in itertools.combinations(range(12), 3):
        h = signed_minors([nodes[i].coords for i in triple])
        faces[triple] = (h, [_dot(h, p) for p in probes])
    tetrads = {}
    for combo in itertools.combinations(range(12), 4):
        # the 4x4 determinant of the tetrad is +- face . opposite vertex
        if not _dot(faces[combo[1:]][0], nodes[combo[0]].coords):
            continue
        values = [rat(1)] * len(probes)
        for i in range(4):
            face_values = faces[combo[:i] + combo[i + 1:]][1]
            values = [v * f for v, f in zip(values, face_values)]
        tetrads[combo] = values
    found = []
    deg4 = monomials(4, 4)
    for part in _partitions_into_tetrads(12):
        if any(t not in tetrads for t in part):
            continue
        if det3([tetrads[t] for t in part]):
            continue
        rows = [_face_product([nodes[i] for i in t]).coeff_vector(deg4)
                for t in part]
        if ExactMatrix(rows).rank() == 2:
            found.append(part)
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("which", ["session", "eckardt"])
def test_desmic_partition_matches_probe_oracle(request, which, sorted_trios):
    s = request.getfixturevalue(which)
    for trio in sorted_trios[:3]:
        nodes = steinerian_nodes(trio, s.lines)
        assert desmic_partition(nodes) == _probe_partition(nodes)


def test_web_dimension_four(web):
    assert len(web.basis) == 4
    rows = [b.coeff_vector() for b in web.basis]
    assert ExactMatrix(rows).rank() == 4


def test_web_members_vanish_at_base_points(web):
    for b in web.basis:
        for idx in web.base_points:
            node = web.nodes[idx]
            assert b.form().evaluate(node.coords) == 0


def test_steinerian_quartic_nodes(surface, quartic):
    assert quartic.form.degree() == 4
    grad = quartic.form.gradient()
    for node in quartic.nodes:
        assert quartic.form.evaluate(node.coords) == 0
        assert all(g.evaluate(node.coords) == 0 for g in grad)
        assert surface.contains_point(node)


def test_nodes_come_from_singular_members(web, quartic):
    # K(x) = det[S_0 x | ... | S_3 x], so K(v) = 0 exhibits a combination
    # lambda with (sum lambda_k S_k) v = 0: a member singular at v
    for v in quartic.nodes:
        cols = [[sum(b.mat[r][c] * v.coords[c] for c in range(4))
                 for b in web.basis] for r in range(4)]
        kerns = ExactMatrix(cols).kernel_basis()
        assert kerns, "node admits no singular member"
        lam = kerns[0]
        member = web.member(lam)
        assert ExactMatrix([list(row) for row in member.mat]).rank() <= 3
        assert all(sum(member.mat[r][c] * v.coords[c] for c in range(4)) == 0
                   for r in range(4))


def test_census_counts(surface, planes):
    census = six_line_quadric_census(surface, planes)
    per = Counter(len(v["nonsingular"]) for v in census["per_set"].values())
    assert per == Counter({48: 45})
    assert len(census["distinct"]) == 360
    assert set(census["multiplicities"]) == {6}
    for v in census["per_set"].values():
        assert v["singular_ranks"] == [2] * 16


@pytest.mark.parametrize("k", [0, 44])
def test_trilinear_quadrics_are_residual_quadrics(surface, planes,
                                                  sorted_trios, k):
    # the census's 64 quadrics per plane, from 8 corners, against the
    # definition: one residual_quadric per triple of pencil members
    trio = sorted_trios[k]
    plane = planes[trio]
    members = _pencil_members(trio, planes)
    quadrics = _trilinear_quadrics(surface, plane, members)
    triples = list(itertools.product(*members))
    assert len(quadrics) == len(triples) == 64
    for entries, triple in zip(quadrics, triples):
        expected, _ = residual_quadric(surface, plane, list(triple))
        assert QuadricSurface(_symmetric(entries)) == expected


def _fraction_census(surface, planes):
    """Oracle for six_line_quadric_census: the census as computed on the
    canonical rational (or tower) coordinates, with pencil weights from
    ExactMatrix.solve, corner quadrics with halved cross terms, the
    (o_1, o_2, o_3) corner rescaled by its lead only, and nonsingularity and
    rank by ExactMatrix.det and ExactMatrix.rank."""
    half = rat(1, 2)
    upper = [(r, c) for r in range(4) for c in range(r, 4)]
    census = {}
    for trio in inc.TRITANGENT_TRIOS:
        plane, members = planes[trio], _pencil_members(trio, planes)
        fixed = [m[0] for m in members]
        weights = []
        for o, ms in zip(fixed, members):
            pencil = ExactMatrix([plane.coeffs, o.coeffs]).transpose()
            weights.append([pencil.solve(list(h.coeffs)) for h in ms])
        q, _ = residual_quadric(surface, plane, fixed)
        factors = [(plane.coeffs, o.coeffs) for o in fixed]
        table = {}
        for corner in itertools.product((0, 1), repeat=3):
            if corner == (1, 1, 1):
                table[corner] = [q.lead * q.mat[r][c] for r, c in upper]
                continue
            drop = corner.index(0)
            u, v = (factors[i][s] for i, s in enumerate(corner) if i != drop)
            table[corner] = [u[r] * v[r] if r == c
                             else (u[r] * v[c] + u[c] * v[r]) * half
                             for r, c in upper]
        for i, ab in enumerate(weights):
            table = {key[:i] + (j,) + key[i + 1:]:
                     [a * x + b * y for x, y in
                      zip(entries, table[key[:i] + (1,) + key[i + 1:]])]
                     for key, entries in table.items() if key[i] == 0
                     for j, (a, b) in enumerate(ab)}
        nonsingular, ranks = [], []
        for key in itertools.product(range(4), repeat=3):
            mat = ExactMatrix(_symmetric(table[key]))
            if mat.det():
                nonsingular.append(QuadricSurface(mat.rows))
            else:
                ranks.append(mat.rank())
        census[trio] = (nonsingular, sorted(ranks))
    return census


@pytest.mark.parametrize("which", ["session", "eckardt", "species2"])
def test_census_matches_fraction_oracle(request, which):
    # species 2 is an input over Q(i)
    s = (request.getfixturevalue("species_sessions")[2] if which == "species2"
         else request.getfixturevalue(which))
    census = six_line_quadric_census(s.surface, s.planes)
    oracle = _fraction_census(s.surface, s.planes)
    membership = {}
    for trio, (nonsingular, ranks) in oracle.items():
        got = census["per_set"][trio]
        # the same quadrics, one for one, in the same order
        assert got["nonsingular"] == nonsingular
        assert got["singular_ranks"] == ranks
        for q in nonsingular:
            membership.setdefault(q, set()).add(trio)
    assert census["membership"] == membership
    assert census["distinct"] == set(membership)
    assert census["multiplicities"] == sorted(len(v) for v in membership.values())


def test_eckardt_input_has_an_eckardt_point(eckardt):
    points, _ = intersection_point_grouping(eckardt.lines)
    assert len(set(points.values())) == 133


def test_census_counts_on_eckardt_surface(eckardt):
    census = six_line_quadric_census(eckardt.surface, eckardt.planes)
    per = Counter(len(v["nonsingular"]) for v in census["per_set"].values())
    assert per == Counter({48: 45})
    assert len(census["distinct"]) == 360
    assert Counter(census["multiplicities"]) == Counter({6: 360})


def test_first_webs_on_eckardt_surface(eckardt, sorted_trios):
    for trio in sorted_trios[:3]:
        web = quadric_web(eckardt.surface, trio, eckardt.lines,
                          eckardt.planes[trio])
        quartic = steinerian(eckardt.surface, web)
        assert len(web.basis) == 4
        assert len(quartic.nodes) == 12
        assert sorted(i for t in web.tetrads for i in t) == list(range(12))


def test_grouping_135_points(lines):
    points, groups = intersection_point_grouping(lines)
    assert len(points) == 135
    assert len(set(points.values())) == 135
    assert len(groups) == 45
    counts = Counter(p for g in groups.values() for p in g)
    assert all(len(g) == 12 for g in groups.values())
    assert set(counts.values()) == {4}


def test_steinerian_group_matches_nodes(trio, lines, quartic):
    # the grouping entry of the trio's plane consists of its quartic's nodes
    _, groups = intersection_point_grouping(lines)
    assert sorted(groups[frozenset(trio)], key=lambda p: tuple(map(str, p.coords))) == \
        sorted(quartic.nodes, key=lambda p: tuple(map(str, p.coords)))
