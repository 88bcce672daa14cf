"""The hexagram configuration of a hexahedral form: the 15 planes
x_i + x_j = 0, the 60 Cremona pairs and their Pascal lines, the 6
pentahedra carrying them as edges, and the exact collinearity of the
projected hexagons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import rat, clear_denominators
from .linalg import signed_minors
from .projgeom import (ProjPoint, ProjPlane, ProjLine, EqualLinesError,
                       meet_planes, meet_coplanar, plucker_vector, lines_meet)


class NotAHexagon(ValueError):
    pass


class DegenerateCenter(ValueError):
    pass


@dataclass
class HexagramConfig:
    """The 15 planes, 15 lines, 60 Cremona pairs and Pascal lines of a
    hexahedral form."""

    hexform: object
    planes: dict          # frozenset({i, j}) -> ProjPlane
    line_labels: dict     # partition (3 sorted index pairs) -> line label
    lines15: dict         # same keys -> ProjLine
    cremona_pairs: list   # (key1, key2) sharing exactly one index
    pascal_lines: dict    # cremona pair -> ProjLine (intersection, off X)
    shared_pairs: list    # disjoint-index plane pairs, sharing a surface line
    hexagons: dict        # cremona pair -> its 6 surface lines as a hexagon


def hexagram_config(hexform, surface, lines):
    """Planes Pi_ij = V(x_i + x_j) with their incidence structure.

    Each plane is tritangent (contains 3 of the 15 lines, by the index rule
    and verified geometrically); plane pairs sharing one index meet along a
    line off the surface (Cremona pairs, 60 of them); disjoint-index pairs
    meet along the surface line of the partition containing both (45).
    Each Cremona pair's 6 lines are ordered as a hexagon once, here.
    """
    from .forms import hexahedral_lines
    matched, _ = hexahedral_lines(hexform, lines)
    planes = {frozenset(p): hexform.plane(*sorted(p))
              for p in itertools.combinations(range(6), 2)}
    lines15 = {part: lines[lab] for part, lab in matched.items()}
    for part, line in lines15.items():
        for pair in part:
            plane = planes[frozenset(pair)]
            if not (plane.contains(line.p) and plane.contains(line.q)):
                raise ValueError("index rule violates geometric containment")
    for key, plane in planes.items():
        inside = [part for part, line in lines15.items()
                  if plane.contains(line.p) and plane.contains(line.q)]
        if len(inside) != 3 or any(tuple(sorted(key)) not in p for p in inside):
            raise ValueError("plane is not tritangent to the 15 lines")
    cremona, shared, pascal = [], [], {}
    for k1, k2 in itertools.combinations(sorted(planes, key=sorted), 2):
        axis = meet_planes(planes[k1], planes[k2])
        if k1 & k2:
            if surface.contains_line(axis):
                raise ValueError("Cremona axis unexpectedly lies on the surface")
            cremona.append((k1, k2))
            pascal[(k1, k2)] = axis
        else:
            part = next(p for p in lines15
                        if tuple(sorted(k1)) in p and tuple(sorted(k2)) in p)
            if axis != lines15[part]:
                raise ValueError("disjoint-index planes do not share their line")
            shared.append((k1, k2))
    if len(cremona) != 60 or len(shared) != 45:
        raise ValueError("unexpected pair counts")
    hexagons = {}
    for pair in cremona:
        tri1, tri2 = ([line for part, line in lines15.items()
                       if tuple(sorted(key)) in part] for key in pair)
        hexagons[pair] = _hexagon(tri1, tri2)
    return HexagramConfig(hexform, planes, matched, lines15, cremona, pascal,
                          shared, hexagons)


def _hexagon(tri1, tri2):
    """The 6 lines of two coplanar trios in cyclic side order.

    In space they meet as two triangles (one per plane) joined by a perfect
    matching; the hexagon is tri1 followed by each line's partner, so that
    opposite sides (cycle distance 3) are the matched cross pairs.
    """
    for tri in (tri1, tri2):
        for a, b in itertools.combinations(tri, 2):
            if not lines_meet(a, b):
                raise NotAHexagon("coplanar trio fails to form a triangle")
    match = []
    for a in tri1:
        partners = [b for b in tri2 if lines_meet(a, b)]
        if len(partners) != 1:
            raise NotAHexagon("cross meets are not a perfect matching")
        match.append(partners[0])
    if len(set(match)) != 3:
        raise NotAHexagon("cross meets are not a perfect matching")
    return tri1 + match


def pentahedra(config):
    """The 6 pentahedra P_i with faces {Pi_ij : j != i}.

    Each plane is a face of exactly 2 pentahedra, and the 60 pentahedron
    edges (pairwise face meets) are exactly the 60 Pascal lines.
    """
    penta = [tuple(frozenset({i, j}) for j in range(6) if j != i)
             for i in range(6)]
    membership = {key: sum(key in p for p in penta) for key in config.planes}
    if set(membership.values()) != {2}:
        raise ValueError("a plane is not a face of exactly two pentahedra")
    edges = set()
    for faces in penta:
        for k1, k2 in itertools.combinations(faces, 2):
            edges.add(meet_planes(config.planes[k1], config.planes[k2]))
    if edges != set(config.pascal_lines.values()):
        raise ValueError("pentahedron edges are not the Pascal lines")
    return penta


@dataclass
class HexagramReport:
    pair: tuple
    center: ProjPoint
    screen: ProjPlane
    hexagon: list           # 6 surface lines in cyclic side order
    vertices: list          # 6 projected vertices of the hexagon
    diagonal_points: list   # 3 meets of opposite sides
    diagonal_line: ProjLine
    pascal_projection: ProjLine


def project_hexagram(surface, config, pair, center, screen):
    """Project the hexagon of a Cremona pair from a center on the surface.

    The central projection pi(x) = (s.c) x - (s.x) c, s the screen and c the
    center, maps each side's spanning points into the screen on integral
    coordinates; a center on a side leaves them dependent.  The projected
    sides meet in the screen by meet_coplanar.  The three points where
    opposite sides meet are exactly collinear, on the projection of the
    pair's Pascal line.
    """
    if not surface.contains_point(center):
        raise DegenerateCenter("center is not on the surface")
    c = clear_denominators(center.coords)[1]
    for key in pair:
        if not _dot(clear_denominators(config.planes[key].coeffs)[1], c):
            raise DegenerateCenter("center lies on a plane of the pair")
    s = clear_denominators(screen.coeffs)[1]
    sc = _dot(s, c)
    if not sc:
        raise DegenerateCenter("screen passes through the center")
    sides = config.hexagons[pair]
    projected = [_project_line(line, s, c, sc) for line in sides]
    vertices = [_meet_in_screen(projected[i], projected[(i + 1) % 6])
                for i in range(6)]
    diag = [_meet_in_screen(projected[i], projected[i + 3]) for i in range(3)]
    diag_plucker = plucker_vector(diag[0], diag[1])
    if not any(diag_plucker) or any(signed_minors(diag)):
        raise ValueError("diagonal points are not collinear")
    pascal = _project_line(config.pascal_lines[pair], s, c, sc)
    if not _proportional(diag_plucker, pascal[2]):
        raise ValueError("diagonal line is not the projected Pascal line")
    diag = [ProjPoint(x) for x in diag]
    return HexagramReport(pair, center, screen, sides,
                          [ProjPoint(x) for x in vertices], diag,
                          ProjLine(diag[0], diag[1]),
                          ProjLine(ProjPoint(pascal[0]), ProjPoint(pascal[1])))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _project_line(line, s, c, sc):
    """(pi(p), pi(q), their Plucker vector) for the line's spanning points p
    and q, with pi(x) = (s.c) x - (s.x) c the point where the line cx meets
    the screen s, on integral coordinates, given sc = s.c.  A center on the
    line leaves pi(p) and pi(q) dependent: DegenerateCenter."""
    points = []
    for x in (line.p, line.q):
        x = clear_denominators(x.coords)[1]
        sx = _dot(s, x)
        points.append([sc * a - sx * b for a, b in zip(x, c)])
    v = plucker_vector(*points)
    if not any(v):
        raise DegenerateCenter("center lies on a projected line")
    return points[0], points[1], v


def _proportional(u, v):
    """Whether v is a nonzero multiple of the nonzero vector u."""
    k = next(i for i, x in enumerate(u) if x)
    return bool(v[k]) and not any(v[k] * x - u[k] * y for x, y in zip(u, v))


def _meet_in_screen(side1, side2):
    """The common point of two projected sides, each (p, q, Plucker vector)."""
    try:
        return meet_coplanar(side1[0], side1[1], side2[2])
    except EqualLinesError:
        raise NotAHexagon("adjacent sides project to the same line")


def default_screen(center):
    """A deterministic screen plane missing the center."""
    for coeffs in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                   [1, 1, 1, 1]):
        screen = ProjPlane([rat(c) for c in coeffs])
        if not screen.contains(center):
            return screen
    raise DegenerateCenter("no coordinate screen misses the center")


def verify_all_pairs(surface, config, lines, seed=0):
    """Run the projection check for every Cremona pair from three sampled
    centers off the 27 lines."""
    from .blowup import sample_surface_points
    avoid = list(lines.values())
    reports = []
    for n, pair in enumerate(config.cremona_pairs):
        centers = sample_surface_points(surface, 3, seed=seed + n,
                                        avoid_lines=avoid)
        for center in centers:
            reports.append(project_hexagram(surface, config, pair, center,
                                            default_screen(center)))
    return reports
