"""The hexagram configuration of a hexahedral form: the 15 planes
x_i + x_j = 0, the 60 Cremona pairs and their Pascal lines, the 6
pentahedra carrying them as edges, and the exact collinearity of the
projected hexagons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import rat
from .linalg import ExactMatrix
from .projgeom import (ProjPoint, ProjPlane, ProjLine, meet_planes, meet_lines,
                       plane_through_line)
from .blowup import lines_meet


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

    def lines_in_plane(self, key):
        return [part for part in self.lines15
                if tuple(sorted(key)) in part]


def hexagram_config(hexform, surface, lines):
    """Planes Pi_ij = V(x_i + x_j) with their incidence structure.

    Each plane is tritangent (contains 3 of the 15 lines, by the index rule
    and verified geometrically); plane pairs sharing one index meet along a
    line off the surface (Cremona pairs, 60 of them); disjoint-index pairs
    meet along the surface line of the partition containing both (45).
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
    return HexagramConfig(hexform, planes, matched, lines15, cremona, pascal,
                          shared)


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


def _project_line(line, center, screen):
    if line.contains(center):
        raise DegenerateCenter("center lies on a projected line")
    wall = plane_through_line(line, center)
    return meet_planes(wall, screen)


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
    """Project the 6 surface lines of a Cremona pair into a hexagon.

    The in-space meet graph of the 6 lines is two triangles (one per plane)
    joined by a perfect matching; the hexagon is ordered so that opposite
    sides (cycle distance 3) are the matched cross pairs.  The three points
    where opposite sides meet are exactly collinear, on the projection of
    the pair's Pascal line.
    """
    k1, k2 = pair
    tri1 = [config.lines15[p] for p in config.lines_in_plane(k1)]
    tri2 = [config.lines15[p] for p in config.lines_in_plane(k2)]
    if not surface.contains_point(center):
        raise DegenerateCenter("center is not on the surface")
    for line in tri1 + tri2:
        if line.contains(center):
            raise DegenerateCenter("center lies on a hexagon line")
    for key in pair:
        if config.planes[key].contains(center):
            raise DegenerateCenter("center lies on a plane of the pair")
    if screen.contains(center):
        raise DegenerateCenter("screen passes through the center")
    for a, b in itertools.combinations(tri1, 2):
        if not lines_meet(a, b):
            raise NotAHexagon("coplanar trio fails to form a triangle")
    for a, b in itertools.combinations(tri2, 2):
        if not lines_meet(a, b):
            raise NotAHexagon("coplanar trio fails to form a triangle")
    match = {}
    for a in tri1:
        partners = [b for b in tri2 if lines_meet(a, b)]
        if len(partners) != 1:
            raise NotAHexagon("cross meets are not a perfect matching")
        match[a] = partners[0]
    if len(set(match.values())) != 3:
        raise NotAHexagon("cross meets are not a perfect matching")
    sides = [tri1[0], tri1[1], tri1[2],
             match[tri1[0]], match[tri1[1]], match[tri1[2]]]
    projected = [_project_line(l, center, screen) for l in sides]
    vertices = [_meet_in_screen(projected[i], projected[(i + 1) % 6], screen)
                for i in range(6)]
    diag = [_meet_in_screen(projected[i], projected[i + 3], screen)
            for i in range(3)]
    if ExactMatrix([list(p.coords) for p in diag]).rank() != 2:
        raise ValueError("diagonal points are not collinear")
    diag_line = ProjLine(diag[0], diag[1])
    pascal = config.pascal_lines[pair]
    pascal_proj = _project_line(pascal, center, screen)
    if diag_line != pascal_proj:
        raise ValueError("diagonal line is not the projected Pascal line")
    return HexagramReport(pair, center, screen, sides, vertices, diag,
                          diag_line, pascal_proj)


def _meet_in_screen(l1, l2, screen):
    """The common point of two lines inside the screen plane."""
    if l1 == l2:
        raise NotAHexagon("adjacent sides project to the same line")
    return meet_lines(l1, l2)


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
