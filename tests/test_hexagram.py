import pytest

from cubicgeom import incidence as inc
from cubicgeom.blowup import sample_surface_points, lines_meet
from cubicgeom.hexagram import (hexagram_config, pentahedra, project_hexagram,
                                default_screen, verify_all_pairs,
                                DegenerateCenter)
from cubicgeom.linalg import ExactMatrix
from cubicgeom.projgeom import (ProjLine, ProjPoint, meet_planes,
                                plane_through_line)


@pytest.fixture(scope="module")
def config(session):
    return hexagram_config(session.hexform, session.hexlines[0],
                           session.surface, session.lines)


def test_pair_counts(config):
    assert len(config.cremona_pairs) == 60
    assert len(config.shared_pairs) == 45
    assert len(config.planes) == 15
    assert len(set(config.pascal_lines.values())) == 60


def test_index_rule_matches_geometry(config):
    for part, line in config.lines15.items():
        containing = [key for key, plane in config.planes.items()
                      if plane.contains(line.p) and plane.contains(line.q)]
        assert sorted(tuple(sorted(k)) for k in containing) == list(part)


def test_swapped_matching_violates_index_rule(session):
    """Two partitions exchanging their matched lines put a line in a plane
    that does not hold it."""
    matched = dict(session.hexlines[0])
    k1, k2 = list(matched)[:2]
    matched[k1], matched[k2] = matched[k2], matched[k1]
    with pytest.raises(ValueError, match="index rule violates geometric"):
        hexagram_config(session.hexform, matched, session.surface,
                        session.lines)


def test_pascal_lines_off_surface(surface, config):
    for line in config.pascal_lines.values():
        assert not surface.contains_line(line)


def test_pentahedra_structure(config):
    penta = pentahedra(config)
    assert len(penta) == 6
    for key in config.planes:
        assert sum(key in p for p in penta) == 2


def test_single_projection(surface, lines, config):
    pair = config.cremona_pairs[0]
    center = sample_surface_points(surface, 1, seed=11,
                                   avoid_lines=list(lines.values()))[0]
    report = project_hexagram(surface, config, pair, center,
                              default_screen(center))
    assert len(report.hexagon) == 6
    coords = [list(p.coords) for p in report.diagonal_points]
    assert ExactMatrix(coords).rank() == 2
    for p in report.diagonal_points:
        assert report.pascal_projection.contains(p)
    # opposite sides meet in space on the Pascal line itself
    pascal = config.pascal_lines[pair]
    for i in range(3):
        a, b = report.hexagon[i], report.hexagon[i + 3]
        assert lines_meet(a, b)


def test_degenerate_center_rejected(surface, lines, config):
    pair = config.cremona_pairs[0]
    line_on_plane = config.hexagons[pair][0]   # a line in plane pair[0]
    with pytest.raises(DegenerateCenter):
        project_hexagram(surface, config, pair, line_on_plane.p,
                         default_screen(line_on_plane.p))


def test_all_sixty_pairs_three_centers(surface, lines, config):
    reports = verify_all_pairs(surface, config, lines, seed=0)
    assert len(reports) == 180


def _kernel_meet(l1, l2):
    """Oracle meet of two meeting lines: the kernel of the 4x4 matrix of
    their spanning points."""
    m = ExactMatrix([[l1.p.coords[i], l1.q.coords[i],
                      -l2.p.coords[i], -l2.q.coords[i]] for i in range(4)])
    (kern,) = m.kernel_basis()
    return ProjPoint([kern[0] * x + kern[1] * y
                      for x, y in zip(l1.p.coords, l1.q.coords)])


def _project_line(line, center, screen):
    """Oracle projection: the plane of the line and the center, met with
    the screen."""
    return meet_planes(plane_through_line(line, center), screen)


def _assert_matches_oracle(surface, config, pair, center):
    screen = default_screen(center)
    report = project_hexagram(surface, config, pair, center, screen)
    sides = [_project_line(line, center, screen) for line in report.hexagon]
    vertices = [_kernel_meet(sides[i], sides[(i + 1) % 6]) for i in range(6)]
    diag = [_kernel_meet(sides[i], sides[i + 3]) for i in range(3)]
    assert report.vertices == vertices
    assert report.diagonal_points == diag
    assert report.diagonal_line == ProjLine(diag[0], diag[1])
    pascal = _project_line(config.pascal_lines[pair], center, screen)
    assert report.pascal_projection == pascal == report.diagonal_line


def test_projection_matches_kernel_oracle(surface, lines, config):
    for n in (0, 17, 59):
        pair = config.cremona_pairs[n]
        for center in sample_surface_points(surface, 3, seed=n,
                                            avoid_lines=list(lines.values())):
            _assert_matches_oracle(surface, config, pair, center)


def test_projection_matches_kernel_oracle_over_gauss(species_sessions):
    s = species_sessions[3]
    config = hexagram_config(s.hexform, s.hexlines[0], s.surface, s.lines)
    for n in (0, 31):
        pair = config.cremona_pairs[n]
        center = sample_surface_points(s.surface, 1, seed=n,
                                       avoid_lines=list(s.lines.values()))[0]
        _assert_matches_oracle(s.surface, config, pair, center)


def test_hexagons_are_ordered_once_per_pair(config):
    assert set(config.hexagons) == set(config.cremona_pairs)
    for pair, sides in config.hexagons.items():
        tri1, tri2 = ([line for part, line in config.lines15.items()
                       if tuple(sorted(key)) in part] for key in pair)
        assert sides[:3] == tri1 and set(sides[3:]) == set(tri2)
        for i in range(3):
            # opposite sides are the matched cross pairs
            assert [lines_meet(sides[i], b) for b in sides[3:]] == \
                [k == i for k in range(3)]
