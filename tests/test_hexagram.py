import pytest

from cubicgeom import incidence as inc
from cubicgeom.blowup import sample_surface_points, lines_meet
from cubicgeom.hexagram import (hexagram_config, pentahedra, project_hexagram,
                                default_screen, verify_all_pairs,
                                DegenerateCenter)
from cubicgeom.linalg import ExactMatrix


@pytest.fixture(scope="module")
def config(surface, lines, hexform):
    return hexagram_config(hexform, surface, lines)


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
    line_on_plane = config.lines15[config.lines_in_plane(pair[0])[0]]
    with pytest.raises(DegenerateCenter):
        project_hexagram(surface, config, pair, line_on_plane.p,
                         default_screen(line_on_plane.p))


def test_all_sixty_pairs_three_centers(surface, lines, config):
    reports = verify_all_pairs(surface, config, lines, seed=0)
    assert len(reports) == 180
