import pytest

from cubicgeom import incidence as inc
from cubicgeom.blowup import build_surface, labeled_lines
from cubicgeom.forms import tritangent_planes
from cubicgeom.species import (conjugation_action, classify_species,
                               involution_census, SPECIES_PROFILES, NotStable,
                               _conj_scalar)


def real_tritangent_covectors(planes):
    """Count the conjugation-fixed tritangent plane covectors.

    Agrees with the setwise-fixed-trio count: a trio is setwise fixed
    exactly when its plane has a conjugation-fixed covector.
    """
    fixed = 0
    for trio, plane in planes.items():
        conj = plane.map_coords(_conj_scalar)
        if conj == plane:
            fixed += 1
    return fixed

EXPECT = {1: (27, 45), 2: (15, 15), 3: (7, 5), 4: (3, 7)}


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def classified(request, species_sessions):
    k = request.param
    s = species_sessions[k]
    perm = conjugation_action(s.surface, s.lines)
    return k, s.surface, s.lines, perm, classify_species(perm)


def test_species_assignment(classified):
    k, _, _, _, (species, profile) = classified
    assert species == k
    assert profile[:2] == EXPECT[k]


def test_double_six_profiles(classified):
    k, _, _, _, (_, profile) = classified
    assert profile[2:] == SPECIES_PROFILES[k][2:]


def test_action_is_group_involution(classified, is_group_element):
    _, _, _, perm, _ = classified
    assert inc.compose(perm, perm) == tuple(range(27))
    assert inc.permutation_preserves_incidence(perm)
    assert is_group_element(perm)
    assert perm in inc.involutions()


def test_covector_count_matches_trio_count(classified):
    _, _, lines, _, (_, profile) = classified
    planes = tritangent_planes(lines)
    assert real_tritangent_covectors(planes) == profile[1]


def test_one_pair_swaps_a5_a6(species_sessions):
    s = species_sessions[2]
    perm = conjugation_action(s.surface, s.lines)
    i5, i6 = inc.LABEL_INDEX[inc.a(5)], inc.LABEL_INDEX[inc.a(6)]
    assert perm[i5] == i6 and perm[i6] == i5


def test_unstable_points_rejected():
    from cubicgeom.fixtures import gauss_tower
    from cubicgeom.blowup import SixPoints
    tower = gauss_tower()
    i, one, zero = tower.gen(), tower.one(), tower.zero()
    pts = SixPoints([[one, zero, zero], [zero, one, zero], [zero, zero, one],
                     [one, one, one], [one, 1 + i, 2 - i],
                     [one, 2 + i * 3, 5 - i]], tower)
    surface = build_surface(pts)
    lines = labeled_lines(surface)
    with pytest.raises(NotStable):
        conjugation_action(surface, lines)


def test_census_contains_all_five_profiles():
    census = involution_census()
    profiles = set(census)
    assert {(27, 45, 36, 0), (15, 15, 15, 1), (7, 5, 6, 2), (3, 7, 1, 3),
            (3, 13, 0, 12)} <= profiles


def test_species_five_has_no_real_double_six():
    # the (3,13) profile fixes no double-six setwise in either sense beyond
    # swaps: no six of pairwise-skew lines is fixed as a six
    census = involution_census()
    assert (3, 13, 0, 12) in census
    target = None
    for g in inc.involutions():
        if inc.compose(g, g) != tuple(range(27)):
            continue
        prof = inc.involution_profile(g, inc.enumerate_double_sixes())
        if prof == (3, 13, 0, 12):
            target = g
            break
    assert target is not None
    for ds in inc.enumerate_double_sixes():
        for six in ds:
            assert inc.act(target, six) != six
