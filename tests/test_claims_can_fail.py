"""Every claim of verify-all can fail: one injected fault per claim key,
each claim evaluated alone by cli.check on a fresh fixture Session.

An injection edits one cached stage of that Session after its planes are
built, as verify-all builds them first; the group and species claims read
no Session, so their injection replaces the library function they read.

The cayley_salmon, hexahedral and webs claims observe counts that their
constructions fix (12 pairs, 10 splits, a 4-dimensional web), so they can
fail only by an exception: the construction raises a ValueError, which check
reports as the detail of the claim's line.  The hexagram claim's pair,
projection and pentahedron counts are fixed the same way (pentahedra builds
all six or raises), but it also counts its distinct Pascal lines, so a
fault in how Pascal lines are compared shows as an observed value.
"""

import dataclasses

import pytest

from cubicgeom import cli, incidence as inc
from cubicgeom.cli import Session
from cubicgeom.fixtures import fixture_points
from cubicgeom.multipoly import MultiPoly
from cubicgeom.species import SPECIES_PROFILES, involution_census

ENTRIES = {key: entry for key, *entry in cli.claims()}


def _swap_lines(s, monkeypatch):
    """The labels a1 and a2 exchange their lines."""
    a1, a2 = inc.a(1), inc.a(2)
    s.lines[a1], s.lines[a2] = s.lines[a2], s.lines[a1]


def _drop_plane(s, monkeypatch):
    del s.planes[next(iter(s.planes))]


def _move_plane(s, monkeypatch):
    """The first row of the first trihedral pair gets the plane of a trio
    that shares no line with the pair."""
    rows = inc.trieder_pair_matrix(inc.enumerate_trieder_pairs()[0])
    nine = set().union(*rows)
    outside = next(t for t in inc.TRITANGENT_TRIOS if not t & nine)
    s.planes[frozenset(rows[0])] = s.planes[outside]


def _scale_c(s, monkeypatch):
    """The first hexahedral form claims sum x_i^3 = 2c*F."""
    s.hexforms[0] = dataclasses.replace(s.hexform, c=2 * s.hexform.c)


def _bend_matrix(s, monkeypatch):
    """x0 is added to M[0][1] of the determinantal form."""
    s.rep.matrix[0][1] = s.rep.matrix[0][1] + MultiPoly.variable(0, 4)


def _repeat_node(s, monkeypatch):
    """Each plane's group of 12 nodes repeats its first node."""
    for group in s.grouping[1].values():
        group[-1] = group[0]


def _merge_meets(s, monkeypatch):
    """Two of the 135 line meets become one point, as at an Eckardt point."""
    points = s.grouping[0]
    first, second = list(points)[:2]
    points[second] = points[first]


def _stale_pascal_ints(s, monkeypatch):
    """The second Pascal line of the hexagram configuration keeps the first
    one's integral Plucker vector, while its spanning points, which the
    projections read, stay its own."""
    build = cli.hexagram_config

    def config(*args):
        built = build(*args)
        first, second = list(built.pascal_lines.values())[:2]
        second.ints = first.ints
        return built

    monkeypatch.setattr(cli, "hexagram_config", config)


def _halve_group(s, monkeypatch):
    monkeypatch.setattr(inc, "group_order", lambda: 51840 // 2)


def _lose_species_5(s, monkeypatch):
    """The census loses the profile of species 5."""
    census = {p: n for p, n in involution_census().items()
              if p != SPECIES_PROFILES[5]}
    monkeypatch.setattr(cli, "involution_census", lambda: census)


# key -> (injection, the error class it raises, or None for a FAIL that
# shows the observed value)
INJECTIONS = {
    "lines": (_swap_lines, None),
    "counts": (_drop_plane, None),
    "cayley_salmon": (_move_plane, "NoDecompositionError"),
    "hexahedral": (_scale_c, "NoDecompositionError"),
    "determinantal": (_bend_matrix, None),
    "cubo_cubic": (_bend_matrix, None),
    "webs": (_repeat_node, "NodeVerificationFailedError"),
    "census": (_move_plane, "NoSolutionError"),
    "grouping": (_merge_meets, None),
    "hexagram": (_stale_pascal_ints, None),
    "group": (_halve_group, None),
    "species": (_lose_species_5, None),
}


def test_every_claim_has_an_injection():
    assert list(INJECTIONS) == list(ENTRIES)


@pytest.mark.parametrize("key", list(INJECTIONS))
def test_claim_can_fail(key, monkeypatch, capsys):
    inject, error = INJECTIONS[key]
    s = Session(fixture_points())
    s.planes
    inject(s, monkeypatch)
    claim, observe, expected = ENTRIES[key]
    passed, detail = cli.check(s, claim, observe, expected)
    err = capsys.readouterr().err
    assert not passed
    if error:
        assert detail.startswith(f" ({error}: ") and err == ""
    else:
        head = f"FAIL: {claim}: observed "
        assert detail == "" and err.startswith(head)
        observed, _, shown = err[len(head):].rstrip("\n").rpartition(
            ", expected ")
        assert shown == str(expected) and observed != shown
