import pytest

from cubicgeom import incidence as inc
from cubicgeom.blowup import SixPoints
from cubicgeom.cli import Session
from cubicgeom.field import rat
from cubicgeom.fixtures import fixture_points, species_points

# Nonsingular, with three lines through (1:-4:7:-5): an Eckardt point.
ECKARDT_COORDS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3),
                  (1, 3, -2)]


@pytest.fixture(scope="session")
def session():
    return Session(fixture_points())


@pytest.fixture(scope="session")
def eckardt():
    return Session(SixPoints([[rat(x) for x in p] for p in ECKARDT_COORDS]))


@pytest.fixture(scope="session")
def species_sessions(session):
    """The Session of each species fixture k = 1..4, shared by the whole
    test run; species 1 is the rational fixture."""
    return {1: session, **{k: Session(species_points(k)) for k in (2, 3, 4)}}


@pytest.fixture(scope="session")
def surface(session):
    return session.surface


@pytest.fixture(scope="session")
def lines(session):
    return session.lines


@pytest.fixture(scope="session")
def planes(session):
    return session.planes


@pytest.fixture(scope="session")
def sorted_trios():
    return sorted(inc.TRITANGENT_TRIOS,
                  key=lambda t: sorted(inc.LABEL_INDEX[l] for l in t))


@pytest.fixture(scope="session")
def first_cs(session):
    return session.first_cs


@pytest.fixture(scope="session")
def rep(session):
    return session.rep


@pytest.fixture(scope="session")
def hexforms(session):
    return session.hexforms


@pytest.fixture(scope="session")
def hexform(session):
    return session.hexform


@pytest.fixture(scope="session")
def is_group_element():
    """Whether a permutation of the 27 label indices lies in the group: it
    sifts to the identity through the stabilizer chain."""
    chain = inc.stabilizer_chain()
    return lambda perm: inc._sift(chain, tuple(perm)) == inc.IDENTITY


@pytest.fixture(scope="session")
def is_double_six_labels():
    """Whether a 12-label set splits as a double-six: returns it or None."""
    def find(labels):
        labels = frozenset(labels)
        return next((ds for ds in inc.enumerate_double_sixes()
                     if frozenset().union(*ds) == labels), None)
    return find
