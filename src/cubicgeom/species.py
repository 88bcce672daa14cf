"""Reality classification: the conjugation permutation of the 27 lines and
the five real species of nonsingular cubic surfaces, plus the abstract
census of the automorphism group's involutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import is_rational
from . import incidence as inc


class NotStable(ValueError):
    pass


class UnknownProfile(ValueError):
    pass


def _conj_scalar(x):
    return x if is_rational(x) else x.conjugate()


@dataclass
class ConjugationAction:
    """Coordinate conjugation and the permutation it induces on the lines."""

    perm: tuple           # permutation of the 27 label indices
    surface: object

    def is_involution(self):
        return inc.compose(self.perm, self.perm) == tuple(range(27))

    def preserves_incidence(self):
        return inc.permutation_preserves_incidence(self.perm)


def conjugation_action(surface, lines):
    """The permutation of the 27 labeled lines induced by conjugation.

    Requires the six blow-up points to be conjugation-stable (rational
    points fixed, extension points in conjugate pairs); every conjugated
    line must coincide with exactly one labeled line.
    """
    pts = list(surface.source.points)
    conj_pts = [p.map_coords(_conj_scalar) for p in pts]
    if set(conj_pts) != set(pts):
        raise NotStable("blow-up points are not conjugation-closed")
    perm = []
    for lab in inc.ALL_LABELS:
        image = lines[lab].map_coords(_conj_scalar)
        matches = [k for k, lab2 in enumerate(inc.ALL_LABELS)
                   if lines[lab2] == image]
        if len(matches) != 1:
            raise NotStable(f"conjugate of line {lab} is not a labeled line")
        perm.append(matches[0])
    action = ConjugationAction(tuple(perm), surface)
    if not action.is_involution() or not action.preserves_incidence():
        raise NotStable("conjugation does not act as an incidence involution")
    return action


@dataclass
class SpeciesReport:
    species: int
    real_lines: int
    real_tritangents: int
    ds_both_fixed: int    # double-sixes with both sixes setwise fixed
    ds_swapped: int       # double-sixes whose two sixes are exchanged
    profile: tuple        # (real_lines, real_tritangents, both, swapped)


# (real lines, real tritangent planes) -> species number
_SPECIES_BY_COUNTS = {(27, 45): 1, (15, 15): 2, (7, 5): 3, (3, 7): 4,
                      (3, 13): 5}


def classify_species(action):
    """Cremona's species from the conjugation permutation.

    A line is real when its label is fixed; a tritangent plane is real when
    its trio of labels is setwise fixed; the double-six profile counts the
    pairs of sixes fixed individually or exchanged.
    """
    profile = inc.involution_profile(action.perm,
                                     inc.enumerate_double_sixes())
    lines, trios, both, swapped = profile
    species = _SPECIES_BY_COUNTS.get((lines, trios))
    if species is None:
        raise UnknownProfile(f"no species with profile {profile}")
    return SpeciesReport(species, lines, trios, both, swapped, profile)


def real_tritangent_covectors(action, planes):
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


def involution_census():
    """Histogram of (lines, trios, both, swapped) over all involutions.

    The five species profiles all occur; additional profiles are reported
    without any realizability claim.
    """
    return inc.involution_census()


# double-six pattern per species: (both sixes fixed, sixes swapped)
SPECIES_DS_PATTERN = {1: (36, 0), 2: (15, 1), 3: (6, 2), 4: (1, 3),
                      5: (0, 12)}
