"""Reality classification: the conjugation permutation of the 27 lines and
the five real species of nonsingular cubic surfaces, plus the abstract
census of the automorphism group's involutions.
"""

from __future__ import annotations

from .field import is_rational
from . import incidence as inc


class NotStable(ValueError):
    pass


class UnknownProfile(ValueError):
    pass


# species -> (real lines, real tritangent planes, double-sixes with both
# sixes setwise fixed, double-sixes whose two sixes are exchanged)
SPECIES_PROFILES = {1: (27, 45, 36, 0), 2: (15, 15, 15, 1), 3: (7, 5, 6, 2),
                    4: (3, 7, 1, 3), 5: (3, 13, 0, 12)}
# (real lines, real tritangent planes) -> species
_SPECIES_BY_COUNTS = {p[:2]: k for k, p in SPECIES_PROFILES.items()}


def _conj_scalar(x):
    return x if is_rational(x) else x.conjugate()


def conjugation_action(surface, lines):
    """The permutation of the 27 label indices induced by conjugation.

    Requires the six blow-up points to be conjugation-stable (rational
    points fixed, extension points in conjugate pairs); every conjugated
    line must coincide with exactly one labeled line, and the permutation
    must be an involution preserving incidence.
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
    perm = tuple(perm)
    if (inc.compose(perm, perm) != tuple(range(27))
            or not inc.permutation_preserves_incidence(perm)):
        raise NotStable("conjugation does not act as an incidence involution")
    return perm


def classify_species(perm):
    """Cremona's species from the conjugation permutation, with its profile
    (real lines, real tritangents, double-sixes fixed, swapped).

    A line is real when its label is fixed; a tritangent plane is real when
    its trio of labels is setwise fixed; the double-six profile counts the
    pairs of sixes fixed individually or exchanged.
    """
    profile = inc.involution_profile(perm, inc.enumerate_double_sixes())
    species = _SPECIES_BY_COUNTS.get(profile[:2])
    if species is None:
        raise UnknownProfile(f"no species with profile {profile}")
    return species, profile


def involution_census():
    """Histogram of (lines, trios, both, swapped) over all involutions.

    The five species profiles all occur; additional profiles are reported
    without any realizability claim.
    """
    return inc.involution_census()
