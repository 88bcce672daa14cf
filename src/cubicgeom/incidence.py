"""Combinatorics of the 27-line incidence structure.

Lines are labeled a_1..a_6, b_1..b_6, c_ij (i < j), encoded as tuples
('a', i), ('b', i), ('c', i, j).  Their model is the Picard lattice
Pic = I^{1,6} (basis H, E_1..E_6, form diag(1, -1, ..., -1); Manin, *Cubic
Forms*, ch. IV), and CLASS holds each line's class.  The lattice gives the
meet rule (classes pairing to 1), the 36 double-sixes (the lines pairing to
1 and to -1 with a root) and the group generators (reflections in 7 roots).
Tritangent trios, trihedral pairs, triads and enneahedra are enumerated from
the trios.  The automorphism group of the incidence relation (the E6 Weyl
group, order 51840) is never listed: its order and membership come from a
Schreier-Sims stabilizer chain over the generators, and its 892 involutions
are the products of reflections in mutually orthogonal roots.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache


def a(i):
    return ("a", i)


def b(i):
    return ("b", i)


def c(i, j):
    if i == j:
        raise ValueError("c needs two distinct indices")
    return ("c", min(i, j), max(i, j))


ALL_LABELS = ([a(i) for i in range(1, 7)] + [b(i) for i in range(1, 7)]
              + [c(i, j) for i, j in itertools.combinations(range(1, 7), 2)])
LABEL_INDEX = {lab: k for k, lab in enumerate(ALL_LABELS)}


def label_str(lab):
    if lab[0] == "c":
        return f"c{lab[1]}{lab[2]}"
    return f"{lab[0]}{lab[1]}"


def label_order(labels):
    """The labels sorted in ALL_LABELS order."""
    return sorted(labels, key=LABEL_INDEX.__getitem__)


def _trio_key(labels):
    return sorted(LABEL_INDEX[l] for l in labels)


# -- the Picard lattice ----------------------------------------------------

def _vector(h=0, plus=(), minus=()):
    """h H + sum_{i in plus} E_i - sum_{i in minus} E_i."""
    return (h,) + tuple((k in plus) - (k in minus) for k in range(1, 7))


# a_i = E_i, b_i = 2H - sum_{j != i} E_j, c_ij = H - E_i - E_j
CLASS = {**{a(i): _vector(plus=(i,)) for i in range(1, 7)},
         **{b(i): _vector(2, minus=set(range(1, 7)) - {i})
            for i in range(1, 7)},
         **{c(i, j): _vector(1, minus=(i, j))
            for i, j in itertools.combinations(range(1, 7), 2)}}
_INDEX_OF_CLASS = {CLASS[lab]: k for k, lab in enumerate(ALL_LABELS)}


def pairing(u, v):
    """The intersection form diag(1, -1, ..., -1) on Pic = I^{1,6}."""
    return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))


def meets_rule(l1, l2):
    """Whether two distinct labeled lines meet on the surface."""
    if l1 == l2:
        raise ValueError("labels coincide")
    return pairing(CLASS[l1], CLASS[l2]) == 1


def reflection(r):
    """The reflection E -> E + (E.r) r in a root r (r.r = -2), as a
    permutation of the 27 label indices."""
    out = []
    for v in map(CLASS.get, ALL_LABELS):
        k = pairing(v, r)
        out.append(_INDEX_OF_CLASS[tuple(x + k * y for x, y in zip(v, r))])
    return tuple(out)


def enumerate_tritangents():
    """The 45 coplanar trios: {a_i, b_j, c_ij} (i != j) and c-trios over partitions."""
    return ([frozenset({a(i), b(j), c(i, j)})
             for i in range(1, 7) for j in range(1, 7) if i != j]
            + [frozenset(c(i, j) for i, j in part)
               for part in partitions_into_pairs(range(1, 7))])


def partitions_into_pairs(items):
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        pair = (first, items[k])
        rest = items[1:k] + items[k + 1:]
        for sub in partitions_into_pairs(rest):
            yield [pair] + sub


TRITANGENT_TRIOS = enumerate_tritangents()
TRIO_INDEX = {t: k for k, t in enumerate(TRITANGENT_TRIOS)}


def trios_through(trio):
    """For each line of the trio, in label order, the line and the 4 other
    tritangent trios through it, in TRITANGENT_TRIOS order."""
    return [(lab, [t for t in TRITANGENT_TRIOS if lab in t and t != trio])
            for lab in label_order(trio)]


# The 36 positive roots (r.r = -2): E_i - E_j, H - E_i - E_j - E_k, 2H - sum E_i
POSITIVE_ROOTS = (
    tuple(_vector(plus=(i,), minus=(j,))
          for i, j in itertools.combinations(range(1, 7), 2))
    + tuple(_vector(1, minus=t) for t in itertools.combinations(range(1, 7), 3))
    + (_vector(2, minus=range(1, 7)),))


@lru_cache(maxsize=1)
def enumerate_double_sixes():
    """The 36 double-sixes, each a frozenset of two skew sixes: each positive
    root r gives the six lines with E.r = 1 against the six with E.r = -1."""
    return tuple(sorted((frozenset(
        frozenset(l for l in ALL_LABELS if pairing(CLASS[l], r) == e)
        for e in (1, -1)) for r in POSITIVE_ROOTS), key=_ds_sort_key))


def _ds_sort_key(ds):
    return sorted(map(_trio_key, ds))


def double_six_family(ds):
    """Family by the H-coefficient h of the double-six's root, which is x - y
    for skew lines x, y of opposite sixes: |h| = 2 gives family 1 (the a/b
    one), h = 0 family 2 (15 of them) and |h| = 1 family 3 (20 of them)."""
    six, other = ds
    x = min(six)
    y = next(y for y in other if pairing(CLASS[x], CLASS[y]) == 0)
    return {2: 1, 0: 2, 1: 3}[abs(CLASS[x][0] - CLASS[y][0])]


# -- trihedral pairs -------------------------------------------------------

@lru_cache(maxsize=1)
def enumerate_trieder_pairs():
    """The 120 trihedral pairs, canonically as {rows, cols} (sets of 3 trios).
    Two trios without a common line are two rows: each line of one meets one
    of the other, each meeting pair spans a column, and the third lines of
    the columns make the third row."""
    trio_of = {frozenset(p): t for t in TRITANGENT_TRIOS
               for p in itertools.combinations(t, 2)}
    pairs = set()
    for t1, t2 in itertools.combinations(TRITANGENT_TRIOS, 2):
        if not t1 & t2:
            cols = frozenset(trio_of[frozenset((x, y))] for x in t1 for y in t2
                             if meets_rule(x, y))
            rows = frozenset({t1, t2, frozenset().union(*cols) - t1 - t2})
            pairs.add(frozenset({rows, cols}))
    return tuple(sorted(pairs, key=_pair_sort_key))


def _pair_sort_key(pair):
    return sorted(sorted(map(_trio_key, side)) for side in pair)


def pair_lines(pair):
    return frozenset().union(*next(iter(pair)))


def trieder_pair_matrix(pair):
    """A concrete 3x3 matrix of labels (rows x cols), deterministic."""
    rows, cols = (sorted(side, key=_trio_key) for side in
                  sorted(pair, key=lambda side: sorted(map(_trio_key, side))))
    return [[next(iter(r & s)) for s in cols] for r in rows]


@lru_cache(maxsize=1)
def enumerate_triads():
    """The 40 partitions of the 27 lines into three trihedral pairs."""
    by_lines = {pair_lines(p): p for p in enumerate_trieder_pairs()}
    triads = set()
    for u, v in itertools.combinations(by_lines, 2):
        if u.isdisjoint(v):
            rest = frozenset(ALL_LABELS) - u - v
            if rest in by_lines:
                triads.add(frozenset({by_lines[u], by_lines[v], by_lines[rest]}))
    return tuple(sorted(triads, key=lambda tr: sorted(map(_pair_sort_key, tr))))


# -- enneahedra ------------------------------------------------------------

def enumerate_enneahedra():
    """All exact covers of the 27 lines by 9 tritangent trios."""
    def covers(uncovered):
        if not uncovered:
            yield []
            return
        # every cover holds exactly one trio through the first uncovered line
        first = min(uncovered, key=LABEL_INDEX.__getitem__)
        for t in TRITANGENT_TRIOS:
            if first in t and t <= uncovered:
                for rest in covers(uncovered - t):
                    yield [t] + rest

    return [frozenset(cover) for cover in covers(frozenset(ALL_LABELS))]


# -- automorphism group ----------------------------------------------------

@lru_cache(maxsize=1)
def group_generators():
    """Reflections in E_k - E_{k+1} (k = 1..5; they swap the indices k and
    k+1), in 2H - sum E_i (a_i <-> b_i) and in H - E_1 - E_2 - E_3 (a_i <->
    c_jk for {i,j,k} = {1,2,3}, b_m <-> c_pq for {m,p,q} = {4,5,6}).  The
    last one is needed: the others only reach the double-six stabilizer."""
    roots = [_vector(plus=(k,), minus=(k + 1,)) for k in range(1, 6)]
    roots += [_vector(2, minus=range(1, 7)), _vector(1, minus=(1, 2, 3))]
    return [reflection(r) for r in roots]


def compose(p, q):
    """(p o q)(x) = p[q[x]]."""
    return tuple(p[i] for i in q)


def permutation_preserves_incidence(perm):
    return all(meets_rule(ALL_LABELS[x], ALL_LABELS[y])
               == meets_rule(ALL_LABELS[perm[x]], ALL_LABELS[perm[y]])
               for x, y in itertools.combinations(range(27), 2))


def _orbit(start):
    """The orbit of `start` (anything act takes) under the generated group."""
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for g in group_generators():
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


IDENTITY = tuple(range(27))


def _invert(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _sift(chain, g, level=0):
    """g stripped through chain[level:]: the identity exactly for members."""
    for point, _, transversal in chain[level:]:
        u = transversal.get(g[point])
        if u is None:
            break
        g = compose(_invert(u), g)
    return g


def _extend(chain, level, g):
    """Add g, which fixes the first `level` base points, to the strong
    generators of chain[level] and close its orbit; a Schreier generator
    that does not sift through the levels below joins the next level."""
    if level == len(chain):
        point = next(x for x in range(27) if g[x] != x)
        chain.append((point, [], {point: IDENTITY}))
    _, gens, transversal = chain[level]
    gens.append(g)
    todo = [(x, g) for x in transversal]
    while todo:
        x, s = todo.pop()
        y, u = s[x], compose(s, transversal[x])
        if y not in transversal:
            transversal[y] = u
            todo.extend((y, t) for t in gens)
            continue
        residue = _sift(chain, compose(_invert(transversal[y]), u), level + 1)
        if residue != IDENTITY:
            _extend(chain, level + 1, residue)


@lru_cache(maxsize=1)
def stabilizer_chain():
    """Schreier-Sims chain of the generated group (Sims 1970; Seress,
    *Permutation Group Algorithms*, 2003): per level, the base point, the
    strong generators (fixing the base points above) and the transversal,
    from each orbit point to an element taking the base point there."""
    chain = []
    for g in group_generators():
        if _sift(chain, g) != IDENTITY:
            _extend(chain, 0, g)
    return tuple(chain)


def group_order():
    """The order of the generated group: the product of the orbit lengths."""
    return math.prod(len(transversal) for _, _, transversal in stabilizer_chain())


def act(perm, x):
    """The image of a label, or of frozensets of labels nested to any depth."""
    if isinstance(x, frozenset):
        return frozenset(act(perm, y) for y in x)
    return ALL_LABELS[perm[LABEL_INDEX[x]]]


def orbit_sizes():
    """Orbit sizes on lines, double-sixes, tritangent trios and triads."""
    return {name: len(_orbit(x)) for name, x in (
        ("lines", a(1)), ("double_sixes", enumerate_double_sixes()[0]),
        ("tritangents", TRITANGENT_TRIOS[0]), ("triads", enumerate_triads()[0]))}


# -- involution census -----------------------------------------------------

def involution_profile(perm, double_sixes):
    """(fixed lines, setwise-fixed trios, both-sixes-fixed DS, swapped-six DS)."""
    image_of = dict(zip(ALL_LABELS, map(ALL_LABELS.__getitem__, perm)))

    def image(labels):
        return frozenset(map(image_of.__getitem__, labels))

    both = swapped = 0
    for s1, s2 in double_sixes:
        first = image(s1)
        if first == s1:
            both += image(s2) == s2
        elif first == s2:
            swapped += image(s2) == s1
    return (sum(perm[i] == i for i in range(27)),
            sum(image(t) == t for t in TRITANGENT_TRIOS), both, swapped)


@lru_cache(maxsize=1)
def involutions():
    """The 892 involutions of the group, identity included: the products of
    reflections in sets of mutually orthogonal roots (at most 4 of them;
    Manin, *Cubic Forms*, ch. IV), each product listed once."""
    reflections, found = {r: reflection(r) for r in POSITIVE_ROOTS}, set()

    def grow(perm, roots):
        # roots: those later in the list and orthogonal to every root so far
        found.add(perm)
        for k, r in enumerate(roots):
            grow(compose(reflections[r], perm),
                 [s for s in roots[k + 1:] if pairing(r, s) == 0])

    grow(IDENTITY, POSITIVE_ROOTS)
    return tuple(sorted(found))


def involution_census():
    """Histogram of involution profiles over the group (identity included)."""
    double_sixes = enumerate_double_sixes()
    return dict(Counter(involution_profile(g, double_sixes) for g in involutions()))
