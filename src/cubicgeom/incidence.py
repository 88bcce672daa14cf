"""Combinatorics of the 27-line incidence structure.

Lines are labeled a_1..a_6, b_1..b_6, c_ij (i < j), encoded as tuples
('a', i), ('b', i), ('c', i, j).  Their model is the Picard lattice
Pic = I^{1,6} (basis H, E_1..E_6, form diag(1, -1, ..., -1); Manin, *Cubic
Forms*, ch. IV), and CLASS holds each line's class.  The lattice gives the
meet rule (classes pairing to 1), the 36 double-sixes (the lines pairing to
1 and to -1 with a root) and the group generators (reflections in 7 roots).
Tritangent trios, trihedral pairs, triads and enneahedra are enumerated from
the trios; the automorphism group of the incidence relation (the E6 Weyl
group) is computed by explicit closure over the generators.
"""

from __future__ import annotations

import itertools
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
    trios = []
    for i in range(1, 7):
        for j in range(1, 7):
            if i != j:
                trios.append(frozenset({a(i), b(j), c(i, j)}))
    for part in partitions_into_pairs(range(1, 7)):
        trios.append(frozenset(c(i, j) for i, j in part))
    return trios


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


@lru_cache(maxsize=1)
def enumerate_double_sixes():
    """The 36 double-sixes, each a frozenset of two skew sixes.

    Each positive root r (E_i - E_j, H - E_i - E_j - E_k or 2H - sum E_i)
    gives one: the six lines with E.r = 1 against the six with E.r = -1.
    """
    roots = [_vector(plus=(i,), minus=(j,))
             for i, j in itertools.combinations(range(1, 7), 2)]
    roots += [_vector(1, minus=t) for t in itertools.combinations(range(1, 7), 3)]
    roots.append(_vector(2, minus=range(1, 7)))
    out = []
    for r in roots:
        side = {lab: pairing(CLASS[lab], r) for lab in ALL_LABELS}
        out.append(frozenset(frozenset(l for l in ALL_LABELS if side[l] == e)
                             for e in (1, -1)))
    return tuple(sorted(out, key=_ds_sort_key))


def _ds_sort_key(ds):
    return sorted(map(_trio_key, ds))


def double_six_family(ds):
    """Family per the classical shapes: 1 (a/b), 2 (15 of them), 3 (20 of them)."""
    kinds = sorted("".join(sorted(l[0] for l in six)) for six in ds)
    if kinds == ["aaaaaa", "bbbbbb"]:
        return 1
    if kinds == ["abcccc", "abcccc"]:
        return 2
    if kinds == ["aaaccc", "bbbccc"]:
        return 3
    raise ValueError(f"unrecognized double-six shape {kinds}")


def is_double_six_labels(labels):
    """Whether a 12-label set splits as a double-six; returns it or None."""
    labels = frozenset(labels)
    for ds in enumerate_double_sixes():
        if frozenset().union(*ds) == labels:
            return ds
    return None


# -- trihedral pairs -------------------------------------------------------

def _disjoint_trio_triples():
    trios = TRITANGENT_TRIOS
    for i, t1 in enumerate(trios):
        for j in range(i + 1, len(trios)):
            t2 = trios[j]
            if t1 & t2:
                continue
            for k in range(j + 1, len(trios)):
                t3 = trios[k]
                if (t1 & t3) or (t2 & t3):
                    continue
                yield frozenset({t1, t2, t3})


@lru_cache(maxsize=1)
def enumerate_trieder_pairs():
    """The 120 trihedral pairs, canonically as {rows, cols} (sets of 3 trios)."""
    by_lines = {}
    for triple in _disjoint_trio_triples():
        lines = frozenset().union(*triple)
        by_lines.setdefault(lines, []).append(triple)
    pairs = set()
    for lines, triples in by_lines.items():
        for rows, cols in itertools.combinations(triples, 2):
            if _transversal(rows, cols):
                pairs.add(frozenset({rows, cols}))
    return tuple(sorted(pairs, key=_pair_sort_key))


def _transversal(rows, cols):
    return all(len(r & s) == 1 for r in rows for s in cols)


def _pair_sort_key(pair):
    return sorted(sorted(map(_trio_key, side)) for side in pair)


def pair_lines(pair):
    side = next(iter(pair))
    return frozenset().union(*side)


def trieder_pair_matrix(pair):
    """A concrete 3x3 matrix of labels (rows x cols), deterministic."""
    rows, cols = sorted(pair, key=lambda side: sorted(map(_trio_key, side)))
    rows = sorted(rows, key=_trio_key)
    cols = sorted(cols, key=_trio_key)
    return [[next(iter(r & s)) for s in cols] for r in rows]


@lru_cache(maxsize=1)
def enumerate_triads():
    """The 40 partitions of the 27 lines into three trihedral pairs."""
    pairs = enumerate_trieder_pairs()
    lines_of = {p: pair_lines(p) for p in pairs}
    triads = set()
    for i, p1 in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            p2 = pairs[j]
            if lines_of[p1] & lines_of[p2]:
                continue
            rest = frozenset(ALL_LABELS) - lines_of[p1] - lines_of[p2]
            for k in range(j + 1, len(pairs)):
                p3 = pairs[k]
                if lines_of[p3] == rest:
                    triads.add(frozenset({p1, p2, p3}))
    return tuple(sorted(triads, key=lambda tr: sorted(map(_pair_sort_key, tr))))


# -- enneahedra ------------------------------------------------------------

def enumerate_enneahedra():
    """All exact covers of the 27 lines by 9 tritangent trios."""
    trios = TRITANGENT_TRIOS
    containing = {lab: [t for t in trios if lab in t] for lab in ALL_LABELS}
    solutions = []

    def search(uncovered, chosen):
        if not uncovered:
            solutions.append(frozenset(chosen))
            return
        # branch on the line with the fewest usable trios (all must stay inside
        # the uncovered set); every solution uses exactly one of its trios
        def usable(lab):
            return [t for t in containing[lab] if t <= uncovered]

        best = min(uncovered, key=lambda lab: (len(usable(lab)), LABEL_INDEX[lab]))
        for t in usable(best):
            search(uncovered - t, chosen + [t])

    search(frozenset(ALL_LABELS), [])
    return solutions


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
    for x, y in itertools.combinations(range(27), 2):
        if meets_rule(ALL_LABELS[x], ALL_LABELS[y]) != \
                meets_rule(ALL_LABELS[perm[x]], ALL_LABELS[perm[y]]):
            return False
    return True


def _orbit(start, act):
    """The orbit of `start` under the generated group, breadth first;
    act(gen, x) -> y."""
    gens = group_generators()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def group_closure():
    """The full element list (order 51840): the orbit of the identity."""
    return sorted(_orbit(tuple(range(27)), compose))


def act_on_label_set(perm, labels):
    return frozenset(ALL_LABELS[perm[LABEL_INDEX[l]]] for l in labels)


def act_on_trio_set(perm, trios):
    return frozenset(act_on_label_set(perm, t) for t in trios)


def act_on_double_six(perm, ds):
    return frozenset(act_on_label_set(perm, six) for six in ds)


def act_on_pair(perm, pair):
    return frozenset(act_on_trio_set(perm, side) for side in pair)


def act_on_triad(perm, triad):
    return frozenset(act_on_pair(perm, p) for p in triad)


def orbit_sizes():
    """Orbit sizes on lines, double-sixes, tritangent trios and triads."""
    line0 = a(1)
    ds0 = frozenset({frozenset(a(i) for i in range(1, 7)),
                     frozenset(b(i) for i in range(1, 7))})
    trio0 = TRITANGENT_TRIOS[0]
    triad0 = enumerate_triads()[0]
    return {
        "lines": len(_orbit(line0, lambda g, x: ALL_LABELS[g[LABEL_INDEX[x]]])),
        "double_sixes": len(_orbit(ds0, act_on_double_six)),
        "tritangents": len(_orbit(trio0, act_on_label_set)),
        "triads": len(_orbit(triad0, act_on_triad)),
    }


# -- involution census -----------------------------------------------------

def involution_profile(perm, double_sixes):
    """(fixed lines, setwise-fixed trios, both-sixes-fixed DS, swapped-six DS)."""
    fixed_lines = sum(1 for i in range(27) if perm[i] == i)
    fixed_trios = sum(1 for t in TRITANGENT_TRIOS
                      if act_on_label_set(perm, t) == t)
    both = swapped = 0
    for ds in double_sixes:
        s1, s2 = tuple(ds)
        i1, i2 = act_on_label_set(perm, s1), act_on_label_set(perm, s2)
        if i1 == s1 and i2 == s2:
            both += 1
        elif i1 == s2 and i2 == s1:
            swapped += 1
    return (fixed_lines, fixed_trios, both, swapped)


def involution_census(group=None):
    """Histogram of involution profiles over the full group (identity included)."""
    elements = group if group is not None else group_closure()
    double_sixes = enumerate_double_sixes()
    table = {}
    for g in elements:
        if compose(g, g) != tuple(range(27)):
            continue
        prof = involution_profile(g, double_sixes)
        table[prof] = table.get(prof, 0) + 1
    return table
