import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from cubicgeom import incidence as inc


# ---------------------------------------------------------------------------
# Independent oracle: the 27 classes in the rank-7 lattice with form
# diag(1, -1, ..., -1).  Two distinct lines meet exactly when their classes
# pair to 1.
# ---------------------------------------------------------------------------

def _lattice_class(lab):
    v = [0] * 7
    if lab[0] == "a":
        v[lab[1]] = 1
    elif lab[0] == "b":
        v[0] = 2
        for j in range(1, 7):
            if j != lab[1]:
                v[j] = -1
    else:
        v[0] = 1
        v[lab[1]] = -1
        v[lab[2]] = -1
    return v


def _pairing(u, v):
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def lattice_meets(l1, l2):
    return _pairing(_lattice_class(l1), _lattice_class(l2)) == 1


def test_lattice_classes_are_minus_one_curves():
    for lab in inc.ALL_LABELS:
        v = _lattice_class(lab)
        assert _pairing(v, v) == -1
        # degree against the hyperplane class 3L - sum E_i is 1 for a line
        h = [3, -1, -1, -1, -1, -1, -1]
        assert _pairing(h, v) == 1


def test_meet_rule_matches_lattice_oracle():
    for l1, l2 in itertools.combinations(inc.ALL_LABELS, 2):
        assert inc.meets_rule(l1, l2) == lattice_meets(l1, l2)


def test_classes_match_lattice_oracle():
    for lab in inc.ALL_LABELS:
        assert inc.CLASS[lab] == tuple(_lattice_class(lab))
    for l1, l2 in itertools.product(inc.ALL_LABELS, repeat=2):
        u, v = _lattice_class(l1), _lattice_class(l2)
        assert inc.pairing(u, v) == _pairing(u, v)


def test_meet_rule_rejects_equal_labels():
    with pytest.raises(ValueError):
        inc.meets_rule(inc.a(1), inc.a(1))


def test_each_line_meets_ten_others():
    for l1 in inc.ALL_LABELS:
        assert sum(inc.meets_rule(l1, l2)
                   for l2 in inc.ALL_LABELS if l2 != l1) == 10


# ---------------------------------------------------------------------------
# Configuration counts, by brute force from the meet rule alone.
# ---------------------------------------------------------------------------

def test_tritangent_trios():
    assert len(inc.TRITANGENT_TRIOS) == 45
    for trio in inc.TRITANGENT_TRIOS:
        for l1, l2 in itertools.combinations(trio, 2):
            assert inc.meets_rule(l1, l2)


def _family_by_label_shapes(ds):
    """The classical shapes: a/b (1), {a b c c c c} twice (2), {a a a c c c}
    against {b b b c c c} (3)."""
    kinds = sorted("".join(sorted(l[0] for l in six)) for six in ds)
    return {("aaaaaa", "bbbbbb"): 1, ("abcccc", "abcccc"): 2,
            ("aaaccc", "bbbccc"): 3}[tuple(kinds)]


def test_double_sixes():
    ds = inc.enumerate_double_sixes()
    assert len(ds) == 36
    split = Counter(inc.double_six_family(d) for d in ds)
    assert split == Counter({1: 1, 2: 15, 3: 20})
    for d in ds:
        s1, s2 = tuple(d)
        for six in (s1, s2):
            assert all(not inc.meets_rule(x, y)
                       for x, y in itertools.combinations(sorted(six), 2))


def _double_sixes_from_skew_pairs():
    """Each skew pair x, y gives the root [x] - [y]; its double-six is the six
    lines pairing to 1 with it against the six pairing to -1."""
    out = set()
    for x, y in itertools.combinations(inc.ALL_LABELS, 2):
        if lattice_meets(x, y):
            continue
        r = [p - q for p, q in zip(_lattice_class(x), _lattice_class(y))]
        side = {lab: _pairing(_lattice_class(lab), r) for lab in inc.ALL_LABELS}
        out.add(frozenset(frozenset(l for l in inc.ALL_LABELS if side[l] == e)
                          for e in (1, -1)))
    return out


def test_double_six_family_matches_label_shapes():
    for d in inc.enumerate_double_sixes():
        assert inc.double_six_family(d) == _family_by_label_shapes(d)


def test_double_sixes_match_skew_pair_oracle():
    ds = inc.enumerate_double_sixes()
    assert len(set(ds)) == 36
    assert set(ds) == _double_sixes_from_skew_pairs()
    assert list(ds) == sorted(ds, key=lambda d: sorted(
        sorted(inc.LABEL_INDEX[l] for l in six) for six in d))


def test_trios_through_each_line():
    for trio in inc.TRITANGENT_TRIOS:
        walk = inc.trios_through(trio)
        assert [lab for lab, _ in walk] == sorted(trio, key=inc.LABEL_INDEX.get)
        others = [t for _, ts in walk for t in ts]
        assert [len(ts) for _, ts in walk] == [4, 4, 4]
        assert len(set(others)) == 12 and trio not in others
        for lab, ts in walk:
            assert all(lab in t for t in ts)


def _trieder_pairs_by_search():
    """Every {rows, cols} of two triples of disjoint trios on the same 9
    lines, each row meeting each column in one line."""
    trios = inc.TRITANGENT_TRIOS
    by_lines = {}
    for triple in itertools.combinations(trios, 3):
        if all(not s & t for s, t in itertools.combinations(triple, 2)):
            by_lines.setdefault(frozenset().union(*triple), []).append(
                frozenset(triple))
    return {frozenset({rows, cols})
            for triples in by_lines.values()
            for rows, cols in itertools.combinations(triples, 2)
            if all(len(r & s) == 1 for r in rows for s in cols)}


def test_trieder_pairs_and_triads():
    pairs = inc.enumerate_trieder_pairs()
    assert len(pairs) == 120
    assert set(pairs) == _trieder_pairs_by_search()
    assert len(inc.enumerate_triads()) == 40


def test_enneahedra():
    enn = inc.enumerate_enneahedra()
    assert len(enn) == 200
    for e in enn:
        labels = set().union(*e)
        assert len(labels) == 27


def test_group_order_and_orbits():
    assert inc.group_order() == 51840
    assert inc.orbit_sizes() == {"lines": 27, "double_sixes": 36,
                                 "tritangents": 45, "triads": 40}


def test_generators_preserve_incidence():
    for g in inc.group_generators():
        assert inc.permutation_preserves_incidence(g)


def _swap_perm(pairs):
    perm = list(range(27))
    for x, y in pairs:
        i, j = inc.LABEL_INDEX[x], inc.LABEL_INDEX[y]
        perm[i], perm[j] = j, i
    return tuple(perm)


def _index_swap(k):
    """Indices k and k+1 exchanged: a_k <-> a_k+1, b_k <-> b_k+1 and
    c_kj <-> c_k+1,j for the 4 other j."""
    return ([(inc.a(k), inc.a(k + 1)), (inc.b(k), inc.b(k + 1))]
            + [(inc.c(k, j), inc.c(k + 1, j))
               for j in range(1, 7) if j not in (k, k + 1)])


def test_generators_are_the_label_rule_permutations():
    a, b, c = inc.a, inc.b, inc.c
    expected = [_index_swap(k) for k in range(1, 6)]
    expected.append([(a(i), b(i)) for i in range(1, 7)])
    expected.append([(a(1), c(2, 3)), (a(2), c(1, 3)), (a(3), c(1, 2)),
                     (b(4), c(5, 6)), (b(5), c(4, 6)), (b(6), c(4, 5))])
    assert _index_swap(1)[2:] == [(c(1, 3), c(2, 3)), (c(1, 4), c(2, 4)),
                                  (c(1, 5), c(2, 5)), (c(1, 6), c(2, 6))]
    assert inc.group_generators() == [_swap_perm(p) for p in expected]


def test_root_reflections_swap_the_sixes_of_their_double_six(
        is_double_six_labels):
    identity = tuple(range(27))
    double_sixes = set(inc.enumerate_double_sixes())
    for x, y in itertools.combinations(inc.ALL_LABELS, 2):
        if lattice_meets(x, y):
            continue
        root = [p - q for p, q in zip(_lattice_class(x), _lattice_class(y))]
        g = inc.reflection(root)
        assert inc.compose(g, g) == identity
        assert inc.permutation_preserves_incidence(g)
        assert inc.ALL_LABELS[g[inc.LABEL_INDEX[x]]] == y
        moved = {lab for k, lab in enumerate(inc.ALL_LABELS) if g[k] != k}
        ds = is_double_six_labels(moved)
        assert ds in double_sixes
        s1, s2 = tuple(ds)
        assert inc.act(g, s1) == s2
        # each line of a six is skew to exactly one line of the other
        assert all(sum(not lattice_meets(u, v) for v in s2) == 1 for u in s1)


def test_involution_census_profiles():
    census = inc.involution_census()
    assert {(27, 45, 36, 0), (15, 15, 15, 1), (7, 5, 6, 2),
            (3, 7, 1, 3), (3, 13, 0, 12)} <= set(census)


def test_stabilizer_chain_order_and_membership(is_group_element):
    chain = inc.stabilizer_chain()
    assert [len(transversal) for _, _, transversal in chain] == [27, 16, 10, 6, 2]
    assert inc.group_order() == 51840
    assert all(is_group_element(g) for g in inc.group_generators())
    assert is_group_element(inc.IDENTITY)
    # a1 and b1 are skew; swapping them alone breaks the incidence
    skew = _swap_perm([(inc.a(1), inc.b(1))])
    assert not lattice_meets(inc.a(1), inc.b(1))
    assert not inc.permutation_preserves_incidence(skew)
    assert not is_group_element(skew)
    # a product of generators is a member, its composite with a
    # non-member is not
    g = inc.compose(*inc.group_generators()[:2])
    assert is_group_element(g)
    assert not is_group_element(inc.compose(g, skew))


def test_root_built_involutions(is_group_element):
    identity = inc.IDENTITY
    invs = inc.involutions()
    assert len(invs) == 892 and len(set(invs)) == 892
    for g in invs:
        assert inc.compose(g, g) == identity
        assert inc.permutation_preserves_incidence(g)
        assert is_group_element(g)


def test_involution_census_equals_golden():
    golden = json.loads((Path(__file__).parent / "golden" / "species.json")
                        .read_text())["census"]
    census = inc.involution_census()
    assert {str(k): v for k, v in census.items()} == golden
    assert sum(census.values()) == 892
