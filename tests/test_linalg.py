import random

from cubicgeom.field import rat
from cubicgeom.fixtures import gauss_tower
from cubicgeom.linalg import (ExactMatrix, det3, det4, integral_rank,
                              rank_below_3, signed_minors, cross3)


def test_rank_and_kernel():
    m = ExactMatrix([[rat(1), rat(2), rat(3)],
                     [rat(2), rat(4), rat(6)],
                     [rat(0), rat(1), rat(1)]])
    assert m.rank() == 2
    (vec,) = m.kernel_basis()
    assert all(sum(row[j] * vec[j] for j in range(3)) == 0
               for row in [[rat(1), rat(2), rat(3)], [rat(0), rat(1), rat(1)]])


def test_det_exact():
    m = ExactMatrix([[rat(2), rat(0)], [rat(7), rat(1, 3)]])
    assert m.det() == rat(2, 3)
    assert det3([[rat(1), rat(0), rat(0)],
                 [rat(0), rat(1), rat(0)],
                 [rat(0), rat(0), rat(1)]]) == 1


def test_solve():
    m = ExactMatrix([[rat(1), rat(1)], [rat(1), rat(-1)]])
    x = m.solve([rat(3), rat(1)])
    assert x == [rat(2), rat(1)]


def test_cross3_orthogonal():
    u = [rat(1), rat(2), rat(3)]
    v = [rat(4), rat(5), rat(6)]
    w = cross3(u, v)
    assert sum(a * b for a, b in zip(u, w)) == 0
    assert sum(a * b for a, b in zip(v, w)) == 0


def test_identity_and_mul_vec():
    m = ExactMatrix.identity(3)
    assert m.mul_vec([rat(4), rat(5), rat(6)]) == [rat(4), rat(5), rat(6)]
    assert m.transpose().rank() == 3


def _integral_matrices(rng, i):
    """Random 4x4 integral matrices of every rank, over Q or Q(i)."""
    def entry():
        return rng.randint(-5, 5) + rng.randint(-2, 2) * i
    for rank in range(5):
        for _ in range(8):
            # a sum of `rank` outer products u v^T
            m = [[0] * 4 for _ in range(4)]
            for _ in range(rank):
                u, v = [entry() for _ in range(4)], [entry() for _ in range(4)]
                m = [[m[r][c] + u[r] * v[c] for c in range(4)] for r in range(4)]
            yield m


def test_det4_and_integral_rank_match_elimination():
    rng = random.Random(25)
    for i in (0, gauss_tower().gen()):
        ranks = set()
        for m in _integral_matrices(rng, i):
            exact = ExactMatrix([[rat(0) + x for x in row] for row in m])
            assert det4(m) == exact.det()
            assert integral_rank(m) == exact.rank()
            ranks.add(exact.rank())
        assert ranks == {0, 1, 2, 3, 4}


def test_rank_below_3_agrees_with_signed_minors():
    rng = random.Random(3)
    seen = set()
    for _ in range(60):
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        third = [s * a + t * b for a, b in zip(*rows)]
        if rng.random() < 0.5:
            third[rng.randrange(4)] += 1
        expected = not any(signed_minors(rows + [third]))
        assert rank_below_3(rows + [third]) == expected
        seen.add(expected)
    assert seen == {True, False}
