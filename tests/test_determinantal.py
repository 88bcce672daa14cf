import pytest

from cubicgeom.blowup import sample_surface_points
from cubicgeom.determinantal import (grassmann_nets, grassmann_param,
                                     bilinear_identity_holds,
                                     param_lands_on_surface, param_rank_at,
                                     cubo_cubic, cubo_cubic_inverse,
                                     triangle_minors, preserves_surface,
                                     inverts_on_points, fixes_surface_points,
                                     plane_image_cubic, _stacked_minors,
                                     _vertices)
from cubicgeom.field import rat


@pytest.fixture(scope="module")
def tmap(rep):
    return cubo_cubic(rep)


def test_det_reproduces_surface(surface, rep):
    assert rep.det_poly() == surface.F.scale(rep.kappa)
    for row in range(3):
        assert rep.matrix[row][row].is_zero()


def test_bilinear_rewrite(rep):
    nets = grassmann_nets(rep)
    assert bilinear_identity_holds(nets)


def test_parametrization_on_surface(surface, rep):
    gamma = grassmann_param(grassmann_nets(rep))
    assert param_lands_on_surface(surface, gamma)
    assert param_rank_at(gamma, [rat(1), rat(2), rat(3)]) == 3


def test_cubo_cubic_is_cubic(tmap):
    assert all(t.degree() == 3 for t in tmap.components)
    assert tmap.factor.degree() == 3


def test_cubo_cubic_preserves_surface(surface, tmap):
    assert preserves_surface(tmap, surface)


def test_cubo_cubic_inverts(surface, rep, tmap):
    tinv = cubo_cubic_inverse(rep)
    pts = sample_surface_points(surface, 20, seed=0)
    assert inverts_on_points(tmap, tinv, pts)


def test_plane_maps_to_single_cubic(tmap):
    assert len(plane_image_cubic(tmap, seed=0)) == 1


def test_triangle_assignment_is_coprime_identity(surface, rep):
    # pairing each vertex with its own net gives sextics restricting to the
    # identity on the surface, but they share no common factor
    sextics, coprime = triangle_minors(rep)
    assert coprime
    pts = sample_surface_points(surface, 5, seed=1)
    from cubicgeom.determinantal import CuboCubicMap
    sext_map = CuboCubicMap(sextics, None, rep)
    assert fixes_surface_points(sext_map, pts)


@pytest.mark.parametrize("name", ["session", "eckardt"])
def test_factor_is_the_trihedron_product(name, request):
    # up to a scalar: the trihedra of the Cayley-Salmon form, lam and mu
    # left out, computed from the plane forms rather than from the matrix
    rep = request.getfixturevalue(name).rep
    forms = rep.cs.plane_forms()
    for tmap, trihedron in ((cubo_cubic(rep), forms[:3]),
                            (cubo_cubic_inverse(rep), forms[3:])):
        assert tmap.factor.monic() == (
            trihedron[0] * trihedron[1] * trihedron[2]).monic()
        assert all(c.degree() == 3 for c in tmap.components)


def _to_sympy(p, gens):
    import sympy
    return sympy.Add(*(sympy.Rational(int(c.numerator), int(c.denominator))
                       * sympy.Mul(*(g ** k for g, k in zip(gens, e)))
                       for e, c in p.terms.items()))


def test_sympy_gcd_oracle(rep):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x0:4")

    def gcd(forms):
        acc = sympy.Integer(0)
        for f in forms:
            acc = sympy.gcd(acc, _to_sympy(f, gens))
        return acc

    m, mt = rep.matrix, list(zip(*rep.matrix))
    for minors, tmap in ((_stacked_minors(mt, _vertices(m), 1), cubo_cubic(rep)),
                         (_stacked_minors(m, _vertices(mt), 1),
                          cubo_cubic_inverse(rep))):
        ratio = sympy.cancel(gcd(minors) / _to_sympy(tmap.factor, gens))
        assert ratio.is_number and ratio != 0
    sextics, _ = triangle_minors(rep)
    assert gcd(sextics).is_number
