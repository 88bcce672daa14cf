import pytest

from cubicgeom import determinantal
from cubicgeom.blowup import sample_surface_points
from cubicgeom.determinantal import (grassmann_nets, grassmann_param,
                                     bilinear_identity_holds,
                                     param_lands_on_surface, CuboCubicMap,
                                     cubo_cubic, cubo_cubic_inverse,
                                     preserves_surface, inverts_exactly,
                                     plane_cubic, plane_image_cubic,
                                     plane_images, RANK_PRIME, I_MOD_P,
                                     _rank_mod_p, _stacked_minors, _vertices)
from cubicgeom.field import rat
from cubicgeom.linalg import ExactMatrix
from cubicgeom.multipoly import MultiPoly, monomials, eval_monomial, coprime_on_a_line


# -- oracles: the sampled checks the exact ones replaced, and the literal
# triangle construction ------------------------------------------------------

def param_rank_at(gamma, lam):
    """Rank of the differential of gamma at a parameter value."""
    jac = [[g.partial(k).evaluate(lam) for k in range(3)] for g in gamma]
    return ExactMatrix(jac).rank()


def inverts_on_points(tmap, tinv, points):
    """T' (T x) = x exactly for the given points."""
    for pt in points:
        img = tmap.apply(pt)
        if img is None:
            return False
        back = tinv.apply(img)
        if back is None or back != pt:
            return False
    return True


def fixes_surface_points(tmap, points):
    """T(x) = x exactly for the given surface points."""
    for pt in points:
        img = tmap.apply(pt)
        if img is None or img != pt:
            return False
    return True


def plane_fit_rows(tmap, seed=0):
    """The 25 x 20 matrix of the cubic monomials at the plane's images."""
    return [[eval_monomial(e, img.coords) for e in monomials(4, 3)]
            for img in plane_images(tmap, seed)]


def plane_fit_kernel(tmap, seed=0):
    """The cubics through the images of 25 sampled points of the plane:
    the kernel of the 25 x 20 evaluation matrix."""
    return ExactMatrix(plane_fit_rows(tmap, seed)).kernel_basis()


def triangle_minors(rep):
    """The literal triangle construction: vertex lam^(i) with net i itself.

    Pairing each row with its opposite vertex makes every plane satisfy
    c_i(x).x = det M(x), so the resulting sextic map restricts to the
    identity on the surface, but the four sextics are coprime (a binary gcd
    on a rational line proves it), so no cubic map falls out of this
    assignment; see cubo_cubic for the assignment that does.  Returns
    (sextics, whether they are proven coprime).
    """
    sextics = _stacked_minors(rep.matrix, _vertices(rep.matrix), 0)
    return sextics, coprime_on_a_line(sextics)


@pytest.fixture(scope="module")
def tmap(rep):
    return cubo_cubic(rep)


@pytest.fixture(scope="module")
def tinv(rep):
    return cubo_cubic_inverse(rep)


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


def test_cubo_cubic_inverts(surface, tmap, tinv):
    assert inverts_exactly(tmap, tinv)
    pts = sample_surface_points(surface, 20, seed=0)
    assert inverts_on_points(tmap, tinv, pts)


def test_plane_maps_to_single_cubic(tmap, tinv):
    assert plane_image_cubic(tmap, plane_cubic(tinv), seed=0) == 1
    assert len(plane_fit_kernel(tmap, seed=0)) == 1


def _perturbed(poly):
    """poly with 1 added to the coefficient of x0^3."""
    return poly + MultiPoly(4, {(3, 0, 0, 0): rat(1)})


def test_perturbed_inverse_fails(tmap, tinv):
    bent = CuboCubicMap([_perturbed(tinv.components[0])] + tinv.components[1:],
                        tinv.factor, tinv.rep)
    assert not inverts_exactly(tmap, bent)


def test_perturbed_plane_cubic_fails(tmap, tinv):
    assert plane_image_cubic(tmap, _perturbed(plane_cubic(tinv))) == 0
    assert plane_image_cubic(tmap, MultiPoly(4)) == 0


def test_rank_prime():
    assert RANK_PRIME % 4 == 1
    assert all(RANK_PRIME % d for d in range(2, int(RANK_PRIME ** 0.5) + 1))
    assert I_MOD_P ** 2 % RANK_PRIME == RANK_PRIME - 1


@pytest.mark.parametrize("k", [1, 3])
def test_modular_rank_is_the_exact_rank(species_sessions, k):
    # species 1 is the rational fixture; species 3 lies over Q(i)
    tmap = cubo_cubic(species_sessions[k].rep)
    assert _rank_mod_p(plane_images(tmap)) == ExactMatrix(
        plane_fit_rows(tmap)).rank() == 19


def test_low_modular_rank_takes_the_exact_rank(tmap, tinv, monkeypatch):
    ranks = []

    class Counted(ExactMatrix):
        def rank(self):
            ranks.append(super().rank())
            return ranks[-1]
    monkeypatch.setattr(determinantal, "_rank_mod_p", lambda images: 18)
    monkeypatch.setattr(determinantal, "ExactMatrix", Counted)
    assert plane_image_cubic(tmap, plane_cubic(tinv)) == 1
    assert ranks == [19]


def test_triangle_assignment_is_coprime_identity(surface, rep):
    # pairing each vertex with its own net gives sextics restricting to the
    # identity on the surface, but they share no common factor
    sextics, coprime = triangle_minors(rep)
    assert coprime
    pts = sample_surface_points(surface, 5, seed=1)
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
