"""Sparse multivariate polynomials with exact coefficients.

Terms are stored in a dict keyed by exponent tuples; zero coefficients are
never stored, so equality is dict equality.  Monomial order, where one is
needed, is graded lexicographic.
"""

from __future__ import annotations

import itertools

from .binforms import binary_from_poly, binary_gcd_degree
from .field import rat, is_rational, inverse, clear_denominators


def grlex_key(expo):
    return (sum(expo), expo)


def _unit(i, nvars):
    """The exponent tuple of the variable x_i."""
    return tuple(1 if j == i else 0 for j in range(nvars))


class MultiPoly:
    """A polynomial in `nvars` variables over an exact field."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff:
                    expo = tuple(expo)
                    cur = self.terms.get(expo)
                    new = coeff if cur is None else cur + coeff
                    if new:
                        self.terms[expo] = new
                    elif cur is not None:
                        del self.terms[expo]

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars):
        return cls(nvars, {_unit(i, nvars): rat(1)})

    @classmethod
    def linear_form(cls, coeffs):
        n = len(coeffs)
        return cls(n, {_unit(i, n): c for i, c in enumerate(coeffs) if c})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            new = c if cur is None else cur + c
            if new:
                out[e] = new
            elif cur is not None:
                del out[e]
        p = MultiPoly(self.nvars)
        p.terms = out
        return p

    def __neg__(self):
        p = MultiPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                new = c if cur is None else cur + c
                if new:
                    out[e] = new
                elif cur is not None:
                    del out[e]
        p = MultiPoly(self.nvars)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return MultiPoly(self.nvars)
        p = MultiPoly(self.nvars)
        p.terms = {e: co * c for e, co in self.terms.items()}
        return p

    def __pow__(self, n):
        out = MultiPoly.constant(self.nvars, rat(1))
        for _ in range(n):
            out = out * self
        return out

    # -- structure ---------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the grlex-largest term."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def monic(self):
        if not self.terms:
            return self
        _, c = self.leading()
        return self.scale(inverse(c))

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), rat(0))

    def linear_coeffs(self):
        """The coefficients of x_0, ..., x_{n-1}; inverse of linear_form."""
        return [self.coefficient(_unit(i, self.nvars)) for i in range(self.nvars)]

    def evaluate(self, point):
        acc = 0
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                for _ in range(k):
                    term = term * x
            acc = acc + term
        return acc

    def substitute(self, polys):
        """Plug a polynomial in for each variable."""
        acc = MultiPoly(polys[0].nvars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(polys[0].nvars, c)
            for p, k in zip(polys, e):
                for _ in range(k):
                    term = term * p
            acc = acc + term
        return acc

    def restrict(self, p, q):
        """The binary form f(s*p + t*q) in (s, t): f on the line through p and q."""
        return self.substitute([MultiPoly(2, {(1, 0): a, (0, 1): b})
                                for a, b in zip(p, q)])

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        p = MultiPoly(self.nvars)
        p.terms = out
        return p

    def gradient(self):
        return [self.partial(i) for i in range(self.nvars)]

    def coeff_vector(self, monomials):
        return [self.terms.get(m, rat(0)) for m in monomials]

    def divide_exact(self, divisor):
        """Exact quotient; raises ValueError if the division leaves a remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead_e, lead_c = divisor.leading()
        lead_inv = inverse(lead_c)
        rem = self
        quot = MultiPoly(self.nvars)
        while rem.terms:
            e, c = rem.leading()
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise ValueError("inexact polynomial division")
            t = MultiPoly(self.nvars, {diff: c * lead_inv})
            quot = quot + t
            rem = rem - t * divisor
        return quot

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: grlex_key(ec[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = "xyzw" if self.nvars <= 4 else [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                            for i, k in enumerate(e) if k)
            cs = str(c) if is_rational(c) else f"({c!r})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

def monomials(nvars, degree):
    """All exponent tuples of the given total degree, grlex-descending."""
    out = [e for e in itertools.product(range(degree + 1), repeat=nvars)
           if sum(e) == degree]
    out.sort(key=grlex_key, reverse=True)
    return out


def eval_monomial(expo, coords):
    """The value of the monomial with exponents expo at coords."""
    acc = rat(1)
    for x, k in zip(coords, expo):
        for _ in range(k):
            acc = acc * x
    return acc


def cleared(polys):
    """The polys times the least positive integer that makes all their
    coefficients integral (over a level over Q: denominator 1)."""
    _, values = clear_denominators([c for p in polys for c in p.terms.values()])
    values = iter(values)
    return [MultiPoly(p.nvars, {e: next(values) for e in p.terms}) for p in polys]


def ratio(num, den):
    """The scalar c with num = c * den, or None."""
    lead_m, lead_c = den.leading()
    top = num.coefficient(lead_m)
    if not top:
        return None
    c = top * inverse(lead_c)
    return c if den.scale(c) == num else None


# Lines of P^3, each through two rational points, tried in order by
# coprime_on_a_line.
CERTIFICATE_LINES = tuple(
    (tuple(map(rat, p)), tuple(map(rat, q))) for p, q in (
        ((1, 2, -3, 5), (3, -1, 4, 2)),
        ((2, 5, 1, -4), (1, -3, 7, 3)),
        ((5, -2, 3, 1), (4, 1, -6, 7))))


def coprime_on_a_line(forms):
    """Whether the forms provably share no factor of positive degree.

    A common factor G restricts to a nonzero binary form of degree deg G on
    every line where not all the forms vanish, and divides every restriction
    there; so a trivial binary gcd on one such line proves the forms coprime.
    False means no line of CERTIFICATE_LINES gave that proof.
    """
    return any(
        binary_gcd_degree([binary_from_poly(f.restrict(p, q), f.degree())
                           for f in forms]) == 0
        for p, q in CERTIFICATE_LINES)
