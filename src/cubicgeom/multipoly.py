"""Sparse multivariate polynomials with exact coefficients.

Terms are stored in a dict keyed by exponent tuples; zero coefficients are
never stored, so equality is dict equality.  Monomial order, where one is
needed, is graded lexicographic.
"""

from __future__ import annotations

import itertools

from .field import rat, is_rational, inverse


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

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

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
        acc = rat(0)
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


def poly_content_free(p):
    """Primitive part over Q: scale so integer coefficients with content 1, positive lead."""
    if p.is_zero() or any(not is_rational(c) for c in p.terms.values()):
        return p.monic() if p.terms else p
    from math import gcd, lcm
    den = 1
    for c in p.terms.values():
        den = lcm(den, int(c.denominator))
    nums = [int(c.numerator * (den // c.denominator)) for c in p.terms.values()]
    g = 0
    for n in nums:
        g = gcd(g, n)
    _, lead = p.leading()
    sign = -1 if lead < 0 else 1
    return p.scale(rat(sign * den, g))


def homogeneous_gcd(a, b):
    """GCD of two homogeneous forms via their minimal-degree syzygy.

    A common factor G of degree g is equivalent to a relation a*v = b*u with
    deg u = deg a - g, deg v = deg b - g; scanning g downward, the first g
    admitting a nontrivial solution is the gcd degree and u = a/G recovers G.
    This stays fast where pseudo-remainder sequences blow up.
    """
    from .linalg import ExactMatrix
    if a.is_zero():
        return poly_content_free(b)
    if b.is_zero():
        return poly_content_free(a)
    if not (a.is_homogeneous() and b.is_homogeneous()):
        raise ValueError("homogeneous_gcd needs homogeneous forms")
    da, db = a.degree(), b.degree()
    for g in range(min(da, db), 0, -1):
        mons_v = monomials(a.nvars, db - g)
        mons_u = monomials(a.nvars, da - g)
        target = monomials(a.nvars, da + db - g)
        cols = []
        for m in mons_v:
            cols.append((a * MultiPoly(a.nvars, {m: rat(1)})).coeff_vector(target))
        for m in mons_u:
            cols.append((-b * MultiPoly(a.nvars, {m: rat(1)})).coeff_vector(target))
        kern = ExactMatrix(list(map(list, zip(*cols)))).kernel_basis()
        if not kern:
            continue
        vec = kern[0]
        u = MultiPoly(a.nvars, dict(zip(mons_u, vec[len(mons_v):])))
        return poly_content_free(a.divide_exact(u))
    return MultiPoly.constant(a.nvars, rat(1))


def common_factor(forms):
    """GCD of several homogeneous forms over Q (primitive)."""
    forms = list(forms)
    g = forms[0]
    for p in forms[1:]:
        g = homogeneous_gcd(g, p)
        if g.degree() == 0:
            break
    return g


def common_cubic_factor(forms):
    """Split equal-degree forms as (gcd, quotients); gcd may be a unit.

    Verified by exact division: each quotient times the gcd reproduces its form.
    """
    degs = {f.degree() for f in forms}
    if len(degs) != 1:
        raise ValueError("forms must have equal degree")
    if any(not f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous")
    g = common_factor(forms)
    quotients = [f.divide_exact(g) for f in forms]
    return g, quotients
