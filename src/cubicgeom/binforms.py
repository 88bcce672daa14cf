"""Binary forms over Q: the degree of a common factor, and irreducibility
of the small polynomials that define extension levels.

A binary form of degree d in (s, t) is held as a coefficient list
[c_0, ..., c_d] meaning  c_0 s^d + c_1 s^(d-1) t + ... + c_d t^d.
"""

from __future__ import annotations

from .field import QQ, rat, _poly_trim, _poly_xgcd


def binary_from_poly(p, degree):
    """Dense coefficient list [c_0, ..., c_degree] of a binary form held as a
    MultiPoly in 2 variables; absent terms are zero."""
    out = [rat(0)] * (degree + 1)
    for (i, j), c in p.terms.items():
        out[j] = c
    return out


def binary_gcd_degree(forms):
    """Degree of the gcd of binary forms, a common root (1 : 0) counted;
    zero forms are skipped, and None comes back if every form is zero."""
    gcd, at_infinity = None, None
    for coeffs in forms:
        # constant first in s at t = 1; each trimmed zero is a factor t
        dense = _poly_trim(list(coeffs[::-1]))
        if not dense:
            continue
        zeros = len(coeffs) - len(dense)
        gcd = dense if gcd is None else _poly_xgcd(gcd, dense, QQ)[0]
        at_infinity = zeros if at_infinity is None else min(at_infinity, zeros)
    if gcd is None:
        return None
    return len(gcd) - 1 + at_infinity


def _has_repeated_root(dense):
    """Whether a dense poly over Q has a factor in common with its derivative."""
    derivative = [dense[k] * k for k in range(1, len(dense))]
    return len(_poly_xgcd(dense, derivative, QQ)[0]) > 1


def irreducible_over_q(dense):
    """Whether a rational polynomial of degree 2 or 3 (dense, constant first)
    is irreducible over Q: it has neither a repeated nor a rational root."""
    return not _has_repeated_root(dense) and not _rational_roots(dense)


def _rational_roots(dense):
    """Rational roots of a square-free dense constant-first poly over Q, deg <= 3.

    Works by the monic transform y = a_n t (so rational roots become integer
    roots of a monic integer polynomial) plus exact integer bisection, which
    stays fast even when the coefficients are enormous.
    """
    from math import gcd, lcm
    roots = []
    dense = _poly_trim(list(dense))
    if dense and not dense[0]:
        roots.append(rat(0))
        dense = dense[1:]
    den = 1
    for c in dense:
        den = lcm(den, int(c.denominator))
    ints = [int(c.numerator) * (den // int(c.denominator)) for c in dense]
    n = len(ints) - 1
    if n <= 0:
        return sorted(roots)
    g = 0
    for a in ints:
        g = gcd(g, a)
    ints = [a // g for a in ints]
    if n == 1:
        roots.append(rat(-ints[0], ints[1]))
        return sorted(roots)
    an = ints[-1]
    monic = [ints[k] * an ** (n - 1 - k) for k in range(n)] + [1]
    for y in _integer_roots_monic(monic):
        roots.append(rat(y, an))
    return sorted(roots)


def _eval_int(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _integer_roots_monic(g):
    """Integer roots of a square-free monic integer poly of degree 2 or 3."""
    from math import isqrt
    n = len(g) - 1
    bound = 1 + max(abs(c) for c in g[:-1])
    seps = {-bound - 1, bound + 1}
    # integer brackets around the critical points keep each remaining
    # interval monotone, so one sign-change bisection per interval suffices
    approx = []
    if n == 3:
        a, b, c = 3, 2 * g[2], g[1]
        disc = b * b - 4 * a * c
        if disc > 0:
            r = isqrt(disc)
            approx += [(-b - r) // (2 * a), (-b + r) // (2 * a)]
    elif n == 2:
        approx.append(-g[1] // 2)
    for v in approx:
        seps.update(range(v - 1, v + 3))
    seps = sorted(x for x in seps if -bound - 1 <= x <= bound + 1)
    found = [s for s in seps if _eval_int(g, s) == 0]
    for lo, hi in zip(seps, seps[1:]):
        root = _bisect_integer_root(g, lo, hi)
        if root is not None:
            found.append(root)
    return sorted(set(found))


def _bisect_integer_root(g, lo, hi):
    flo, fhi = _eval_int(g, lo), _eval_int(g, hi)
    if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fm = _eval_int(g, mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return None
