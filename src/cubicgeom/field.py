"""Exact scalars: rationals and small extension fields Q(theta).

Rationals are gmpy2.mpq values (fractions.Fraction if gmpy2 is missing).
Extension elements live in a FieldTower level: a monic defining polynomial
with coefficients in the level below, its ``base``.  Inputs may stack
several levels; the arithmetic works at any height.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    from fractions import Fraction as _mpq

mpq = _mpq


class ZeroDivisorError(ZeroDivisionError):
    """Inversion hit a nonzero non-invertible element: the modulus is reducible."""


def rat(p, q=1):
    """Exact rational from ints or a "p/q" string."""
    if isinstance(p, str):
        return _mpq(p)
    return _mpq(p, q)


def is_rational(x):
    return not isinstance(x, FieldElement)


def inverse(x):
    """The multiplicative inverse of a rational or of a tower element."""
    if isinstance(x, FieldElement):
        return x.inverse()
    return 1 / x


def rat_str(x):
    """Serialize a rational as "p/q" (always with explicit denominator)."""
    return f"{x.numerator}/{x.denominator}"


class FieldTower:
    """One level L_k of a tower Q = L_0 < L_1 < ... < L_k.

    A level above Q holds ``base``, the level below it, and ``modulus``, the
    monic minimal polynomial of its generator as a coefficient list (constant
    first, top coefficient 1) of elements of ``base``.  Q itself has neither.
    Each level keeps its zero, which pads the elements of the level above.
    """

    def __init__(self, base=None, modulus=None, name=None):
        self.base = base
        self.modulus = modulus
        if base is None:
            self.height, self.degree, self.names = 0, 1, []
            self._zero = rat(0)
            return
        if len(modulus) < 3 or modulus[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 2")
        self.height = base.height + 1
        self.degree = base.degree * (len(modulus) - 1)
        self.names = base.names + [name or f"theta{base.height}"]
        self._zero = FieldElement(self, [])

    def zero(self):
        return self._zero

    def one(self):
        return self.embed(rat(1))

    def embed(self, x):
        """A rational, or an element of this level or of one below, as an
        element of this level; ValueError if x lies in another tower."""
        height = x.tower.height if isinstance(x, FieldElement) else 0
        if height < self.height:
            return FieldElement(self, [self.base.embed(x)])
        if not height:
            return _mpq(x)
        if x.tower != self:
            raise ValueError(f"{x!r} does not lie in {self!r}")
        return x

    def gen(self):
        """The generator theta of this level."""
        if self.base is None:
            raise ValueError("the rational field has no generator")
        return FieldElement(self, [self.base.zero(), self.base.one()])

    def extend(self, minpoly, name=None):
        """New level on top of this one; minpoly coefficients live in this tower."""
        return FieldTower(self, [self.embed(c) for c in minpoly], name)

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldTower)
                                 and self.height == other.height
                                 and self.base == other.base
                                 and self.modulus == other.modulus)

    def __repr__(self):
        if self.base is None:
            return "QQ"
        return "QQ(" + ", ".join(self.names) + ")"


QQ = FieldTower()


def _coerce_pair(a, b):
    """Bring two scalars into a common representation; returns (a, b) or None."""
    if isinstance(a, FieldElement):
        if isinstance(b, FieldElement):
            if a.tower == b.tower:
                return a, b
            if a.tower.height < b.tower.height:
                return b.tower.embed(a), b
            if b.tower.height < a.tower.height:
                return a, a.tower.embed(b)
            return None
        return a, a.tower.embed(b)
    if isinstance(b, FieldElement):
        return b.tower.embed(a), b
    return a, b


class FieldElement:
    """Element of a FieldTower level, as a coefficient vector over its base.

    The coefficients must already be elements of ``tower.base`` (rationals
    when the base is Q); they are reduced modulo ``tower.modulus`` and padded
    with zeros to exactly deg(modulus) entries.  FieldTower.embed lifts
    anything else.  On a level of degree 2, with modulus x^2 + m1 x + m0,
    products and inverses take closed forms; higher degrees go through the
    dense polynomial helpers.
    """

    __slots__ = ("tower", "coeffs", "_hash")

    def __init__(self, tower, coeffs):
        self.tower = tower
        coeffs = list(coeffs)
        deg = len(tower.modulus) - 1
        if len(coeffs) > deg:
            coeffs = _poly_divmod(coeffs, tower.modulus, tower.base)[1]
        self.coeffs = coeffs + [tower.base._zero] * (deg - len(coeffs))
        self._hash = None

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def conjugate(self):
        """theta -> -theta on a degree-2 top level (the defining poly must be even)."""
        modulus = self.tower.modulus
        if len(modulus) != 3 or modulus[1]:
            raise ValueError("conjugation needs a top level x^2 - d")
        return FieldElement(self.tower, [self.coeffs[0], -self.coeffs[1]])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if not isinstance(a, FieldElement):
            return a + b
        return FieldElement(a.tower, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, FieldElement) else -_as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if not isinstance(a, FieldElement):
            return a * b
        modulus = a.tower.modulus
        if len(modulus) != 3:
            return FieldElement(a.tower, _poly_mul(a.coeffs, b.coeffs, a.tower.base))
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -m1 t - m0
        (a0, a1), (b0, b1), (m0, m1) = a.coeffs, b.coeffs, modulus[:2]
        top = a1 * b1
        low, high = a0 * b0 - m0 * top, a0 * b1 + a1 * b0
        return FieldElement(a.tower, [low, high - m1 * top if m1 else high])

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        modulus = self.tower.modulus
        if len(modulus) == 3:
            # the conjugate (a0 - m1 a1) - a1 t over the norm
            (a0, a1), (m0, m1) = self.coeffs, modulus[:2]
            conj = [a0 - m1 * a1 if m1 else a0, -a1]
            g = [a0 * conj[0] + m0 * a1 * a1]
        else:
            g, conj = _poly_xgcd(self.coeffs, modulus, self.tower.base)
        if len(g) != 1 or not g[0]:
            raise ZeroDivisorError(
                f"non-invertible element in {self.tower!r}: modulus is reducible")
        inv_lead = inverse(g[0])
        return FieldElement(self.tower, [c * inv_lead for c in conj])

    def __truediv__(self, other):
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if not isinstance(b, FieldElement):
            return a / b
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inverse() if not isinstance(other, FieldElement) else NotImplemented

    def __eq__(self, other):
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if not isinstance(a, FieldElement):
            return a == b
        return a.coeffs == b.coeffs

    def __hash__(self):
        # An element of a lower level hashes alike wherever it is embedded.
        if self._hash is None:
            self._hash = hash(tuple(self.coeffs) if any(self.coeffs[1:])
                              else self.coeffs[0])
        return self._hash

    def __repr__(self):
        name = self.tower.names[-1]
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            head = repr(c) if isinstance(c, FieldElement) else str(c)
            parts.append(head if i == 0 else f"({head})*{name}^{i}" if i > 1 else f"({head})*{name}")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        def enc(x):
            if isinstance(x, FieldElement):
                return [enc(c) for c in x.coeffs]
            return rat_str(x)

        return enc(self)


def _as_scalar(x):
    return x if isinstance(x, FieldElement) else _mpq(x)


def scalar_to_json(x):
    """A rational as "p/q", a tower element as nested coefficient lists."""
    return rat_str(x) if is_rational(x) else x.to_json()


def scalar_from_json(tower, data):
    """Inverse of scalar_to_json for a given tower; ValueError if malformed."""
    if isinstance(data, str):
        return tower.embed(rat(data))
    if tower.base is None or not isinstance(data, list):
        raise ValueError(f"not a scalar over {tower!r}: {data!r}")
    return FieldElement(tower, [scalar_from_json(tower.base, c) for c in data])


# -- dense univariate polynomials (constant first) over a tower level ---------

def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b, base):
    out = [base.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _poly_divmod(a, b, base):
    """(quotient, remainder) of a by b; the remainder comes back trimmed."""
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = inverse(b[-1])
    q = [base.zero()] * max(0, len(a) - len(b) + 1)
    while len(_poly_trim(a)) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead
        q[shift] = q[shift] + factor
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - factor * c
        a.pop()
    return q, a


def _poly_xgcd(a, b, base):
    """Euclid over the field base: (g, s) with g a trimmed gcd of a and b
    and s*a = g modulo b."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [base.one()], []
    while r1:
        q, r = _poly_divmod(r0, r1, base)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(_poly_sub(s0, _poly_mul(q, s1, base), base))
    return r0, s0


def _poly_sub(a, b, base):
    n = max(len(a), len(b))
    za = a + [base.zero()] * (n - len(a))
    zb = b + [base.zero()] * (n - len(b))
    return [x - y for x, y in zip(za, zb)]
