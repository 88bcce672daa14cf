"""Exact scalars: rationals and small extension fields Q(theta).

Rationals are gmpy2.mpq values (fractions.Fraction if gmpy2 is missing).
Extension elements live in a FieldTower: a stack of monic defining
polynomials, each with coefficients in the level below.  Towers of total
degree <= 3 are all we ever build, but the arithmetic is generic.
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
    """A tower Q = L_0 < L_1 < ... < L_k, each step a quotient by a monic poly.

    levels[i] is the monic minimal polynomial of the i-th generator, stored as
    a coefficient list (constant first, top coefficient 1) whose entries are
    elements of level i-1.
    """

    def __init__(self, levels=(), names=()):
        self.levels = [list(p) for p in levels]
        for p in self.levels:
            if len(p) < 3 or p[-1] != 1:
                raise ValueError("defining polynomial must be monic of degree >= 2")
        self.names = list(names) if names else [f"theta{i}" for i in range(len(self.levels))]
        self.degree = 1
        for p in self.levels:
            self.degree *= len(p) - 1

    @property
    def height(self):
        return len(self.levels)

    def is_rational_field(self):
        return not self.levels

    def zero(self):
        return self.embed(rat(0))

    def one(self):
        return self.embed(rat(1))

    def embed(self, x):
        """Embed a rational (or lower-level element) as an element of the top level."""
        if not self.levels:
            return _mpq(x) if not isinstance(x, FieldElement) else x
        return FieldElement(self, [x])

    def gen(self):
        """The top-level generator theta."""
        if not self.levels:
            raise ValueError("the rational field has no generator")
        return FieldElement(self, [rat(0), rat(1)])

    def extend(self, minpoly, name=None):
        """New tower with one more level; minpoly coefficients live in this tower."""
        names = self.names + [name or f"theta{self.height}"]
        return FieldTower(self.levels + [list(minpoly)], names)

    def lower(self):
        """The tower one level down."""
        return FieldTower(self.levels[:-1], self.names[:-1])

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.levels == other.levels

    def __repr__(self):
        if not self.levels:
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
        return a, FieldElement(a.tower, [b])
    if isinstance(b, FieldElement):
        return FieldElement(b.tower, [a]), b
    return a, b


class FieldElement:
    """Element of a FieldTower, as a reduced coefficient vector over the level below."""

    __slots__ = ("tower", "coeffs", "_hash")

    def __init__(self, tower, coeffs):
        self.tower = tower
        lower = tower.lower()
        lifted = []
        for c in coeffs:
            if isinstance(c, FieldElement) and c.tower.height >= tower.height:
                raise ValueError("coefficient does not live in the lower level")
            if lower.is_rational_field():
                lifted.append(_mpq(c) if not isinstance(c, FieldElement) else c)
            else:
                lifted.append(c if isinstance(c, FieldElement) and c.tower == lower
                              else lower.embed(c))
        modulus = tower.levels[-1]
        deg = len(modulus) - 1
        if len(lifted) >= len(modulus):
            lifted = _poly_mod(lifted, modulus, lower)
        while len(lifted) < deg:
            lifted.append(lower.zero() if not lower.is_rational_field() else rat(0))
        self.coeffs = lifted[:deg]
        self._hash = None

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def as_rational(self):
        """The rational value, if this element lies in Q; None otherwise."""
        head = self.coeffs[0]
        if any(self.coeffs[i] for i in range(1, len(self.coeffs))):
            return None
        if isinstance(head, FieldElement):
            return head.as_rational()
        return head

    def conjugate(self):
        """theta -> -theta on a degree-2 top level (the defining poly must be even)."""
        modulus = self.tower.levels[-1]
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
        n = max(len(a.coeffs), len(b.coeffs))
        za = a.coeffs + [a.tower.lower().zero()] * (n - len(a.coeffs))
        zb = b.coeffs + [b.tower.lower().zero()] * (n - len(b.coeffs))
        return FieldElement(a.tower, [x + y for x, y in zip(za, zb)])

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
        prod = _poly_mul(a.coeffs, b.coeffs)
        return FieldElement(a.tower, prod)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        modulus = self.tower.levels[-1]
        lower = self.tower.lower()
        g, s, _ = _poly_xgcd(list(self.coeffs), list(modulus), lower)
        if len(_poly_trim(g)) != 1:
            raise ZeroDivisorError(
                f"non-invertible element in {self.tower!r}: modulus is reducible")
        inv_lead = inverse(g[0])
        return FieldElement(self.tower, [c * inv_lead for c in s])

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
        if self._hash is None:
            r = self.as_rational()
            self._hash = hash(r) if r is not None else hash(tuple(self.coeffs))
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
        return rat(data) if tower.is_rational_field() else tower.embed(rat(data))
    if tower.is_rational_field() or not isinstance(data, list):
        raise ValueError(f"not a scalar over {tower!r}: {data!r}")
    return FieldElement(tower, [scalar_from_json(tower.lower(), c) for c in data])


# -- dense univariate helpers over a lower level ---------------------------

def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _poly_divmod(a, b, lower):
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = inverse(b[-1])
    q = [lower.zero()] * max(0, len(a) - len(b) + 1)
    while len(_poly_trim(a)) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead
        q[shift] = q[shift] + factor
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - factor * c
        a.pop()
    return q, a


def _poly_mod(a, b, lower):
    return _poly_divmod(a, b, lower)[1]


def _poly_xgcd(a, b, lower):
    """Extended Euclid over the lower field: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [lower.one()], []
    t0, t1 = [], [lower.one()]
    while r1:
        q, r = _poly_divmod(r0, r1, lower)
        r0, r1 = r1, _poly_trim(r)
        s0, s1 = s1, _poly_trim(_poly_sub(s0, _poly_mul(q, s1), lower))
        t0, t1 = t1, _poly_trim(_poly_sub(t0, _poly_mul(q, t1), lower))
    return r0, s0, t0


def _poly_sub(a, b, lower):
    n = max(len(a), len(b))
    za = a + [lower.zero()] * (n - len(a))
    zb = b + [lower.zero()] * (n - len(b))
    return [x - y for x, y in zip(za, zb)]
