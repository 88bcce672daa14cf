"""Exact scalars: rationals and small extension fields Q(theta).

Rationals are gmpy2.mpq values (fractions.Fraction if gmpy2 is missing).
Extension elements live in a FieldTower level: a monic defining polynomial
with coefficients in the level below, its ``base``.  Inputs may stack
several levels; the arithmetic works at any height.  An element of a level
over Q is held as integer numerators over one positive denominator, in
lowest terms (Cohen, A Course in Computational Algebraic Number Theory,
ch. 4); an element of a higher level as its coefficients over the base.
"""

from __future__ import annotations

from math import gcd, lcm

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    from fractions import Fraction as _mpq

mpq = _mpq

# The rational types whose numerator and denominator the level-over-Q
# arithmetic reads directly (a bool, or anything else, is coerced first).
_RATIONAL_TYPES = frozenset({int, _mpq})


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
    """The multiplicative inverse of a rational or of a tower element; an
    integer's is the exact rational 1/x."""
    if isinstance(x, FieldElement):
        return x.inverse()
    return 1 / x if type(x) is _mpq else _mpq(1, x)


def canonicalize(coords):
    """The vector divided by its first nonzero entry; ValueError if it is zero."""
    coords = list(coords)
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("zero coordinate vector")
    inv = inverse(lead)
    return tuple(inv * c for c in coords)


def primitive(values):
    """The vector divided by its first nonzero entry and multiplied by the
    least positive integer m that makes every entry integral, as
    clear_denominators clears it; ValueError if it is zero.  Over Q that is
    the primitive integer vector with a positive lead, found from numerators
    and denominators alone; on a level over Q its entries have denominator
    1.  On a higher level an element is integral when its coefficients are,
    so there too the result depends on the values alone, not on the level an
    entry is held on: two vectors are proportional exactly when their
    primitive vectors are equal."""
    values = list(values)
    if any(type(x) is FieldElement for x in values):
        return tuple(clear_denominators(canonicalize(values))[1])
    dens = [x.denominator for x in values]
    m = lcm(*dens)
    ints = [x.numerator * (m // d) for x, d in zip(values, dens)]
    g = gcd(*ints)
    if not g:
        raise ValueError("zero coordinate vector")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def _den(x):
    """The least positive integer m with m * x integral."""
    if type(x) is not FieldElement:
        return x.denominator
    if x.num is not None:
        return x.den
    return lcm(*map(_den, x._coeffs))


def clear_denominators(values):
    """(m, [m * x for x in values]) for the least positive integer m that
    makes every value integral: rationals become integers, elements of a
    level over Q get denominator 1, and elements of a higher level integral
    coefficients, level by level.  Products, sums and zero tests of the
    cleared values then need no gcd."""
    values = list(values)
    m = lcm(*map(_den, values))
    return m, [x * m if type(x) is FieldElement else
               x.numerator * (m // x.denominator) for x in values]


def residue(x, p, root):
    """x modulo the prime p: an integer, or an element with denominator 1 of
    a level over Q whose monic integral modulus has the root `root` mod p,
    sent to the generator (a ring map); None for any other element."""
    if type(x) is not FieldElement:
        return x % p
    m = x.tower.int_modulus
    if x.num is None or x.den != 1 or m[-1] != 1 \
            or sum(c * root ** k for k, c in enumerate(m)) % p:
        return None
    return sum(n * root ** k for k, n in enumerate(x.num)) % p


def rat_str(x):
    """Serialize a rational as "p/q" (always with explicit denominator)."""
    return f"{x.numerator}/{x.denominator}"


class FieldTower:
    """One level L_k of a tower Q = L_0 < L_1 < ... < L_k.

    A level above Q holds ``base``, the level below it, and ``modulus``, the
    monic minimal polynomial of its generator as a coefficient list (constant
    first, top coefficient 1) of elements of ``base``.  Q itself has neither.
    A level over Q also keeps ``int_modulus``, the modulus times the least
    common multiple q of its denominators as integers (so its last entry is
    q); elsewhere it is None.  Each level keeps its zero, which pads the
    elements of the level above.
    """

    def __init__(self, base=None, modulus=None, name=None):
        self.base = base
        self.modulus = modulus
        self.int_modulus = None
        if base is None:
            self.height, self.degree, self.names = 0, 1, []
            self._zero = rat(0)
            return
        if len(modulus) < 3 or modulus[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 2")
        if base.base is None:
            q = lcm(*(c.denominator for c in modulus))
            self.int_modulus = tuple(c.numerator * (q // c.denominator)
                                     for c in modulus)
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
    """Element of a FieldTower level.

    ``FieldElement(tower, coeffs)`` takes coefficients that are already
    elements of ``tower.base`` (rationals when the base is Q), reduces them
    modulo ``tower.modulus`` and pads them with zeros to exactly
    deg(modulus) entries; FieldTower.embed lifts anything else.

    On a level over Q the element keeps ``num``, a tuple of deg(modulus)
    integer numerators, and ``den``, one positive denominator, in lowest
    terms: equality is a tuple compare, a rational operand scales the
    numerators, and degree-2 products and inverses take closed forms in
    integers.  ``coeffs`` is then a fresh list of rationals derived from
    them.  On a higher level ``coeffs`` is the stored list of base elements,
    and degree-2 levels use the same closed forms over the base.  Degree-3
    levels, at any height, multiply and invert through the dense polynomial
    helpers.
    """

    __slots__ = ("tower", "num", "den", "_coeffs", "_hash")

    def __init__(self, tower, coeffs):
        self.tower = tower
        self._hash = None
        coeffs = list(coeffs)
        deg = len(tower.modulus) - 1
        if len(coeffs) > deg:
            coeffs = _poly_divmod(coeffs, tower.modulus, tower.base)[1]
        if tower.int_modulus is None:
            self.num = self.den = None
            self._coeffs = coeffs + [tower.base._zero] * (deg - len(coeffs))
            return
        # lcm of lowest-terms denominators: the numerators share no factor with it
        den = lcm(*(c.denominator for c in coeffs))
        self.num = (tuple(c.numerator * (den // c.denominator) for c in coeffs)
                    + (0,) * (deg - len(coeffs)))
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self):
        """The coefficients over the base, constant first."""
        if self.num is None:
            return self._coeffs
        return [_mpq(n, self.den) for n in self.num]

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        if self.num is not None:
            return not any(self.num)
        return all(not c for c in self._coeffs)

    def __bool__(self):
        return not self.is_zero()

    def conjugate(self):
        """theta -> -theta on a degree-2 top level (the defining poly must be even)."""
        modulus = self.tower.modulus
        if len(modulus) != 3 or modulus[1]:
            raise ValueError("conjugation needs a top level x^2 - d")
        if self.num is not None:
            return _over_q(self.tower, (self.num[0], -self.num[1]), self.den)
        return FieldElement(self.tower, [self._coeffs[0], -self._coeffs[1]])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.num is not None:
            if type(other) is FieldElement and other.tower is self.tower:
                return _q_add(self, other.num, other.den)
            if type(other) in _RATIONAL_TYPES:
                return _q_add_rational(self, other.numerator, other.denominator)
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.num is not None:
            return _q_add(a, b.num, b.den)
        return FieldElement(a.tower, [x + y for x, y in zip(a._coeffs, b._coeffs)])

    __radd__ = __add__

    def __neg__(self):
        if self.num is not None:
            return _over_q(self.tower, tuple(-n for n in self.num), self.den)
        return FieldElement(self.tower, [-c for c in self._coeffs])

    def __sub__(self, other):
        if self.num is not None:
            if type(other) is FieldElement and other.tower is self.tower:
                return _q_add(self, tuple(-n for n in other.num), other.den)
            if type(other) in _RATIONAL_TYPES:
                return _q_add_rational(self, -other.numerator, other.denominator)
        return self + (-other if isinstance(other, FieldElement) else -_as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self.num is not None:
            if type(other) is FieldElement and other.tower is self.tower:
                return _q_mul(self, other)
            if type(other) in _RATIONAL_TYPES:
                return _q_scale(self, other.numerator, other.denominator)
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.num is not None:
            return _q_mul(a, b)
        modulus = a.tower.modulus
        if len(modulus) != 3:
            return FieldElement(a.tower, _poly_mul(a._coeffs, b._coeffs, a.tower.base))
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -m1 t - m0
        (a0, a1), (b0, b1), (m0, m1) = a._coeffs, b._coeffs, modulus[:2]
        top = a1 * b1
        low, high = a0 * b0 - m0 * top, a0 * b1 + a1 * b0
        return FieldElement(a.tower, [low, high - m1 * top if m1 else high])

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        modulus = self.tower.modulus
        if len(modulus) == 3 and self.num is not None:
            # the conjugate of alpha = a0 + a1 t is (q a0 - m1 a1 - q a1 t) / q
            # and its norm n / q, so 1 / (alpha / d) = d (q a0 - m1 a1 - q a1 t) / n
            (a0, a1), (m0, m1, q), d = self.num, self.tower.int_modulus, self.den
            c0 = q * a0 - m1 * a1
            norm = a0 * c0 + m0 * a1 * a1
            if not norm:
                raise ZeroDivisorError(
                    f"non-invertible element in {self.tower!r}: modulus is reducible")
            return _over_q(self.tower, (d * c0, -d * q * a1), norm)
        if len(modulus) == 3:
            # the conjugate (a0 - m1 a1) - a1 t over the norm
            (a0, a1), (m0, m1) = self._coeffs, modulus[:2]
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
        if self.num is not None and type(other) in _RATIONAL_TYPES:
            if not other:
                raise ZeroDivisionError("division by zero")
            return _q_scale(self, other.denominator, other.numerator)
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _as_scalar(other) * self.inverse() if not isinstance(other, FieldElement) else NotImplemented

    def __eq__(self, other):
        if self.num is not None:
            if type(other) is FieldElement and other.tower is self.tower:
                return self.num == other.num and self.den == other.den
            if type(other) in _RATIONAL_TYPES:
                num = self.num
                return (self.den == other.denominator and num[0] == other.numerator
                        and not any(num[1:]))
        pair = _coerce_pair(self, other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.num is not None:
            return a.num == b.num and a.den == b.den
        return a._coeffs == b._coeffs

    def __hash__(self):
        # An element of a lower level hashes alike wherever it is embedded,
        # and a rational-valued one as the rational.
        if self._hash is None:
            num = self.num
            if num is None:
                coeffs = self._coeffs
                self._hash = hash(tuple(coeffs) if any(coeffs[1:]) else coeffs[0])
            else:
                self._hash = hash((num, self.den) if any(num[1:])
                                  else _mpq(num[0], self.den))
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


# -- elements of a level over Q: integer numerators over one denominator -----

_new = object.__new__


def _over_q(tower, num, den):
    """The element sum(num[k] theta^k) / den of a level over Q, for integers
    num and a nonzero integer den, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    x = _new(FieldElement)
    x.tower, x.num, x.den, x._coeffs, x._hash = tower, num, den, None, None
    return x


def _q_add(a, num, den):
    """a + num / den on a's level over Q."""
    if a.den == den:
        return _over_q(a.tower, tuple(x + y for x, y in zip(a.num, num)), den)
    da = a.den
    return _over_q(a.tower, tuple(x * den + y * da for x, y in zip(a.num, num)),
                   da * den)


def _q_add_rational(a, p, q):
    """a + p/q on a's level over Q: only the constant numerator moves."""
    n0, *rest = a.num
    return _over_q(a.tower, (n0 * q + p * a.den, *(n * q for n in rest)), a.den * q)


def _q_scale(a, p, q):
    """a * p/q on a's level over Q, for integers p and q != 0."""
    return _over_q(a.tower, tuple(n * p for n in a.num), a.den * q)


def _q_mul(a, b):
    """a * b for two elements of one level over Q."""
    tower = a.tower
    if len(a.num) != 2:
        return FieldElement(tower, _poly_mul(a.coeffs, b.coeffs, tower.base))
    (a0, a1), (b0, b1) = a.num, b.num
    den = a.den * b.den
    if not a1:
        return _over_q(tower, (a0 * b0, a0 * b1), den)
    if not b1:
        return _over_q(tower, (a0 * b0, a1 * b0), den)
    # (a0 + a1 t)(b0 + b1 t) with q t^2 = -m1 t - m0
    m0, m1, q = tower.int_modulus
    top = a1 * b1
    return _over_q(tower, (q * a0 * b0 - m0 * top, q * (a0 * b1 + a1 * b0) - m1 * top),
                   q * den)


def _as_scalar(x):
    return x if isinstance(x, FieldElement) else _mpq(x)


def scalar_to_json(x):
    """A rational as "p/q", a tower element as nested coefficient lists."""
    return rat_str(x) if is_rational(x) else x.to_json()


def scalar_from_json(tower, data):
    """Inverse of scalar_to_json for a given tower; ValueError if malformed.

    A coefficient list must have exactly the level's degree of entries.
    """
    if isinstance(data, str):
        return tower.embed(rat(data))
    if tower.base is None or not isinstance(data, list):
        raise ValueError(f"not a scalar over {tower!r}: {data!r}")
    degree = len(tower.modulus) - 1
    if len(data) != degree:
        raise ValueError(f"a scalar over {tower!r} needs {degree} coefficients, "
                         f"not {len(data)}: {data!r}")
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
