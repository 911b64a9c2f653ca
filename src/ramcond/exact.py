"""Exact rational and cyclotomic arithmetic.

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator).  A :class:`CycloNum` is an element of Q(zeta_N) stored in the
power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic
polynomial, so equality is coefficient equality and rationality is an exact
test.  Arithmetic between different levels promotes both operands to the
least common multiple of their levels; levels are never reduced.

Reduction modulo the cyclotomic polynomial is one fold: products, embeddings
and Galois twists are sums of c * zeta_N^m, each term read from a memoized
table of zeta_N^m in the power basis.  There is no field division: the only
inverses the toolkit needs are 1/(zeta_N^k - 1), which
:func:`inverse_zeta_minus_one` gives in closed form, from integer rows
held per level and exponent.

Decimal rendering embeds zeta_N at exp(2*pi*i/N) in double precision and is
for display only.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from numbers import Number

from .errors import InputError

__all__ = [
    "CycloNum",
    "cyclotomic_polynomial",
    "euler_phi",
    "inverse_zeta_minus_one",
    "is_prime",
    "p_valuation",
]


# Size budget for primes: trial division up to sqrt(p) stays in milliseconds.
PRIME_BOUND = 2**32


@lru_cache(maxsize=256, typed=True)  # typed: 3.0 is refused, not read as the 3 held
def is_prime(n):
    """Primality by trial division; a non-``int`` or ``n >= PRIME_BOUND`` is an ``InputError``."""
    _check_int(n, "is_prime: n")
    if n >= PRIME_BOUND:
        raise InputError(f"{n} is too large: primes must be below 2**32")
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def p_valuation(x, p):
    """Exponent of the prime p in the rational x; +infinity for x = 0."""
    if not is_prime(p):
        raise InputError(f"p_valuation: {p} is not prime")
    if type(x) is not int:  # an int is read as it is
        x = Fraction(x)
    if x == 0:
        return inf
    v = 0
    n = abs(x.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def euler_phi(n):
    _check_int(n, "euler_phi: n")
    if n < 1:
        raise InputError("euler_phi: n must be positive")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial as an integer coefficient tuple.

    Constant coefficient first; monic of degree phi(n).  Computed by dividing
    X^n - 1 by each lower Phi_d in turn, exactly over the integers because
    every Phi_d is monic, and memoized (the cache is a pure idempotent map).
    """
    _check_int(n, "cyclotomic_polynomial: n")
    if n < 1:
        raise InputError("cyclotomic_polynomial: n must be positive")
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            k = len(div) - 1
            quot = [0] * (len(poly) - k)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + k]
                for j, y in enumerate(div):
                    poly[i + j] -= c * y
            if any(poly):
                raise AssertionError("cyclotomic division left a remainder")
            poly = quot
    _CYCLOTOMIC_CACHE[n] = tuple(poly)
    return _CYCLOTOMIC_CACHE[n]


_ZETA_POWER_CACHE = {}


def _zeta_powers(n):
    """x^m mod Phi_n for 0 <= m < n, as sparse integer rows.

    Row m lists the (index, coefficient) pairs of the power basis expansion
    of zeta_n^m with nonzero coefficient; ``_fold`` is its only reader.
    Memoized; like ``_CYCLOTOMIC_CACHE`` the cache is a pure idempotent map.
    """
    cached = _ZETA_POWER_CACHE.get(n)
    if cached is not None:
        return cached
    phi_n = cyclotomic_polynomial(n)
    row = [1] + [0] * (len(phi_n) - 2)
    rows = []
    for _ in range(n):
        rows.append(tuple([(i, t) for i, t in enumerate(row) if t]))
        # multiply by x; Phi_n is monic, so x^phi = -(lower terms of Phi_n)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi_n)]
    table = tuple(rows)
    _ZETA_POWER_CACHE[n] = table
    return table


def _fold(n, terms):
    """Power basis coefficients of sum c * zeta_n^m over the (m, c) pairs.

    The one reduction modulo Phi_n: each term reads row m % n of the
    zeta-power table (zeta_n^n = 1, so any exponent wraps).  The accumulator
    starts at the integer 0, so integer terms give integer coefficients.
    """
    table = _zeta_powers(n)
    acc = [0] * euler_phi(n)
    for m, c in terms:
        if c:
            for i, t in table[m % n]:
                acc[i] += c * t
    return acc


_TAME_ROW_CACHE = {}


def _inverse_zeta_minus_one_row(n, k):
    """2n/(zeta_n^k - 1) as integer power basis coefficients, by the closed form.

    For any w with w^n = 1 and w != 1, (w - 1) * sum_{j<n} j w^j = n, so
    2n/(zeta_n^k - 1) = sum_{j<n} 2j zeta_n^(jk) for every k that is not 0
    mod n, primitive or not.  The row is the numerators over 2n, the scale
    :func:`~ramcond.ramification.bisection` stores its tame values at, so
    the bisection holds these tuples as they are.

    Held per (n, k mod n) and filled on first request; like
    ``_ZETA_POWER_CACHE`` the cache is a pure idempotent map, and a level
    holds at most n - 1 rows of phi(n) integers.  Callers pass ``int``
    arguments: :func:`inverse_zeta_minus_one` checks them.
    """
    k %= n
    row = _TAME_ROW_CACHE.get((n, k))
    if row is None:
        if k == 0:
            raise ZeroDivisionError("zeta^k - 1 is zero for k = 0 mod n")
        row = tuple(_fold(n, ((j * k, 2 * j) for j in range(1, n))))
        _TAME_ROW_CACHE[n, k] = row
    return row


def inverse_zeta_minus_one(level, exponent):
    """1/(zeta_level^exponent - 1) in closed form, without inversion.

    The integer numerators over ``2 * level`` come from the held
    :func:`_inverse_zeta_minus_one_row`.  The level and the exponent must
    each be an ``int`` (a ``bool`` or a ``float`` is not).
    """
    _check_level(level)
    _check_int(exponent, "exponent")
    row = _inverse_zeta_minus_one_row(level, exponent)
    return CycloNum(level, tuple([Fraction(c, 2 * level) for c in row]))


def _as_fraction(x):
    """An ``int`` (not a ``bool``) or a ``Fraction`` as a ``Fraction``; all else is refused."""
    if type(x) is int or type(x) is Fraction:
        return Fraction(x)
    raise InputError(f"{x!r} is not an int or a Fraction")


def _check_level(level):
    """Refuse a level that is not a positive ``int`` (a ``bool`` or a ``float`` is not), naming it."""
    if type(level) is not int or level < 1:
        raise InputError(f"CycloNum level must be a positive int, got {level!r}")


def _check_int(x, what):
    """Refuse a value that is not an ``int`` (a ``bool`` or a ``float`` is not), naming it."""
    if type(x) is not int:
        raise InputError(f"{what} must be an int, got {x!r}")


class CycloNum:
    """An exact element of the cyclotomic field Q(zeta_N)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        _check_level(level)
        # a Fraction is immutable and already in lowest terms, so it is kept
        coeffs = tuple([c if type(c) is Fraction else _as_fraction(c) for c in coeffs])
        if len(coeffs) != euler_phi(level):
            raise InputError(
                f"CycloNum at level {level} needs {euler_phi(level)} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value, level=1):
        _check_level(level)
        phi = euler_phi(level)
        coeffs = (_as_fraction(value),) + (Fraction(0),) * (phi - 1)
        return cls(level, coeffs)

    @classmethod
    def zeta(cls, level, exponent=1):
        """zeta_level ** exponent, reduced into the power basis; the exponent must be an ``int``."""
        _check_level(level)
        _check_int(exponent, "zeta exponent")
        return cls(level, _fold(level, ((exponent, 1),)))

    # -- level bookkeeping --------------------------------------------------

    def embed(self, m):
        """Embed into Q(zeta_m) for a multiple m of the level; m is a level like any other."""
        _check_level(m)
        if m % self.level != 0:
            raise InputError(f"cannot embed level {self.level} into level {m}")
        if m == self.level:
            return self
        if self.level == 1:
            return CycloNum(m, self.coeffs + (0,) * (euler_phi(m) - 1))
        step = m // self.level
        return CycloNum(m, _fold(m, ((i * step, c) for i, c in enumerate(self.coeffs))))

    def _pair(self, other):
        """Both operands at the lcm level, or None when ``other`` is not a number.

        A number other than a ``CycloNum`` is read by :func:`_as_fraction`, so
        a ``bool``, a ``float`` or a ``complex`` is an InputError naming it.
        """
        if not isinstance(other, CycloNum):
            if not isinstance(other, Number):
                return None
            other = CycloNum.from_rational(other)
        m = lcm(self.level, other.level)
        return self.embed(m), other.embed(m)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloNum(a.level, tuple([x + y for x, y in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.level, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloNum(a.level, tuple([x - y for x, y in zip(a.coeffs, b.coeffs)]))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # a rational operand scales the coefficients of the other one
        if not isinstance(other, CycloNum):
            if not isinstance(other, Number):
                return NotImplemented
            q = _as_fraction(other)
            return CycloNum(self.level, tuple([c * q for c in self.coeffs]))
        if other.level == 1:
            q = other.coeffs[0]
            return CycloNum(self.level, tuple([c * q for c in self.coeffs]))
        if self.level == 1:
            q = self.coeffs[0]
            return CycloNum(other.level, tuple([q * c for c in other.coeffs]))
        a, b = self._pair(other)
        # exponents reach 2*phi - 2 and wrap through the table
        conv = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return CycloNum(a.level, _fold(a.level, enumerate(conv)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, CycloNum)):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def __bool__(self):
        return any(self.coeffs)

    # -- Galois operations ---------------------------------------------------

    def galois(self, k):
        """Apply the automorphism zeta -> zeta^k; k must be an ``int`` with gcd(k, level) = 1."""
        _check_int(k, "galois exponent")
        n = self.level
        if gcd(k % n, n) != 1:
            raise InputError(f"galois exponent {k} not a unit modulo {n}")
        return CycloNum(n, _fold(n, ((i * k, c) for i, c in enumerate(self.coeffs))))

    def conjugate(self):
        """The automorphism zeta -> zeta^(-1); involutive, fixes rationals."""
        if self.level <= 2:
            return self
        return self.galois(self.level - 1)

    def rational_part(self):
        """(True, value) when the element lies in Q, else (False, None)."""
        if any(c != 0 for c in self.coeffs[1:]):
            return False, None
        return True, self.coeffs[0]

    # -- display -------------------------------------------------------------

    def approx(self):
        """Double precision complex embedding zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.level)
        return sum(float(c) * z**i for i, c in enumerate(self.coeffs))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            unit = f"ζ_{self.level}" if i == 1 else f"ζ_{self.level}^{i}"
            if c == 1:
                term = unit
            elif c == -1:
                term = f"-{unit}"
            else:
                term = f"{c}*{unit}"
            parts.append(term)
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"CycloNum({self.level}, {self.coeffs})"
