"""Exact rational and cyclotomic arithmetic.

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator).  A :class:`CycloNum` is an element of Q(zeta_N) stored in the
power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic
polynomial, so equality is coefficient equality and rationality is an exact
test.  Arithmetic between different levels promotes both operands to the
least common multiple of their levels; levels are never reduced implicitly
(``reduced`` does that as an explicit normalization pass).

Decimal rendering embeds zeta_N at exp(2*pi*i/N) in double precision and is
for display only.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import InputError
from .linalg import solve, transpose

__all__ = [
    "CycloNum",
    "cyclotomic_polynomial",
    "euler_phi",
    "inverse_zeta_minus_one",
    "is_prime",
    "p_valuation",
]


def is_prime(n):
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


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, constant coefficient first


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )
    )


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = Fraction(1) / Fraction(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv_lead
        if coef:
            q[i] = coef
            for j, y in enumerate(b):
                a[i + j] -= coef * y
    return _trim(q), _trim(a)


def _pxgcd(a, b):
    """Extended gcd of polynomials over Q: returns (g, u, v) with u*a+v*b=g."""
    r0, r1 = _trim(a), _trim(b)
    u0, u1 = (Fraction(1),), ()
    v0, v1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _padd(u0, _pmul(tuple(-c for c in q), u1))
        v0, v1 = v1, _padd(v0, _pmul(tuple(-c for c in q), v1))
    return r0, u0, v0


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial as an integer coefficient tuple.

    Constant coefficient first; monic of degree phi(n).  Computed by exact
    division of X^n - 1 by the product of the lower cyclotomic polynomials,
    and memoized (the cache is a pure idempotent map).
    """
    if n < 1:
        raise InputError("cyclotomic_polynomial: n must be positive")
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 1:
        poly = (-1, 1)
    else:
        num = tuple(
            Fraction(-1) if i == 0 else Fraction(1) if i == n else Fraction(0)
            for i in range(n + 1)
        )
        den = (Fraction(1),)
        for d in range(1, n):
            if n % d == 0:
                den = _pmul(den, tuple(map(Fraction, cyclotomic_polynomial(d))))
        q, r = _pdivmod(num, den)
        if r:
            raise AssertionError("cyclotomic division left a remainder")
        if any(c.denominator != 1 for c in q):
            raise AssertionError("cyclotomic polynomial not integral")
        poly = tuple(int(c) for c in q)
    _CYCLOTOMIC_CACHE[n] = poly
    return poly


_ZETA_POWER_CACHE = {}


def _zeta_powers(n):
    """Integer coefficient vectors of x^m mod Phi_n for 0 <= m < n.

    Row m is the power basis expansion of zeta_n^m.  Memoized; like
    ``_CYCLOTOMIC_CACHE`` the cache is a pure idempotent map.
    """
    cached = _ZETA_POWER_CACHE.get(n)
    if cached is not None:
        return cached
    phi_n = cyclotomic_polynomial(n)
    row = [1] + [0] * (len(phi_n) - 2)
    rows = []
    for _ in range(n):
        rows.append(tuple(row))
        # multiply by x; Phi_n is monic, so x^phi = -(lower terms of Phi_n)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi_n)]
    table = tuple(rows)
    _ZETA_POWER_CACHE[n] = table
    return table


def inverse_zeta_minus_one(level, exponent):
    """1/(zeta_level^exponent - 1) in closed form, without inversion.

    For any w with w^n = 1 and w != 1, (w - 1) * sum_{j<n} j w^j = n, so
    1/(zeta_n^k - 1) = (1/n) * sum_{j<n} j zeta_n^(jk) for every k that is
    not 0 mod n, primitive or not.
    """
    n = level
    k = exponent % n
    if k == 0:
        raise ZeroDivisionError("zeta^k - 1 is zero for k = 0 mod n")
    table = _zeta_powers(n)
    acc = [0] * len(table[0])
    for j in range(1, n):
        for i, c in enumerate(table[(j * k) % n]):
            if c:
                acc[i] += j * c
    return CycloNum(n, tuple(Fraction(c, n) for c in acc))


def _reduce_mod_cyclotomic(poly, n):
    """Remainder of poly modulo Phi_n, padded to length phi(n)."""
    phi = euler_phi(n)
    _, r = _pdivmod(poly, tuple(map(Fraction, cyclotomic_polynomial(n))))
    return tuple(r[i] if i < len(r) else Fraction(0) for i in range(phi))


class CycloNum:
    """An exact element of the cyclotomic field Q(zeta_N)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        if level < 1:
            raise InputError("CycloNum level must be positive")
        coeffs = tuple(Fraction(c) for c in coeffs)
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
        phi = euler_phi(level)
        coeffs = (Fraction(value),) + (Fraction(0),) * (phi - 1)
        return cls(level, coeffs)

    @classmethod
    def zeta(cls, level, exponent=1):
        """zeta_level ** exponent, reduced into the power basis."""
        return cls(level, _zeta_powers(level)[exponent % level])

    # -- level bookkeeping --------------------------------------------------

    def embed(self, m):
        """Embed into Q(zeta_m) for a multiple m of the level."""
        if m % self.level != 0:
            raise InputError(f"cannot embed level {self.level} into level {m}")
        if m == self.level:
            return self
        if self.level == 1:
            return CycloNum(m, self.coeffs + (0,) * (euler_phi(m) - 1))
        step = m // self.level
        deg = (len(self.coeffs) - 1) * step if self.coeffs else 0
        poly = [Fraction(0)] * (deg + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] += c
        return CycloNum(m, _reduce_mod_cyclotomic(_trim(poly), m))

    def _pair(self, other):
        if isinstance(other, CycloNum):
            pass
        elif isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        else:
            return None
        m = lcm(self.level, other.level)
        return self.embed(m), other.embed(m)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloNum(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloNum(a.level, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # a rational operand scales the coefficients of the other one
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.level, tuple(c * other for c in self.coeffs))
        if isinstance(other, CycloNum):
            if other.level == 1:
                q = other.coeffs[0]
                return CycloNum(self.level, tuple(c * q for c in self.coeffs))
            if self.level == 1:
                q = self.coeffs[0]
                return CycloNum(other.level, tuple(q * c for c in other.coeffs))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloNum(
            a.level, _reduce_mod_cyclotomic(_pmul(a.coeffs, b.coeffs), a.level)
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi_n = tuple(map(Fraction, cyclotomic_polynomial(self.level)))
        g, u, _ = _pxgcd(_trim(self.coeffs), phi_n)
        if len(g) != 1:
            raise AssertionError("cyclotomic polynomial not coprime to nonzero element")
        scaled = tuple(c / g[0] for c in u)
        return CycloNum(self.level, _reduce_mod_cyclotomic(scaled, self.level))

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNum.from_rational(1, self.level)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.coeffs == b.coeffs

    __hash__ = None

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- Galois operations ---------------------------------------------------

    def galois(self, k):
        """Apply the automorphism zeta -> zeta^k; requires gcd(k, level) = 1."""
        n = self.level
        if gcd(k % n, n) != 1:
            raise InputError(f"galois exponent {k} not a unit modulo {n}")
        poly = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            poly[(i * k) % n] += c
        return CycloNum(n, _reduce_mod_cyclotomic(_trim(poly), n))

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

    def reduced(self):
        """Rewrite at the smallest cyclotomic level containing the element."""
        current = self
        changed = True
        while changed:
            changed = False
            n = current.level
            for q in sorted({d for d in range(2, n + 1) if n % d == 0 and is_prime(d)}):
                m = n // q
                if m < 1:
                    continue
                fixers = [k for k in range(1, n) if gcd(k, n) == 1 and k % m == 1 % m]
                if not all(current.galois(k) == current for k in fixers):
                    continue
                basis = [CycloNum.zeta(m, j).embed(n).coeffs for j in range(euler_phi(m))]
                coords = solve(transpose(basis), current.coeffs)
                current = CycloNum(m, coords)
                changed = True
                break
        return current

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
