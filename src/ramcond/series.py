"""Truncated arithmetic in mixed power series rings over a p-adic base.

A ring spec fixes a prime p, a block of formal ("open disc") variables, a
block of power-bounded ("closed disc") variables and a total-degree cap D.
Series store exact rational coefficients indexed by exponent multi-indices of
total degree <= D; terms of higher degree are unknown and discarded.  Because
the grading is by total degree, ring operations are exact on the whole
window: degree-> D tails can never contribute to degree-<= D coefficients.

Coefficients may be any rationals; the coefficient's p-valuation is what the
Gauss/lattice valuation sees, and p-integrality (valuation >= 0) is the
lattice membership criterion.  Prime-to-p denominators are legitimate p-adic
integers and do occur, e.g. in multiplicative-group endomorphisms [r] with r
a p-integral rational.

A series is its integer form (see :class:`MixedSeries`): one denominator and
integer numerators grouped by total degree, in lowest terms.  Series compare
by their forms, and the ``Fraction`` coefficients are a view for display and
checks.  One loop, :func:`_mul_forms`, multiplies two forms, visiting only
degree pairs d1 + d2 <= D, for products, powers and substitution; one loop,
:func:`_accumulate`, adds them, for sums, scalar multiples, substitution,
[r](f) and the Weierstrass quotient; :func:`_lowest_terms` reduces every
result.  The Gauss valuation of a form is v_p(g) - v_p(den), g the gcd of
its numerators.  Weierstrass division by f = a + z^n b, deg_z a < n, works
on forms from start to end, and :func:`_solve` is its one triangular
solver.  The quotient solves b q + H(a q) = H(g), H the terms of z-degree
>= n divided by z^n, with a product kept iff its degree before H is at
most D.  When every term of a has positive degree outside z, that system
is triangular in the weight deg_z + (n + 1) (degree - deg_z), so it has
exactly one solution and one solve gives it; otherwise a successive
approximation solves by the unit b alone.  The division multiplies by a
only through :func:`_mul_z_part`, the twin of :func:`_z_part` that
multiplies just the term pairs landing in the part it keeps: H(a delta)
at each step, and low(q a) for the remainder low(g) - low(q a).  Every
power (1 + u)^r of a series u with u(0) = 0 comes from one recurrence,
degree by degree, in :func:`endo_apply`: [r](f) and the expansion [r](T) of
:func:`mult_endo`.

Budgets: the degree cap D is at most DEGREE_CAP_BOUND = 32, the valuation
bound of Weierstrass division lies in 1..VAL_BOUND_MAX = 256, an exponent
``^k`` in a series expression has |k| <= EXPONENT_BOUND = 256 and its
parentheses nest at most NESTING_BOUND = 64 deep; anything else raises
InputError.  Coefficients given to the public constructor must be int
or Fraction and exponents non-negative ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, inf, lcm
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .errors import CheckFailure, InputError
from .exact import is_prime, p_valuation

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "DEGREE_CAP_BOUND",
    "VAL_BOUND_MAX",
    "EXPONENT_BOUND",
    "NESTING_BOUND",
    "SeriesRingSpec",
    "MixedSeries",
    "gauss_valuation",
    "is_lattice_member",
    "dilatation_member",
    "is_distinguished",
    "weierstrass_divide",
    "WeierstrassResult",
    "mult_endo",
    "endo_apply",
    "endo_to_scalar",
    "substitute",
    "symmetric_descent",
]


DEFAULT_DEGREE_CAP = 16
DEGREE_CAP_BOUND = 32
VAL_BOUND_MAX = 256
EXPONENT_BOUND = 256
NESTING_BOUND = 64  # the expression parser recurses once per open parenthesis


@dataclass(frozen=True)
class SeriesRingSpec:
    """Shape of a mixed power series ring: prime, variable blocks, degree cap."""

    p: int
    s_vars: tuple = ()
    t_vars: tuple = ()
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        if type(self.p) is not int:
            raise InputError(f"ring prime {self.p!r} is not an integer")
        for block in (self.s_vars, self.t_vars):
            if type(block) not in (tuple, list):
                raise InputError(f"variable block {block!r} is not a tuple of names")
            for name in block:
                if type(name) is not str:
                    raise InputError(f"variable name {name!r} is not a str")
        object.__setattr__(self, "s_vars", tuple(self.s_vars))
        object.__setattr__(self, "t_vars", tuple(self.t_vars))
        if not is_prime(self.p):
            raise InputError(f"ring prime {self.p} is not prime")
        cap = self.degree_cap
        if type(cap) is not int or not 1 <= cap <= DEGREE_CAP_BOUND:
            raise InputError(
                f"degree cap must be an integer in 1..{DEGREE_CAP_BOUND}, got {cap!r}"
            )
        names = self.s_vars + self.t_vars
        if len(set(names)) != len(names):
            raise InputError("variable names must be pairwise distinct")

    @property
    def variables(self):
        return self.s_vars + self.t_vars

    def index_of(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None


_ONE = (1, [(0, {0: 1})])  # the form of the constant 1


class MixedSeries:
    """A truncated series, held as its integer form.

    Series are immutable.  ``_form`` is (den, buckets): den > 0, and
    ``buckets`` lists (d, {key: n}) for each total degree d that has a term,
    in ascending order, where n/den is the nonzero coefficient of the
    exponent packed in key: the exponent of variable i is digit i of key in
    base cap + 1, so adding two keys whose degrees sum to at most cap adds
    the exponents.  gcd(den, every n) = 1, so the form is canonical and
    ``==`` compares forms.  ``coeffs`` (exponent multi-index -> nonzero
    ``Fraction``) is a read-only view, built from the form on first read.
    """

    __slots__ = ("ring", "_form", "_coeffs")

    def __init__(self, ring, coeffs):
        """Read user input: int or Fraction coefficients keyed by int tuples.

        Zero coefficients and terms beyond the degree cap are dropped.
        """
        nvars = len(ring.variables)
        cap = ring.degree_cap
        cleaned = {}
        for expo, c in coeffs.items():
            if not (
                type(expo) is tuple
                and len(expo) == nvars
                and all(type(e) is int and e >= 0 for e in expo)
            ):
                raise InputError(f"bad exponent multi-index {expo!r}")
            if type(c) not in (int, Fraction):
                raise InputError(f"series coefficient {c!r} is not an int or Fraction")
            if c != 0 and sum(expo) <= cap:
                cleaned[expo] = Fraction(c)
        # Over the lcm of reduced denominators the numerators are coprime to den.
        den = lcm(*[c.denominator for c in cleaned.values()])
        groups = {}
        for expo, c in cleaned.items():
            key = 0
            for e in reversed(expo):
                key = key * (cap + 1) + e
            groups.setdefault(sum(expo), {})[key] = c.numerator * (den // c.denominator)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_form", (den, sorted(groups.items())))
        object.__setattr__(self, "_coeffs", MappingProxyType(cleaned))

    @classmethod
    def _from_form(cls, ring, form):
        """Wrap a form that meets the class invariants; it is kept, not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "_coeffs", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MixedSeries is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls._from_form(ring, (1, []))

    @classmethod
    def const(cls, ring, value):
        return cls(ring, {(0,) * len(ring.variables): value})

    @classmethod
    def variable(cls, ring, name):
        key = (ring.degree_cap + 1) ** ring.index_of(name)
        return cls._from_form(ring, (1, [(1, {key: 1})]))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def coeffs(self):
        view = self._coeffs
        if view is None:
            den, buckets = self._form
            base = self.ring.degree_cap + 1
            nvars = len(self.ring.variables)
            view = MappingProxyType(
                {
                    _exponent(k, base, nvars): Fraction(n, den)
                    for _, terms in buckets
                    for k, n in terms.items()
                }
            )
            object.__setattr__(self, "_coeffs", view)
        return view

    def terms(self):
        """Deterministically ordered (exponent, coefficient) pairs."""
        return tuple(sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    def is_zero(self):
        return not self._form[1]

    def __bool__(self):
        return bool(self._form[1])

    def constant_term(self):
        den, buckets = self._form
        if buckets and buckets[0][0] == 0:
            return Fraction(buckets[0][1][0], den)
        return Fraction(0)

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise InputError("series ring spec mismatch")

    # -- arithmetic ----------------------------------------------------------

    def _add(self, a, other, b):
        """a * self + b * other for a series or scalar ``other``."""
        if isinstance(other, (int, Fraction)):
            other = MixedSeries.const(self.ring, other)
        if not isinstance(other, MixedSeries):
            return NotImplemented
        self._check_ring(other)
        form = _combine(self.ring.degree_cap, [(a, self._form), (b, other._form)])
        return MixedSeries._from_form(self.ring, form)

    def __add__(self, other):
        return self._add(1, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._add(1, other, -1)

    def __rsub__(self, other):
        return self._add(-1, other, 1)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            return MixedSeries._from_form(ring, _combine(ring.degree_cap, [(other, self._form)]))
        if not isinstance(other, MixedSeries):
            return NotImplemented
        self._check_ring(other)
        form = _lowest_terms(*_mul_forms(ring.degree_cap, self._form, other._form))
        return MixedSeries._from_form(ring, form)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int:
            raise InputError(f"series exponent {k!r} is not an integer")
        if k < 0:
            raise InputError("negative series power")
        out = MixedSeries.const(self.ring, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MixedSeries):
            return NotImplemented
        return self.ring == other.ring and self._form == other._form

    __hash__ = None

    def __str__(self):
        return render_series(self)

    def __repr__(self):
        return f"MixedSeries({self.ring!r}, {dict(self.terms())!r})"


def _exponent(key, base, nvars):
    """The exponent multi-index packed in ``key``: its nvars digits in ``base``."""
    expo = []
    for _ in range(nvars):
        expo.append(key % base)
        key //= base
    return tuple(expo)


def _mul_forms(cap, fa, fb):
    """The product of two forms as (den, groups).

    This is the one series product loop.  It visits only the degree bucket
    pairs d1 + d2 <= cap and adds integer products into the group of degree
    d1 + d2: ``groups[d]`` is {key: numerator} for the keys of degree d, or
    None where no pair lands, for d in 0..cap.  A group is looked up once
    per term of fa and bucket of fb, not per term pair.  Numerators that
    cancel to zero stay in the groups.  Weierstrass division multiplies by
    its restricted twin, :func:`_mul_z_part`, instead.
    """
    den_a, buckets_a = fa
    den_b, buckets_b = fb
    buckets_b = [(d2, terms2.items()) for d2, terms2 in buckets_b]
    groups = [None] * (cap + 1)
    for d1, terms1 in buckets_a:
        for k1, n1 in terms1.items():
            for d2, terms2 in buckets_b:
                d = d1 + d2
                if d > cap:
                    break
                out = groups[d]
                if out is None:
                    out = groups[d] = {}
                for k2, n2 in terms2:
                    k = k1 + k2
                    out[k] = out.get(k, 0) + n1 * n2
    return den_a * den_b, groups


def _combine(cap, pairs):
    """The form of the sum of c f over ``pairs`` (c, f) of an int or
    Fraction c and a form f, which need not be in lowest terms.

    The sum is taken over the lcm of the denominators of the c f, added by
    :func:`_accumulate` and reduced by :func:`_lowest_terms`.
    """
    den = lcm(*[c.denominator * d for c, (d, _) in pairs])
    groups = [None] * (cap + 1)
    for c, (d, buckets) in pairs:
        _accumulate(groups, c.numerator * (den // (c.denominator * d)), buckets)
    return _lowest_terms(den, groups)


def _accumulate(groups, w, buckets):
    """Add w times the numerators ``buckets`` of a form into ``groups``, in
    place; ``groups`` is indexed by degree as :func:`_mul_forms` returns it.

    This is the one series addition loop.
    """
    for d, terms in buckets:
        out = groups[d]
        if out is None:
            groups[d] = {k: w * n for k, n in terms.items()}
            continue
        get = out.get
        for k, n in terms.items():
            out[k] = get(k, 0) + w * n


def _lowest_terms(den, groups, sign=1):
    """The form of ``sign`` (1 or -1) times the numerators ``groups`` over den > 0.

    ``groups`` is indexed by degree as :func:`_mul_forms` returns it, and
    it is owned by the call: every caller passes dicts it has just built,
    and the form may keep them.  den and every numerator are divided by
    their gcd, and zero numerators and empty degrees are dropped.  Zero is
    (1, []).  At den == 1 the gcd is 1 and is not taken: a degree's dict is
    kept as it is when sign is 1 and it holds no zero, and is rebuilt once
    otherwise.
    """
    if den == 1:
        buckets = []
        for d, terms in enumerate(groups):
            if terms:
                if sign != 1 or 0 in terms.values():
                    terms = {k: sign * c for k, c in terms.items() if c}
                    if not terms:
                        continue
                buckets.append((d, terms))
        return (1, buckets)
    g = 0
    for terms in groups:
        if terms:
            g = gcd(g, *terms.values())
    if not g:
        return (1, [])
    h = gcd(den, g)
    s = sign * h
    buckets = []
    for d, terms in enumerate(groups):
        if terms:
            terms = {k: c // s for k, c in terms.items() if c}
            if terms:
                buckets.append((d, terms))
    return (den // h, buckets)


def render_series(f):
    if f.is_zero():
        return "0"
    names = f.ring.variables
    parts = []
    for expo, c in f.terms():
        factors = []
        for name, e in zip(names, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# ---------------------------------------------------------------------------
# valuations and lattice membership


def _valuation(p, den, buckets):
    """The least p-valuation of a coefficient n/den in ``buckets``:
    v_p(g) - v_p(den), g the gcd of the numerators n; +infinity for none."""
    g = 0
    for _, terms in buckets:
        g = gcd(g, *terms.values())
    return p_valuation(g, p) - p_valuation(den, p)


def _valuation_at_least(p, den, buckets, v):
    """Whether ``_valuation(p, den, buckets) >= v``, decided without the
    gcd: whether p^(v + v_p(den)) divides every numerator, which always
    holds for an exponent <= 0."""
    e = v + p_valuation(den, p)
    if e <= 0:
        return True
    m = p**e
    return not any(c % m for _, terms in buckets for c in terms.values())


def gauss_valuation(f):
    """Minimum p-valuation over stored coefficients; +infinity for zero."""
    return _valuation(f.ring.p, *f._form)


def is_lattice_member(f):
    """True iff f lies in the distinguished integral lattice (valuation >= 0)."""
    return gauss_valuation(f) >= 0


def dilatation_member(f, n):
    """Coefficient criterion for the n-th dilatation lattice of the open disc.

    Requires a pure formal-variable ring (no power-bounded block).  A term
    with exponent multi-index m belongs iff its coefficient valuation is at
    least -floor(|m| / (n+1)); the terms of one degree are tested at once,
    by the valuation of their bucket.
    """
    if f.ring.t_vars:
        raise InputError("dilatation membership needs a ring without T-variables")
    if type(n) is not int or n < 0:
        raise InputError(f"dilatation index must be a natural number, got {n!r}")
    p = f.ring.p
    den, buckets = f._form
    return all(_valuation(p, den, [bucket]) >= -(bucket[0] // (n + 1)) for bucket in buckets)


# ---------------------------------------------------------------------------
# distinguished series and Weierstrass division


def is_distinguished(f, z):
    """Reduce modulo (p, all non-z variables); test for a nonzero non-unit.

    Returns (True, residual_order) when the reduction in the residue series
    ring has a positive, finite order within the window; (False, None)
    otherwise.  Series outside the integral lattice are never distinguished.
    A lattice member has a denominator prime to p, so a coefficient is a
    unit iff p does not divide its numerator; the pure z^d term has the key
    d * base**zi.
    """
    zi = f.ring.index_of(z)
    p = f.ring.p
    if not is_lattice_member(f):
        return False, None
    unit = (f.ring.degree_cap + 1) ** zi
    for d, terms in f._form[1]:
        if terms.get(d * unit, 0) % p:
            return (True, d) if d else (False, None)
    return False, None


class WeierstrassResult(NamedTuple):
    q: MixedSeries
    r: MixedSeries
    certified_valuation: object  # int or math.inf when the division is exact


def _z_part(cap, zi, n, parts, high):
    """The terms of z-degree below n, or at least n if ``high``, of the
    numerators ``parts``, z the variable ``zi``.

    ``parts`` yields (d, {key: numerator} or None) by degree d.  The result
    is indexed by degree as :func:`_mul_forms` returns it.  High terms are
    divided by z^n: the z digit of a key, key // base**zi % base, loses n,
    and so does the degree.
    """
    base = cap + 1
    unit = base**zi
    shift, drop = (n * unit, n) if high else (0, 0)
    groups = [None] * (cap + 1)
    for d, terms in parts:
        if terms and d >= drop:
            groups[d - drop] = {
                k - shift: c for k, c in terms.items() if (k // unit % base >= n) == high
            }
    return groups


def _mul_z_part(cap, zi, n, fa, fb, high):
    """The terms of z-degree below n, or at least n if ``high``, of the
    product of the forms fa and fb, z the variable ``zi``: the product twin
    of :func:`_z_part`, multiplying only the term pairs that land there.

    A pair of terms is kept iff its degree is at most cap, as in
    :func:`_mul_forms`, and its z-degree e1 + e2 is below n, or at least n
    if ``high``; high products are written divided by z^n.  The terms of fa
    are taken by z-degree e1, and for each e1 the terms of fb that pair
    with them are picked once, by one comparison per term: the z-degree of
    a key k is at least e iff k % base**(zi + 1) >= e * base**zi.  A group
    is looked up once per pair of buckets.  Returns (den_a den_b, buckets)
    with a bucket for each degree that a pair reaches: not in lowest terms,
    and numerators that cancel to zero stay.  Weierstrass division passes
    its short factor, a, first.
    """
    base = cap + 1
    unit = base**zi
    top = unit * base
    shift, drop = (n * unit, n) if high else (0, 0)
    parts = {}  # e1 -> {d1: {key: numerator}}
    for d, terms in fa[1]:
        for k, c in terms.items():
            parts.setdefault(k % top // unit, {}).setdefault(d, {})[k - shift] = c
    groups = [None] * (cap + 1)
    for e1, part in parts.items():
        bound = (n - e1) * unit
        room = cap - min(part)
        kept = [
            (d2, [(k, c) for k, c in terms2.items() if (k % top >= bound) == high])
            for d2, terms2 in fb[1]
            if d2 <= room
        ]
        for d1, terms1 in part.items():
            for d2, terms2 in kept:
                d = d1 + d2
                if d > cap:
                    break
                if not terms2:
                    continue
                out = groups[d - drop]
                if out is None:
                    out = groups[d - drop] = {}
                for k1, n1 in terms1.items():
                    for k2, n2 in terms2:
                        k = k1 + k2
                        out[k] = out.get(k, 0) + n1 * n2
    return fa[0] * fb[0], [(d, terms) for d, terms in enumerate(groups) if terms is not None]


def weierstrass_divide(g, f, z, val_bound=32):
    """Divide g by a z-distinguished f: g = q*f + r with deg_z r < order(f).

    Write f = a + z^n b, deg_z a < n, and let H keep the terms of z-degree
    >= n and divide them by z^n.  Then r is the low part of g - q f, and q
    solves b q + H(a q) = H(g), truncated at the cap as a product is: a
    term of b q or a q is kept iff its degree, before H, is at most the cap.
    The division decides once, by the low part a, how to solve it.

    If no term of a is a pure power of z (every low term has positive
    degree in the non-z variables: f is "S-exact"), grade the terms by the
    weight w = deg_z + (n + 1) (degree - deg_z).  Every term of b of
    positive degree, and every term of H(a .), raises w by at least 1, so
    the truncated system is triangular in w with the unit constant term of
    b on its diagonal, and has exactly one solution.  :func:`_solve` takes
    a as well as b and gives q by one forward substitution: the division is
    exact and certified_valuation = +inf, whatever val_bound is.

    Otherwise a, read as -a once, goes into a successive approximation: the
    loop starts from the solution delta of b delta = H(g), q = delta, and
    steps to the solution of b delta = H(-a delta), q <- q + delta.  A step
    is one restricted product (:func:`_mul_z_part`), which multiplies only
    the term pairs of (-a) delta that H keeps and writes them divided by
    z^n, and one solve by the unit b, which takes that product as it is and
    reduces its own result; there is no negation in between, and b^-1,
    dense in the window, is never formed.  The corrections gain at least
    one unit of combined (p-adic + non-z degree) weight per step, so the
    loop stops once the correction either vanishes inside the window
    (exact division, certified_valuation = +inf) or has Gauss valuation
    >= val_bound (the certified p-adic precision of the reported pair),
    that is once p^(val_bound + v_p(den)) divides each of its numerators.
    Where it ends on a zero correction, its q solves the truncated system.
    The loop never builds a series: the forms it multiplies are in lowest
    terms, q accumulates in place, per degree, over the lcm of the
    denominators of the deltas, and q becomes a series once, at the end.

    On both paths r = low(g) - low(q a), low the terms of z-degree below n,
    with low(q a) the other half of the restricted product: every term of
    z^n q b has z-degree >= n, so g - q f is never formed.

    val_bound must be an integer in 1..VAL_BOUND_MAX.
    """
    if type(val_bound) is not int or not 1 <= val_bound <= VAL_BOUND_MAX:
        raise InputError(f"val_bound must be an integer in 1..{VAL_BOUND_MAX}, got {val_bound!r}")
    if g.ring != f.ring:
        raise InputError("series ring spec mismatch")
    ok, n = is_distinguished(f, z)
    if not ok:
        raise InputError(f"divisor is not distinguished in {z}")
    ring = f.ring
    cap = ring.degree_cap
    zi = ring.index_of(z)
    unit = (cap + 1) ** zi
    den_f, buckets_f = f._form
    low = _z_part(cap, zi, n, buckets_f, False)
    b = _lowest_terms(den_f, _z_part(cap, zi, n, buckets_f, True))
    den_g, buckets_g = g._form
    y = _lowest_terms(den_g, _z_part(cap, zi, n, buckets_g, True))
    certified = inf
    s_exact = all(d * unit not in terms for d, terms in buckets_f if d < n)
    a_sign = 1 if s_exact else -1  # the loop multiplies by -a
    a = _lowest_terms(den_f, low, a_sign)
    if s_exact:
        q = _solve(cap, b, y, a, zi, n)
    else:
        delta = _solve(cap, b, y)
        q_den, q = 1, [None] * (cap + 1)
        headroom = max(0, -gauss_valuation(g))
        max_iter = val_bound + 2 * cap + headroom + 64
        # Step i adds the delta of step i to q; the loop's product and solve
        # give the next one.  The first delta is q's start, not a correction.
        for i in range(max_iter + 1):
            den, buckets = delta
            if not buckets:
                break
            new_den = lcm(q_den, den)
            if new_den != q_den:
                scale = new_den // q_den
                q = [terms and {k: c * scale for k, c in terms.items()} for terms in q]
                q_den = new_den
            _accumulate(q, q_den // den, buckets)
            if i and _valuation_at_least(ring.p, den, buckets, val_bound):
                certified = val_bound
                break
            if i == max_iter:
                raise CheckFailure("weierstrass division failed to stabilize")
            delta = _solve(cap, b, _mul_z_part(cap, zi, n, a, delta, True))
        q = _lowest_terms(q_den, q)

    # r = low(g) - low(q a): every term of z^n q b has z-degree >= n
    low_g = [(d, terms) for d, terms in enumerate(_z_part(cap, zi, n, buckets_g, False)) if terms]
    low_qa = _mul_z_part(cap, zi, n, a, q, False)
    r = _combine(cap, [(1, (den_g, low_g)), (-a_sign, low_qa)])
    q, r = MixedSeries._from_form(ring, q), MixedSeries._from_form(ring, r)
    return WeierstrassResult(q, r, certified)


def _weight(i, base, m):
    """The weight (m + 1) d - m e of the cell i = d + base * e (see :func:`_cells`)."""
    return (m + 1) * (i % base) - m * (i // base)


def _cells(buckets, unit, base, m):
    """The terms of ``buckets`` as cells (i, {key: numerator}) in the order of
    their weight (:func:`_weight`).  For m > 0 a cell holds the keys of
    degree d and z-degree e, z the digit of weight ``unit`` in ``base``, and
    i = d + base * e; for m = 0 it is a whole degree d, i = d is its weight,
    and the buckets are the cells."""
    if not m:
        return buckets
    cells = {}
    for d, terms in buckets:
        for k, c in terms.items():
            cells.setdefault(d + base * (k // unit % base), {})[k] = c
    return sorted(cells.items(), key=lambda cell: _weight(cell[0], base, m))


def _solve(cap, fb, fy, fa=(1, ()), zi=0, n=0):
    """The solution x of b x + H(a x) = y, truncated at degree cap.

    b, y and a are forms, b with a nonzero constant term; y need not be in
    lowest terms and may hold zero numerators, since the result is reduced
    once.  H keeps the terms of z-degree >= n, z the variable ``zi``, and
    divides them by z^n.  A term of b x or of a x is kept iff its degree,
    before H, is at most cap, and x has the terms of degree <= cap.  a is
    empty (the solve by the unit b alone), or each of its terms has z-degree
    below n and positive degree in the other variables.  Returns the form
    of x in lowest terms.

    Grade the terms by the weight w = (m + 1) d - m e of degree d and
    z-degree e, with m = n if a has terms and m = 0 (w = d) otherwise.  A
    term of b of degree k >= 1 raises w by at least k, and a term of a of
    degree e' + s, s >= 1 outside z, raises it by (n + 1) s + e' - n >= 1
    after H.  So x -> b x + H(a x) is n0/den times the identity plus a map
    that strictly raises w, n0/den the constant term of b over a common
    denominator den of a and b, and the truncated system is triangular in
    w: it has exactly one solution, which forward substitution gives.  Let
    lo be the lowest weight of y, and N_k and Y_w the numerators of the part
    of the map raising w by k and of the weight-w part of y.  Weight by
    weight,

        X_w = n0^(w - lo) Y_w - sum_(k >= 1) n0^(k - 1) N_k X_(w - k),

    and x has the numerators X_w den n0^(top - w) over den_y
    n0^(top - lo + 1), top = (m + 1) cap the highest weight.  The terms are
    held in cells of one degree and, if m > 0, one z-degree (:func:`_cells`),
    so the truncation and H are decided per pair of cells, not per pair of
    terms; with a empty the cells are the degrees and the loop is the
    degree-ordered substitution by b.  In weight order each cell adds its
    products into the cells it reaches.  Each X_(w - k) meets the terms of
    N_k only: a sparse b costs as many term pairs as it has terms, where
    b^-1 is dense in the window.  When n0 is 1 after the sign flip, X_w
    starts from a copy of Y_w, and den = 1 too leaves no scaling to do.
    """
    den_b, buckets_b = fb
    den_y, buckets_y = fy
    if not buckets_y:
        return (1, [])
    den_a, buckets_a = fa
    m = n if buckets_a else 0
    base = cap + 1
    unit = base**zi
    den = lcm(den_a, den_b)
    n0 = buckets_b[0][1][0] * (den // den_b)  # degree 0 holds the one key 0
    flip = -1 if n0 < 0 else 1  # x = -(y / -b) keeps the denominator positive
    n0 *= flip
    # The cell (d, e) is xs[d + base * e].  An op (reach, de, step, c, terms)
    # adds c times its terms times the cell of id i into the cell of id
    # i + step, for a cell (d, e) with d + reach <= cap and e + de >= 0.  It
    # raises the weight by k, and c is -n0^(k - 1) with the flip, times the
    # factor that brings its terms over den.
    ops = []
    for i, terms in _cells(buckets_b[1:], unit, base, m):
        k = _weight(i, base, m)
        ops.append((i % base, i // base, i, -flip * (den // den_b) * n0 ** (k - 1), terms.items()))
    if m:
        for i, terms in _cells(buckets_a, unit, base, m):  # H shifts a x down by z^n
            k = _weight(i, base, m) - n
            c = -flip * (den // den_a) * n0 ** (k - 1)
            terms = [(key - n * unit, v) for key, v in terms.items()]
            ops.append((i % base, i // base - n, i - n * (base + 1), c, terms))
        ops.sort(key=itemgetter(0))
    ys = _cells(buckets_y, unit, base, m)
    lo = _weight(ys[0][0], base, m)
    top = (m + 1) * cap
    xs = [None] * (base * base if m else base)
    for i, terms in ys:
        if n0 == 1:
            xs[i] = dict(terms)  # a copy: the cells are written to below
        else:
            power = n0 ** (_weight(i, base, m) - lo)
            xs[i] = {k: power * c for k, c in terms.items()}
    if m:  # the cells of weight w: s = d - e outside z, d = w - m s <= cap, e >= 0
        order = [
            (d + base * (d - s), d, d - s)
            for w in range(lo, top + 1)
            for s in range(max(0, -((cap - w) // m)), w // (m + 1) + 1)
            for d in (w - m * s,)
        ]
    else:
        order = zip(range(lo, base), range(lo, base), repeat(0))
    for i, d, e in order:
        x = xs[i]
        if x is None:
            continue
        x = x.items()
        for reach, de, step, wk, terms in ops:
            if d + reach > cap:
                break
            if e + de < 0:
                continue
            acc = xs[i + step]
            if acc is None:
                acc = xs[i + step] = {}
            for k1, n1 in terms:
                c1 = wk * n1
                for k2, n2 in x:
                    key = k1 + k2
                    acc[key] = acc.get(key, 0) + c1 * n2
    if den != 1 or n0 != 1:
        for i, terms in enumerate(xs):
            if terms is not None:
                scale = den * n0 ** (top - _weight(i, base, m))
                xs[i] = {key: c * scale for key, c in terms.items()}
    groups = xs
    if m:
        groups = [None] * base
        for i, terms in enumerate(xs):
            if terms is not None:
                d = i % base
                if groups[d] is None:
                    groups[d] = terms
                else:
                    groups[d].update(terms)
    return _lowest_terms(den_y * n0 ** (top - lo + 1), groups, flip)


# ---------------------------------------------------------------------------
# formal multiplicative group endomorphisms


def mult_endo(r, ring):
    """The endomorphism [r]: T -> (1 + T)^r - 1 of the formal multiplicative group.

    r must be a p-integral rational (a p-adic integer presented exactly); the
    expansion coefficients are then p-adic integers too, which is asserted.
    The series is :func:`endo_apply` of r on the variable T.
    """
    if len(ring.variables) != 1:
        raise InputError("mult_endo needs a single-variable ring")
    out = endo_apply(r, MixedSeries.variable(ring, ring.variables[0]))
    if not is_lattice_member(out):
        raise CheckFailure("binomial coefficient of a p-adic integer not integral")
    return out


def endo_apply(r, f):
    """Evaluate the endomorphism [r] on a series with zero constant term.

    [r](f) = g - 1 with g = (1 + f)^r.  The Euler operator E, which
    multiplies the degree-d part by d, gives (1 + f) E(g) = r g E(f), so the
    degree-n parts satisfy g_n = sum_(k=1..n) ((r + 1) k - n) f_k g_(n-k) / n
    with g_0 = 1.  Each g_n is kept as integer numerators over one
    denominator, like a form, so the whole evaluation costs about one
    product f * g, whatever r is; :func:`_combine` sums the g_n.  r must be
    an int or a Fraction.
    """
    if type(r) not in (int, Fraction):
        raise InputError(f"endomorphism scalar {r!r} is not an int or Fraction")
    if f.constant_term() != 0:
        raise InputError("endo_apply needs a series with zero constant term")
    ring = f.ring
    if p_valuation(r, ring.p) < 0:
        raise InputError(f"{r} is not a p-adic integer for p={ring.p}")
    cap = ring.degree_cap
    den_f, buckets = f._form
    a, b = (r + 1).numerator, (r + 1).denominator
    parts = [(1, {0: 1})]  # parts[m] = (den, {packed key: numerator}) of g_m
    for n in range(1, cap + 1):
        pairs = [(k, terms, parts[n - k]) for k, terms in buckets if k <= n and parts[n - k][1]]
        den = lcm(*[d for _, _, (d, _) in pairs])
        acc = {}
        get = acc.get
        for k, terms, (d, numerators) in pairs:
            w = (a * k - n * b) * (den // d)
            for k1, n1 in terms.items():
                c1 = w * n1
                for k2, n2 in numerators.items():
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * n2
        acc = {key: v for key, v in acc.items() if v}
        den *= n * b * den_f
        g = gcd(den, *acc.values())
        parts.append((den // g, {key: v // g for key, v in acc.items()}))
    sums = [(1, (d, [(n, numerators)])) for n, (d, numerators) in enumerate(parts) if n]
    return MixedSeries._from_form(ring, _combine(cap, sums))


def endo_to_scalar(e):
    """Recognize a series as [r] and return r; reject non-endomorphisms."""
    if len(e.ring.variables) != 1:
        raise InputError("endo_to_scalar needs a single-variable ring")
    if e.constant_term() != 0:
        raise InputError("endomorphisms have zero constant term")
    den, buckets = e._form
    if not buckets:
        return Fraction(0)
    d, terms = buckets[0]
    if d != 1:
        raise CheckFailure("no linear term: only [0] = 0 lacks one")
    r = Fraction(terms[1], den)  # T has the key 1
    if p_valuation(r, e.ring.p) < 0:
        raise CheckFailure("linear coefficient is not a p-adic integer")
    if e != mult_endo(r, e.ring):
        raise CheckFailure("series does not match [r] within the window")
    return r


# ---------------------------------------------------------------------------
# substitution and symmetric descent generators


def substitute(f, images):
    """Substitute variables by series with zero constant term (exact on window).

    A term n/den of f becomes n times the product of the powers of the
    images over den.  The powers are products of forms, held per variable
    in the tables of :func:`_power_caches`, and :func:`_substitute` sums
    the terms.
    """
    return _substitute(f, _power_caches(f.ring, images))


def _power_caches(ring, images):
    """The power tables of a substitution dict, after checking it.

    Every name must be a variable of ``ring`` and every image a series of
    ``ring`` with zero constant term.  ``tables[i][e]`` is the form of the
    e-th power of the image of variable i (the variable itself where
    ``images`` has none); each table starts with e = 0 and 1, and
    :func:`_substitute` extends it as far as it needs, so a table passed to
    several substitutions computes each power once.
    """
    for name, img in images.items():
        ring.index_of(name)
        if img.ring != ring:
            raise InputError("substitution image in a different ring")
        if img.constant_term() != 0:
            raise InputError("substitution images must have zero constant term")
    return [
        [_ONE, images[name]._form if name in images else MixedSeries.variable(ring, name)._form]
        for name in ring.variables
    ]


def _substitute(f, powers):
    """f with each variable replaced by its image, from the power tables of
    :func:`_power_caches` on f's ring; the tables grow in place."""
    ring = f.ring
    cap = ring.degree_cap
    den, buckets = f._form
    pairs = []
    for _, terms in buckets:
        for k, n in terms.items():
            term = _ONE
            for cache, e in zip(powers, _exponent(k, cap + 1, len(powers))):
                if e:
                    while len(cache) <= e:
                        cache.append(_lowest_terms(*_mul_forms(cap, cache[-1], cache[1])))
                    power = cache[e]
                    term = power if term is _ONE else _lowest_terms(*_mul_forms(cap, term, power))
            pairs.append((n, (den * term[0], term[1])))
    return MixedSeries._from_form(ring, _combine(cap, pairs))


def symmetric_descent(group, action):
    """Elementary symmetric polynomials of variable orbits under a group action.

    ``action`` maps every element id of ``group`` to a substitution dict
    (variable name -> series with zero constant term).  The action must be a
    homomorphism of ring substitutions, which is verified within the window.
    For each variable the |group| elementary symmetric polynomials
    of its orbit multiset are returned; each output is checked to be fixed by
    every substitution.

    The check is sigma_1 = id and sigma_ab = sigma_a o sigma_b for every a
    and every b in ``group.generating_set()``; each sigma is a ring
    endomorphism of the window, so composition is associative.  That
    suffices by induction on a word for c: for c = c's, sigma_ac =
    sigma_ac' o sigma_s = sigma_a o sigma_c' o sigma_s = sigma_a o sigma_c.
    The same induction lets the generators prove an output u fixed: if
    sigma_c'(u) = u and sigma_s(u) = u, then sigma_c's(u) =
    sigma_c'(sigma_s(u)) = u.

    Each element's substitution dict is checked and given its power table
    (:func:`_power_caches`) once, when the homomorphism check reaches it;
    both checks substitute through these tables, so each power of each
    image is computed at most once per call.
    """
    ring = None
    for gid in range(group.order):
        if gid not in action:
            raise InputError(f"action missing group element {gid}")
        for name, img in action[gid].items():
            if ring is None:
                ring = img.ring
            if img.ring != ring:
                raise InputError("action images live in different rings")
    if ring is None:
        raise InputError("empty action")
    for name in ring.variables:
        for gid in range(group.order):
            if name not in action[gid]:
                raise InputError(f"action of element {gid} missing variable {name}")

    ident = {
        name: MixedSeries.variable(ring, name) for name in ring.variables
    }
    for name in ring.variables:
        if action[0][name] != ident[name]:
            raise InputError("identity element must act as the identity substitution")
    gens = group.generating_set()
    # tables[a] holds the powers of the images of sigma_a for the whole call;
    # a group without generators substitutes, and so checks, nothing
    tables = []
    for a in range(group.order):
        tables.append(_power_caches(ring, action[a]) if gens else None)
        for b in gens:
            ab = group.mult(a, b)
            for name in ring.variables:
                composed = _substitute(action[b][name], tables[a])
                if composed != action[ab][name]:
                    raise InputError(
                        "action is not a homomorphism within the window"
                    )

    results = {}
    for name in ring.variables:
        orbit = [action[gid][name] for gid in range(group.order)]
        # elementary symmetric polynomials via the running product expansion
        esym = [MixedSeries.const(ring, 1)]
        for t in orbit:
            new = esym + [MixedSeries.zero(ring)]
            for k in range(len(esym), 0, -1):
                new[k] = new[k] + esym[k - 1] * t
            esym = new
        outputs = esym[1:]
        for u in outputs:
            for gid in gens:
                if _substitute(u, tables[gid]) != u:
                    raise CheckFailure("descent generator is not action-invariant")
        results[name] = outputs
    return results
