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

Products run on integers.  Each series builds its product form once, on
first use as a factor: one common denominator and the numerators grouped by
total degree, keyed by the packed exponent.  Series are immutable, so the
form never goes stale.  One loop, :func:`_mul_forms`, multiplies two forms:
it visits only degree pairs d1 + d2 <= D and adds integer products, grouped
by the degree d1 + d2.  A series product divides once per output
coefficient; Weierstrass division multiplies, shifts, solves by the unit
part of the divisor (:func:`_solve`) and adds forms from start to end,
keeping them grouped by degree, and builds one series, its quotient, after
the loop.  Every power (1 + u)^r of a series u with u(0) = 0 comes from one
recurrence, degree by degree, in :func:`endo_apply`: [r](f) and the
expansion [r](T) of :func:`mult_endo`.

Budgets: the degree cap D is at most DEGREE_CAP_BOUND = 32, the valuation
bound of Weierstrass division lies in 1..VAL_BOUND_MAX = 256 and an exponent
``^k`` in a series expression has |k| <= EXPONENT_BOUND = 256; anything else
raises InputError.  Coefficients given to the public constructor must be int
or Fraction and exponents non-negative ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, inf, lcm
from typing import NamedTuple

from .errors import CheckFailure, InputError
from .exact import is_prime, p_valuation

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "DEGREE_CAP_BOUND",
    "VAL_BOUND_MAX",
    "EXPONENT_BOUND",
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


@dataclass(frozen=True)
class SeriesRingSpec:
    """Shape of a mixed power series ring: prime, variable blocks, degree cap."""

    p: int
    s_vars: tuple = ()
    t_vars: tuple = ()
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
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


class MixedSeries:
    """A truncated series: exponent multi-index -> nonzero rational coefficient.

    Series are immutable.  ``coeffs`` maps int tuples of total degree within
    the window to nonzero ``Fraction``s; ``_form`` holds the product form of
    the coefficients, built by :meth:`_product_form` on first use.
    """

    __slots__ = ("ring", "coeffs", "_form")

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "_form", None)

    @classmethod
    def _clean(cls, ring, coeffs):
        """Wrap a dict that is already clean; it is kept, not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_form", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MixedSeries is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls._clean(ring, {})

    @classmethod
    def const(cls, ring, value):
        return cls(ring, {(0,) * len(ring.variables): value})

    @classmethod
    def variable(cls, ring, name):
        i = ring.index_of(name)
        expo = tuple(1 if j == i else 0 for j in range(len(ring.variables)))
        return cls._clean(ring, {expo: Fraction(1)})

    # -- bookkeeping ---------------------------------------------------------

    def terms(self):
        """Deterministically ordered (exponent, coefficient) pairs."""
        return tuple(sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def constant_term(self):
        return self.coeffs.get((0,) * len(self.ring.variables), Fraction(0))

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise InputError("series ring spec mismatch")

    def _product_form(self):
        """(den, buckets): the coefficients over one common denominator.

        ``den`` is the lcm of the coefficient denominators and ``buckets``
        the terms (key, n), coefficient n/den, grouped by total degree (see
        :func:`_buckets`).  The key packs the exponent in base cap + 1, the
        exponent of variable i as digit i, so adding two keys whose degrees
        sum to at most cap adds the exponents.
        """
        form = self._form
        if form is None:
            coeffs = self.coeffs
            den = lcm(*[c.denominator for c in coeffs.values()])
            ring = self.ring
            base = ring.degree_cap + 1
            terms = []
            for expo, c in coeffs.items():
                key = 0
                for e in reversed(expo):
                    key = key * base + e
                terms.append((key, c.numerator * (den // c.denominator)))
            form = (den, _buckets(base, terms))
            object.__setattr__(self, "_form", form)
        return form

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MixedSeries.const(self.ring, other)
        if not isinstance(other, MixedSeries):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            s = out.get(expo)
            if s is None:
                out[expo] = c
                continue
            s += c
            if s:
                out[expo] = s
            else:
                del out[expo]
        return MixedSeries._clean(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MixedSeries._clean(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MixedSeries.const(self.ring, other)
        if not isinstance(other, MixedSeries):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = {e: c * v for e, v in self.coeffs.items()} if c else {}
            return MixedSeries._clean(self.ring, out)
        if not isinstance(other, MixedSeries):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        den, acc = _mul_forms(ring.degree_cap, self._product_form(), other._product_form())
        terms = chain.from_iterable(map(dict.items, filter(None, acc)))
        return MixedSeries._clean(ring, _unpack(ring, den, terms, {}))

    __rmul__ = __mul__

    def __pow__(self, k):
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
        return self.ring == other.ring and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        return render_series(self)

    def __repr__(self):
        return f"MixedSeries({self.ring!r}, {dict(self.terms())!r})"


def _mul_forms(cap, fa, fb):
    """The product of two product forms as (den, groups).

    This is the one series product loop.  It visits only the degree bucket
    pairs d1 + d2 <= cap and adds integer products into the group of degree
    d1 + d2: ``groups[d]`` is {key: numerator} for the keys of degree d, or
    None where no pair lands, for d in 0..cap.  A group is looked up once
    per term of fa and bucket of fb, not per term pair; Weierstrass division
    passes its short factor first.  Numerators that cancel to zero stay in
    the groups.
    """
    den_a, buckets_a = fa
    den_b, buckets_b = fb
    groups = [None] * (cap + 1)
    for d1, terms1 in buckets_a:
        for k1, n1 in terms1:
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


def _buckets(base, terms):
    """Group (key, n) pairs into (d, terms) by ascending total degree d.

    d is the digit sum of the key in ``base``.  Keys carry no degree digit,
    so they stay small: in two variables up to cap 15 every key is below
    257, and Python allocates no int for the sum of two such keys.
    """
    by_degree = {}
    for term in terms:
        k = term[0]
        d = 0
        while k:
            k, e = divmod(k, base)
            d += e
        by_degree.setdefault(d, []).append(term)
    return sorted(by_degree.items())


def _unpack(ring, den, terms, out):
    """Add to ``out`` the coefficients n/den of the (key, n) pairs ``terms``
    (keys as in :meth:`MixedSeries._product_form`); zeros are left out."""
    base = ring.degree_cap + 1
    digits = range(len(ring.variables))
    for k, n in terms:
        if n:
            expo = []
            for _ in digits:
                expo.append(k % base)
                k //= base
            out[tuple(expo)] = Fraction(n, den)
    return out


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


def gauss_valuation(f):
    """Minimum p-valuation over stored coefficients; +infinity for zero."""
    if f.is_zero():
        return inf
    return min(p_valuation(c, f.ring.p) for c in f.coeffs.values())


def is_lattice_member(f):
    """True iff f lies in the distinguished integral lattice (valuation >= 0)."""
    return gauss_valuation(f) >= 0


def dilatation_member(f, n):
    """Coefficient criterion for the n-th dilatation lattice of the open disc.

    Requires a pure formal-variable ring (no power-bounded block).  A term
    with exponent multi-index m belongs iff its coefficient valuation is at
    least -floor(|m| / (n+1)).
    """
    if f.ring.t_vars:
        raise InputError("dilatation membership needs a ring without T-variables")
    if n < 0:
        raise InputError("dilatation index must be a natural number")
    p = f.ring.p
    for expo, c in f.coeffs.items():
        if p_valuation(c, p) < -(sum(expo) // (n + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# distinguished series and Weierstrass division


def is_distinguished(f, z):
    """Reduce modulo (p, all non-z variables); test for a nonzero non-unit.

    Returns (True, residual_order) when the reduction in the residue series
    ring has a positive, finite order within the window; (False, None)
    otherwise.  Series outside the integral lattice are never distinguished.
    """
    zi = f.ring.index_of(z)
    p = f.ring.p
    if not is_lattice_member(f):
        return False, None
    residual = {}
    for expo, c in f.coeffs.items():
        if any(e != 0 for j, e in enumerate(expo) if j != zi):
            continue
        if c.numerator % p != 0:
            residual[expo[zi]] = c
    if not residual:
        return False, None
    order = min(residual)
    if order == 0:
        return False, None
    return True, order


class WeierstrassResult(NamedTuple):
    q: MixedSeries
    r: MixedSeries
    certified_valuation: object  # int or math.inf when the division is exact


def _z_low(f, zi, n):
    return MixedSeries._clean(f.ring, {e: c for e, c in f.coeffs.items() if e[zi] < n})


def _z_shift_down(ring, zi, n, groups):
    """Divide the numerators ``groups`` (as :func:`_mul_forms` returns them)
    by z^n, z the variable ``zi``.

    A key whose z digit, key // base**zi % base, is at least n loses n from
    that digit, so its degree drops by n; other keys and zero numerators are
    dropped.  The result is indexed by the new degree.
    """
    base = ring.degree_cap + 1
    unit = base**zi
    shift = n * unit
    return [
        None if terms is None else {k - shift: c for k, c in terms.items() if c and k // unit % base >= n}
        for terms in groups[n:]
    ]


def weierstrass_divide(g, f, z, val_bound=32):
    """Divide g by a z-distinguished f: g = q*f + r with deg_z r < order(f).

    Successive approximation; the correction terms gain at least one unit of
    combined (p-adic + non-z degree) weight per step, so the loop stops once
    the correction either vanishes inside the window (exact division,
    certified_valuation = +inf) or has Gauss valuation >= val_bound (the
    certified p-adic precision of the reported pair).  val_bound must be an
    integer in 1..VAL_BOUND_MAX.

    With f = a + z^n b, deg_z a < n, the loop starts from the solution delta
    of b delta = g / z^n, q = delta, and steps to the solution of
    b delta = -(delta a / z^n), q <- q + delta, where / z^n drops the terms
    of z-degree below n.  Each step is one product (:func:`_mul_forms`) and
    one triangular solve by the unit b (:func:`_solve`); b^-1, dense in the
    window, is never formed.  The loop never builds a series: its forms keep
    their numerators grouped by total degree from step to step, every form
    it multiplies or solves with is in lowest terms, q accumulates over the
    lcm of the denominators of the deltas, and q becomes a series once, at
    the end.
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
    a = _z_low(f, zi, n)._product_form()
    den_f, buckets_f = f._product_form()
    b, _ = _lowest_terms(den_f, _z_shift_down(ring, zi, n, _by_degree(cap, buckets_f)))
    den_g, buckets_g = g._product_form()
    tg, _ = _lowest_terms(den_g, _z_shift_down(ring, zi, n, _by_degree(cap, buckets_g)))
    delta, _ = _solve(cap, b, tg)
    q_den, q = delta[0], {k: c for _, terms in delta[1] for k, c in terms}
    certified = inf
    vg = gauss_valuation(g)
    headroom = -vg if (not g.is_zero() and vg < 0) else 0
    max_iter = val_bound + 2 * cap + headroom + 64
    for _ in range(max_iter):
        if not delta[1]:
            certified = inf
            break
        den, acc = _mul_forms(cap, a, delta)
        shifted, _ = _lowest_terms(den, _z_shift_down(ring, zi, n, acc))
        delta, g_delta = _solve(cap, b, shifted, -1)
        den, buckets = delta
        if not buckets:
            certified = inf
            break
        new_den = lcm(q_den, den)
        if new_den != q_den:
            scale = new_den // q_den
            q = {k: c * scale for k, c in q.items()}
            q_den = new_den
        scale = q_den // den
        get = q.get
        for _, terms in buckets:
            for k, c in terms:
                q[k] = get(k, 0) + c * scale
        if p_valuation(Fraction(g_delta, den), ring.p) >= val_bound:
            certified = val_bound
            break
    else:
        raise CheckFailure("weierstrass division failed to stabilize")

    q = MixedSeries._clean(ring, _unpack(ring, q_den, q.items(), {}))
    remainder_full = g - q * f
    r = _z_low(remainder_full, zi, n)
    return WeierstrassResult(q, r, certified)


def _solve(cap, fb, fy, sign=1):
    """``sign`` times the solution x of b x = y, truncated at degree cap.

    b and y are product forms, b with a nonzero constant term n0/den_b.
    Returns ((den, buckets), g) as :func:`_lowest_terms` does.  Let lo be
    the lowest degree of y, and B_k and Y_d the numerators of degree k of b
    and of degree d of y.  Forward substitution, degree by degree, gives
    x_d = X_d den_b / (den_y n0^(d - lo + 1)) with the integer parts

        X_d = n0^(d - lo) Y_d - sum_(k >= 1) n0^(k - 1) B_k X_(d - k),

    so x has the numerators X_d den_b n0^(cap - d) over den_y n0^(cap - lo + 1).
    Each X_(d - k) meets the terms of B_k only: a sparse b costs as many
    term pairs as it has terms, where b^-1 is dense in the window.
    """
    den_b, buckets_b = fb
    den_y, buckets_y = fy
    if not buckets_y:
        return (1, []), 0
    (_, ((_, n0),)), *rest = buckets_b  # degree 0 holds the one key 0
    flip = -1 if n0 < 0 else 1  # x = -(y / -b) keeps the denominator positive
    n0, sign = flip * n0, flip * sign
    rest = [(k, -flip * n0 ** (k - 1), terms) for k, terms in rest]
    lo = buckets_y[0][0]
    ys = dict(buckets_y)
    groups = [None] * (cap + 1)
    for d in range(lo, cap + 1):
        w = n0 ** (d - lo)
        acc = {k: w * c for k, c in ys.get(d, ())}
        for k, wk, terms in rest:
            if d - k < lo:
                break
            x = groups[d - k].items()
            for k1, n1 in terms:
                c1 = wk * n1
                for k2, n2 in x:
                    key = k1 + k2
                    acc[key] = acc.get(key, 0) + c1 * n2
        groups[d] = acc
    for d in range(lo, cap + 1):
        scale = den_b * n0 ** (cap - d)
        if scale != 1:
            groups[d] = {key: c * scale for key, c in groups[d].items()}
    return _lowest_terms(den_y * n0 ** (cap - lo + 1), groups, sign)


def _by_degree(cap, buckets):
    """The buckets of a product form as groups, indexed by degree as
    :func:`_mul_forms` returns them."""
    groups = [None] * (cap + 1)
    for d, terms in buckets:
        groups[d] = dict(terms)
    return groups


def _lowest_terms(den, groups, sign=1):
    """((den, buckets), g): ``sign`` times the numerators ``groups`` over
    den, in lowest terms.

    ``groups`` is indexed by degree as :func:`_mul_forms` returns it.  den
    and every numerator are divided by their gcd h; ``buckets`` lists the
    nonzero (key, n) pairs of each degree that has one, in ascending degree
    as in a product form, and g is the gcd of the new numerators.  The Gauss
    valuation of the form is v_p(g) - v_p(den).  Zero is ((1, []), 0).
    """
    g = 0
    for terms in groups:
        if terms:
            g = gcd(g, *terms.values())
    if not g:
        return (1, []), 0
    h = gcd(den, g)
    s = sign * h
    buckets = []
    for d, terms in enumerate(groups):
        if terms:
            terms = [(k, c // s) for k, c in terms.items() if c]
            if terms:
                buckets.append((d, terms))
    return (den // h, buckets), g // h


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
    denominator, like a product form, so the whole evaluation costs about
    one product f * g, whatever r is.
    """
    if f.constant_term() != 0:
        raise InputError("endo_apply needs a series with zero constant term")
    r = Fraction(r)
    if p_valuation(r, f.ring.p) < 0:
        raise InputError(f"{r} is not a p-adic integer for p={f.ring.p}")
    ring = f.ring
    den_f, buckets = f._product_form()
    a, b = (r + 1).numerator, (r + 1).denominator
    parts = [(1, {0: 1})]  # parts[m] = (den, {packed key: numerator}) of g_m
    out = {}
    for n in range(1, ring.degree_cap + 1):
        pairs = [(k, terms, parts[n - k]) for k, terms in buckets if k <= n and parts[n - k][1]]
        den = lcm(*[d for _, _, (d, _) in pairs])
        acc = {}
        get = acc.get
        for k, terms, (d, numerators) in pairs:
            w = (a * k - n * b) * (den // d)
            for k1, n1 in terms:
                c1 = w * n1
                for k2, n2 in numerators.items():
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * n2
        acc = {key: v for key, v in acc.items() if v}
        den *= n * b * den_f
        g = gcd(den, *acc.values())
        numerators = {key: v // g for key, v in acc.items()}
        parts.append((den // g, numerators))
        _unpack(ring, den // g, numerators.items(), out)
    return MixedSeries._clean(ring, out)


def endo_to_scalar(e):
    """Recognize a series as [r] and return r; reject non-endomorphisms."""
    if len(e.ring.variables) != 1:
        raise InputError("endo_to_scalar needs a single-variable ring")
    if e.constant_term() != 0:
        raise InputError("endomorphisms have zero constant term")
    r = e.coeffs.get((1,), Fraction(0))
    if r == 0:
        if e.is_zero():
            return Fraction(0)
        raise CheckFailure("no linear term: only [0] = 0 lacks one")
    if p_valuation(r, e.ring.p) < 0:
        raise CheckFailure("linear coefficient is not a p-adic integer")
    if e != mult_endo(r, e.ring):
        raise CheckFailure("series does not match [r] within the window")
    return r


# ---------------------------------------------------------------------------
# substitution and symmetric descent generators


def substitute(f, images):
    """Substitute variables by series with zero constant term (exact on window)."""
    ring = f.ring
    for name, img in images.items():
        ring.index_of(name)
        if img.ring != ring:
            raise InputError("substitution image in a different ring")
        if img.constant_term() != 0:
            raise InputError("substitution images must have zero constant term")
    names = ring.variables
    base = {
        name: images.get(name, MixedSeries.variable(ring, name)) for name in names
    }
    # per-variable power cache: powers[name][k] = image^k
    powers = {name: [MixedSeries.const(ring, 1)] for name in names}

    def var_power(name, k):
        cache = powers[name]
        while len(cache) <= k:
            cache.append(cache[-1] * base[name])
        return cache[k]

    out = MixedSeries.zero(ring)
    for expo, c in f.terms():
        term = None
        for name, e in zip(names, expo):
            if e:
                power = var_power(name, e)
                term = power if term is None else term * power
        out = out + (MixedSeries.const(ring, c) if term is None else term * c)
    return out


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
    for a in range(group.order):
        for b in gens:
            ab = group.mult(a, b)
            for name in ring.variables:
                composed = substitute(action[b][name], action[a])
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
                if substitute(u, action[gid]) != u:
                    raise CheckFailure("descent generator is not action-invariant")
        results[name] = outputs
    return results
