import math
import re
from fractions import Fraction
from math import factorial, gcd
from unittest import mock

import dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcond import series
from ramcond.errors import CheckFailure, InputError
from ramcond.groups import make_cyclic
from ramcond.series import (
    DEGREE_CAP_BOUND,
    VAL_BOUND_MAX,
    MixedSeries,
    SeriesRingSpec,
    dilatation_member,
    endo_apply,
    endo_to_scalar,
    gauss_valuation,
    is_distinguished,
    is_lattice_member,
    mult_endo,
    substitute,
    symmetric_descent,
    weierstrass_divide,
)

S_RING3 = SeriesRingSpec(3, s_vars=("S",), t_vars=("T",), degree_cap=8)
S_RING2 = SeriesRingSpec(2, s_vars=("S",), t_vars=("T",), degree_cap=8)


def build(ring, terms):
    return MixedSeries(ring, terms)


def test_gauss_valuation_examples():
    f = build(S_RING3, {(1, 0): Fraction(1, 9), (0, 1): Fraction(3)})
    assert gauss_valuation(f) == -2
    assert gauss_valuation(MixedSeries.zero(S_RING3)) == math.inf
    g = build(S_RING3, {(0, 0): 1, (0, 1): 3})
    assert gauss_valuation(g) == 0


def test_series_product_examples():
    s = MixedSeries.variable(S_RING2, "S")
    t = MixedSeries.variable(S_RING2, "T")
    assert (s * t).coeffs == {(1, 1): Fraction(1)}
    # (1+T) times the alternating geometric series is 1 on the window
    geo = build(S_RING2, {(0, k): (-1) ** k for k in range(9)})
    one_plus_t = 1 + t
    assert (one_plus_t * geo) == MixedSeries.const(S_RING2, 1)


def schoolbook_product(f, g):
    """Oracle: the product over every term pair in Fraction arithmetic."""
    cap = f.ring.degree_cap
    out = {}
    for e1, c1 in f.coeffs.items():
        d1 = sum(e1)
        for e2, c2 in g.coeffs.items():
            if d1 + sum(e2) > cap:
                continue
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, Fraction(0)) + c1 * c2
    return MixedSeries(f.ring, out)


def assert_form(f):
    """The form invariants: den > 0, nonzero numerators with gcd 1 with den,
    strictly ascending degrees, and each key's digits in base cap + 1
    summing to the degree of its bucket."""
    den, buckets = f._form
    base = f.ring.degree_cap + 1
    nvars = len(f.ring.variables)
    assert type(den) is int and den > 0
    degrees = [d for d, _ in buckets]
    assert degrees == sorted(set(degrees))
    numerators = []
    for d, terms in buckets:
        assert terms
        for k, n in terms.items():
            assert type(n) is int and n != 0
            assert 0 <= k < base**nvars
            assert sum(k // base**i % base for i in range(nvars)) == d
            numerators.append(n)
    assert gcd(den, *numerators) == 1


def assert_clean(f):
    assert_form(f)
    cap = f.ring.degree_cap
    nvars = len(f.ring.variables)
    for expo, c in f.coeffs.items():
        assert type(c) is Fraction and c != 0
        assert len(expo) == nvars and all(type(e) is int and e >= 0 for e in expo)
        assert sum(expo) <= cap


@st.composite
def product_case(draw):
    """A ring of 1 to 3 variables with cap 1 to 24 and two random factors.

    Denominators mix powers of p with primes prime to p.  Half the time the
    factors are h + k and h - k, whose cross terms cancel to exactly zero.
    """
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 24))
    ring = SeriesRingSpec(p, s_vars=("A", "B", "C")[:nvars], degree_cap=cap)
    coeff = st.builds(
        lambda n, v, q: Fraction(n, q) * Fraction(p) ** v,
        st.integers(-9, 9).filter(bool),
        st.integers(-3, 3),
        st.sampled_from([1, 5, 7, 11] + ([3] if p == 2 else [2])),
    )
    expo = st.tuples(*(st.integers(0, cap) for _ in range(nvars)))

    def series():
        return MixedSeries(ring, draw(st.dictionaries(expo, coeff, max_size=8)))

    f, g = series(), series()
    if draw(st.booleans()):
        f, g = f + g, f - g
    return f, g


@given(product_case())
@settings(max_examples=150, deadline=None)
def test_product_matches_schoolbook_oracle(case):
    f, g = case
    h = f * g
    assert h.coeffs == schoolbook_product(f, g).coeffs
    assert_clean(h)
    # the factors' cached forms are reused: same product the second time
    assert (f * g).coeffs == h.coeffs
    assert (g * f).coeffs == h.coeffs
    assert (f * f).coeffs == schoolbook_product(f, f).coeffs


@given(product_case())
@settings(max_examples=100, deadline=None)
def test_every_operation_returns_a_canonical_form(case):
    """Sums, differences, negation, scalar multiples, products and a
    substitution return forms in lowest terms.  The constructor reads each
    view back to an equal series, in either order of its terms, and ==
    agrees with equality of the views."""
    f, g = case
    ring = f.ring
    image = g - g.constant_term()
    results = [f + g, f - g, -f, f * Fraction(-3, 4), f * 0, 2 - f, f * g, (f + g) - g, f * 1]
    results.append(substitute(f, {ring.variables[0]: image}))
    for h in [f, g] + results:
        assert_clean(h)
        assert MixedSeries(ring, h.coeffs) == h
        assert MixedSeries(ring, dict(reversed(h.coeffs.items()))) == h
    for a, b in ((f, g), (f, (f + g) - g), (f, f * 1), (f * g, g * f), (f, -(-f))):
        assert (a == b) == (a.coeffs == b.coeffs)
    assert (f + g) - g == f == f * 1 == -(-f)


@given(product_case(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_valuations_match_the_per_coefficient_oracles(case, n):
    """The Gauss valuation of a form and the dilatation test by degree
    bucket equal the minimum and the test over every coefficient, read as
    v_p(gcd of numerators) - v_p(den): p in the denominator, p in every
    numerator, and the zero series (+infinity)."""
    f, g = case
    p = f.ring.p
    for h in (f, g, f * g, f + g, f * Fraction(1, p), f * p**2, f - f):
        assert gauss_valuation(h) == dense.gauss_valuation(h)
        assert dilatation_member(h, n) == dense.dilatation_member(h, n)


def test_product_drops_cancelled_and_truncated_terms():
    s = MixedSeries.variable(S_RING2, "S")
    t = MixedSeries.variable(S_RING2, "T")
    # (S + T)(S - T): the S*T terms cancel to exactly zero
    h = (s + t) * (s - t)
    assert h.coeffs == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    # every term pair lies beyond the window
    assert (s**5 * t**4).coeffs == {}
    assert (s**4 * (t**4 + s**5)).coeffs == {(4, 4): Fraction(1)}


def test_cancellation_leaves_no_stored_terms():
    f = MixedSeries(S_RING3, {(1, 0): Fraction(1, 9), (0, 1): 3, (2, 3): Fraction(-5, 7)})
    for zero in (f + (-f), f - f, f * 0, f * Fraction(0), 0 * f):
        assert zero.coeffs == {}
        assert zero == MixedSeries.zero(S_RING3)


@pytest.mark.parametrize(
    "coeffs",
    [
        {(1, 0): 0.1},  # a float is not silently turned into a binary fraction
        {(1, 0): True},
        {(1, 0): "1/2"},
        {(1.5, 0): 1},  # exponents are not truncated
        {(True, 0): 1},
        {(-1, 0): 1},
        {(1,): 1},
        {(1, 0, 0): 1},
        {1: 1},
    ],
)
def test_constructor_rejects_non_rational_input(coeffs):
    with pytest.raises(InputError):
        MixedSeries(S_RING2, coeffs)


def test_constructor_reads_rationals():
    f = MixedSeries(S_RING2, {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 2): 0, (5, 4): 1})
    assert f.coeffs == {(1, 0): Fraction(2), (0, 1): Fraction(1, 3)}
    assert_clean(f)
    with pytest.raises(InputError):
        MixedSeries.const(S_RING2, 0.5)


def test_degree_cap_budget():
    assert SeriesRingSpec(2, s_vars=("S",), degree_cap=DEGREE_CAP_BOUND).degree_cap == 32
    for cap in (0, -1, DEGREE_CAP_BOUND + 1, 100000, True, 8.0):
        with pytest.raises(InputError):
            SeriesRingSpec(2, s_vars=("S",), degree_cap=cap)


def test_weierstrass_valuation_budget():
    z = zvar()
    f, g = z * z + z + 2, z**3
    for bound in (0, -5, VAL_BOUND_MAX + 1, 3000, True):
        with pytest.raises(InputError):
            weierstrass_divide(g, f, "Z", val_bound=bound)
    q, r, certified = weierstrass_divide(g, f, "Z", val_bound=VAL_BOUND_MAX)
    assert certified == VAL_BOUND_MAX
    defect = g - q * f - r
    assert defect.is_zero() or gauss_valuation(defect) >= certified


def test_gauss_multiplicativity_example():
    f = build(S_RING2, {(1, 0): Fraction(1, 2), (0, 1): 1})
    g = build(S_RING2, {(1, 0): 2})
    assert gauss_valuation(f) == -1
    assert gauss_valuation(g) == 1
    assert gauss_valuation(f * g) == 0


def test_ring_mismatch_raises():
    with pytest.raises(InputError):
        MixedSeries.const(S_RING2, 1) + MixedSeries.const(S_RING3, 1)


def test_lattice_membership():
    s = MixedSeries.variable(S_RING2, "S")
    t = MixedSeries.variable(S_RING2, "T")
    assert is_lattice_member(s + 2 * t)
    assert not is_lattice_member(s * Fraction(1, 2))
    assert is_lattice_member(MixedSeries.zero(S_RING2))


DISC2 = SeriesRingSpec(2, s_vars=("S",), degree_cap=8)


def test_dilatation_membership_oracles():
    f = build(DISC2, {(2,): Fraction(1, 4)})  # (S/2)^2
    assert dilatation_member(f, 0)
    assert not dilatation_member(f, 1)
    s = MixedSeries.variable(DISC2, "S")
    for n in range(5):
        assert dilatation_member(s, n)


def test_dilatation_needs_pure_formal_ring():
    t = MixedSeries.variable(S_RING2, "T")
    with pytest.raises(InputError):
        dilatation_member(t, 0)


@given(st.integers(0, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_dilatation_monotone(n, data):
    terms = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, 8)),
            st.fractions(max_denominator=64),
            max_size=6,
        )
    )
    f = MixedSeries(DISC2, {k: v for k, v in terms.items()})
    if dilatation_member(f, n):
        for m in range(n + 1):
            assert dilatation_member(f, m)


WRING = SeriesRingSpec(2, s_vars=("S", "Z"), degree_cap=10)


def zvar(name="Z", ring=WRING):
    return MixedSeries.variable(ring, name)


def test_is_distinguished():
    z = zvar()
    ok, n = is_distinguished(z * z - 2, "Z")
    assert ok and n == 2
    ok, _ = is_distinguished(z + 1, "Z")
    assert not ok
    s = zvar("S")
    ok, n = is_distinguished(z * z + s * z + 2, "Z")
    assert ok and n == 2
    # not in the integral lattice -> not distinguished
    ok, _ = is_distinguished(z * Fraction(1, 2) + z * z, "Z")
    assert not ok


def test_weierstrass_oracle():
    z = zvar()
    f = z * z - 2
    g = z * z * z
    q, r, certified = weierstrass_divide(g, f, "Z")
    assert q == z
    assert r == 2 * z
    assert certified == math.inf


def test_weierstrass_trivial_cases():
    z = zvar()
    f = z * z - 2
    q, r, _ = weierstrass_divide(f, f, "Z")
    assert q == MixedSeries.const(WRING, 1)
    assert r.is_zero()
    q, r, _ = weierstrass_divide(z, f, "Z")
    assert q.is_zero()
    assert r == z


def test_weierstrass_not_distinguished():
    z = zvar()
    with pytest.raises(InputError):
        weierstrass_divide(z, z + 1, "Z")


def test_weierstrass_reconstruction_with_base_terms():
    z, s = zvar(), zvar("S")
    f = z * z + s * z + 2
    g = z**4 + s * z + 1
    q, r, certified = weierstrass_divide(g, f, "Z", val_bound=24)
    defect = g - q * f - r
    assert max(e[1] for e in r.coeffs) < 2 if r.coeffs else True
    assert defect.is_zero() or gauss_valuation(defect) >= certified


def classical_poly_divide(g, f, z, n, lead):
    """Independent oracle: long division by a Z-polynomial with constant
    unit leading coefficient, highest Z-degree first."""
    ring = g.ring
    zi = ring.index_of(z)
    q = MixedSeries.zero(ring)
    r = g
    while True:
        degrees = [e[zi] for e in r.coeffs if e[zi] >= n]
        if not degrees:
            return q, r
        dmax = max(degrees)
        block = MixedSeries(
            ring,
            {
                tuple(x - dmax if j == zi else x for j, x in enumerate(e)): c
                for e, c in r.coeffs.items()
                if e[zi] == dmax
            },
        )
        zpow = MixedSeries.variable(ring, z) ** (dmax - n)
        factor = block * zpow * Fraction(1, lead)
        q = q + factor
        r = r - factor * f


def test_weierstrass_agrees_with_polynomial_division():
    import random as rnd

    rng = rnd.Random(13)
    ring = SeriesRingSpec(2, s_vars=("S", "Z"), degree_cap=10)
    z = MixedSeries.variable(ring, "Z")
    s = MixedSeries.variable(ring, "S")
    for _ in range(25):
        n = rng.randint(1, 3)
        lead = rng.choice([1, -1, 3, 5])
        f = z**n * lead
        for j in range(n):
            # sub-leading coefficients in the maximal ideal (p, S)
            f = f + z**j * rng.choice([2, -2, 4]) * rng.randint(0, 2)
            f = f + z**j * s * rng.randint(-2, 2)
        ok, order = is_distinguished(f, "Z")
        assert ok and order == n
        g = MixedSeries(
            ring,
            {
                (rng.randint(0, 3), rng.randint(0, 6)): Fraction(rng.randint(-9, 9))
                for _ in range(rng.randint(1, 5))
            },
        )
        q_w, r_w, certified = weierstrass_divide(g, f, "Z", val_bound=32)
        q_c, r_c = classical_poly_divide(g, f, "Z", n, lead)
        dq = q_w - q_c
        dr = r_w - r_c
        assert dq.is_zero() or gauss_valuation(dq) >= certified
        assert dr.is_zero() or gauss_valuation(dr) >= certified


@st.composite
def division_case(draw):
    """A z-distinguished f, a dividend g and a small valuation bound.

    One to three variables, one of them z, split between the two blocks;
    p is 2, 3 or 5.  The coefficients of f are p-integral with denominators
    1, 7 or 11.  Those of g have denominators 1, 7 or 11 times a power of p
    up to p^2.  f has a unit coefficient of either sign at z^n, p-divisible
    pure z-terms below it and random terms elsewhere; g has a term of
    z-degree n or more.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    names = ("A", "B", "C")[:nvars]
    split = draw(st.integers(0, nvars))
    cap = draw(st.integers(2, 8 if nvars < 3 else 6))
    ring = SeriesRingSpec(p, s_vars=names[:split], t_vars=names[split:], degree_cap=cap)
    zi = draw(st.integers(0, nvars - 1))
    n = draw(st.integers(1, min(3, cap)))

    def coeff(low, high):
        return st.builds(
            lambda num, v, den: Fraction(num, den) * Fraction(p) ** v,
            st.integers(-9, 9).filter(bool),
            st.integers(low, high),
            st.sampled_from([1, 7, 11]),
        )

    expo = st.tuples(*(st.integers(0, cap) for _ in range(nvars))).filter(
        lambda e: sum(e) <= cap
    )

    def pure_z(k):
        return tuple(k if j == zi else 0 for j in range(nvars))

    f = {
        e: c
        for e, c in draw(st.dictionaries(expo, coeff(0, 2), max_size=4)).items()
        if e != pure_z(e[zi]) or e[zi] > n
    }
    for k in range(n):
        f[pure_z(k)] = p * draw(coeff(0, 1))
    unit = draw(st.integers(1, 9).filter(lambda u: u % p)) * draw(st.sampled_from([1, -1]))
    f[pure_z(n)] = Fraction(unit, draw(st.sampled_from([1, 7, 11])))
    g = draw(st.dictionaries(expo, coeff(-2, 2), max_size=4))
    g[pure_z(draw(st.integers(n, cap)))] = draw(coeff(-2, 2))  # q is not zero
    return MixedSeries(ring, f), MixedSeries(ring, g), names[zi], draw(st.integers(1, 6))


@st.composite
def s_exact_division_case(draw):
    """A z-distinguished f whose low part lies in the non-z ideal, a
    dividend g and a valuation bound.

    Two or three variables, one of them z, split between the two blocks,
    so that T-variables occur in some cases and not in others; p is 2, 3 or
    5 and n <= 3.  Every term of f of z-degree below n has positive degree
    in the other variables (f is "S-exact"), and there is at least one.
    The coefficients of f are p-integral with denominators 1, 7 or 11;
    those of g have denominators 1, 7 or 11 times a power of p up to p^2.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(2, 3))
    names = ("A", "B", "C")[:nvars]
    split = draw(st.integers(0, nvars))
    cap = draw(st.integers(2, 8 if nvars < 3 else 6))
    ring = SeriesRingSpec(p, s_vars=names[:split], t_vars=names[split:], degree_cap=cap)
    zi = draw(st.integers(0, nvars - 1))
    n = draw(st.integers(1, min(3, cap - 1)))

    def coeff(low, high):
        return st.builds(
            lambda num, v, den: Fraction(num, den) * Fraction(p) ** v,
            st.integers(-9, 9).filter(bool),
            st.integers(low, high),
            st.sampled_from([1, 7, 11]),
        )

    expo = st.tuples(*(st.integers(0, cap) for _ in range(nvars))).filter(
        lambda e: sum(e) <= cap
    )

    def pure_z(e):
        return sum(e) == e[zi]

    low = expo.filter(lambda e: e[zi] < n and not pure_z(e))
    high = expo.filter(lambda e: not pure_z(e) or e[zi] > n)
    f = draw(st.dictionaries(high, coeff(0, 2), max_size=4))
    f.update(draw(st.dictionaries(low, coeff(0, 2), min_size=1, max_size=3)))
    unit = draw(st.integers(1, 9).filter(lambda u: u % p)) * draw(st.sampled_from([1, -1]))
    f[tuple(n if j == zi else 0 for j in range(nvars))] = Fraction(unit, draw(st.sampled_from([1, 7, 11])))
    g = draw(st.dictionaries(expo, coeff(-2, 2), min_size=1, max_size=5))
    return MixedSeries(ring, f), MixedSeries(ring, g), names[zi], n, draw(st.integers(1, 6))


def _in_lowest_terms(form):
    den, buckets = form
    return gcd(den, *[num for _, terms in buckets for num in terms.values()]) == 1


@given(division_case())
@settings(max_examples=120, deadline=None)
def test_weierstrass_matches_fraction_oracle(case):
    """The division on integer forms gives the oracle's q, r and certified valuation.

    Every form that reaches the product kernel is in lowest terms, so the
    integers stay as small as the oracle's ``Fraction`` coefficients.
    """
    f, g, z, val_bound = case
    expected = dense.weierstrass_divide(g, f, z, val_bound)
    kernel = series._mul_forms

    def checked(cap, fa, fb):
        assert _in_lowest_terms(fa) and _in_lowest_terms(fb)
        return kernel(cap, fa, fb)

    with mock.patch.object(series, "_mul_forms", checked):
        q, r, certified = weierstrass_divide(g, f, z, val_bound)
    assert q.coeffs == expected.q.coeffs
    assert r.coeffs == expected.r.coeffs
    assert certified == expected.certified_valuation
    assert_clean(q)
    assert_clean(r)


@given(s_exact_division_case())
@settings(max_examples=100, deadline=None)
def test_s_exact_division_is_exact(case):
    """With no pure z-term in its low part, the division is one triangular
    solve: g = q f + r holds exactly in the window, deg_z r < n, the
    quotient is certified exact whatever the bound, and q and r are the
    ``Fraction`` oracle's, whose successive approximation runs out."""
    f, g, z, n, val_bound = case
    assert is_distinguished(f, z) == (True, n)
    zi = f.ring.index_of(z)
    result = weierstrass_divide(g, f, z, val_bound)
    q, r, certified = result
    assert q * f + r == g
    assert all(e[zi] < n for e in r.coeffs)
    assert certified == math.inf
    assert result == dense.weierstrass_divide(g, f, z, VAL_BOUND_MAX)
    assert_clean(q)
    assert_clean(r)


def test_s_exact_division_is_one_solve_and_no_loop_product(monkeypatch):
    """An S-exact division calls ``_solve`` once, with the low part of f,
    and the one product is q f, for the remainder."""
    z, s = zvar(), zvar("S")
    f = z**3 * Fraction(1, 7) + s * z * z + 3 * s * s * z + s + z**4
    g = z**5 + s * z**3 * Fraction(3, 7) + 1
    series_mul, kernel, solve = MixedSeries.__mul__, series._mul_forms, series._solve
    counts = dict.fromkeys(("mul", "kernel", "solve"), 0)

    def counting_mul(a, b):
        counts["mul"] += 1
        return series_mul(a, b)

    def counting_kernel(cap, fa, fb):
        counts["kernel"] += 1
        return kernel(cap, fa, fb)

    def counting_solve(cap, fb, fy, fa=(1, ()), zi=0, n=0):
        assert fa[1] and n == 3
        counts["solve"] += 1
        return solve(cap, fb, fy, fa, zi, n)

    monkeypatch.setattr(MixedSeries, "__mul__", counting_mul)
    monkeypatch.setattr(series, "_mul_forms", counting_kernel)
    monkeypatch.setattr(series, "_solve", counting_solve)
    result = weierstrass_divide(g, f, "Z", 1)
    assert counts == {"mul": 1, "kernel": 1, "solve": 1}
    monkeypatch.undo()
    assert result.certified_valuation == math.inf
    assert result == dense.weierstrass_divide(g, f, "Z", VAL_BOUND_MAX)


def test_weierstrass_series_products_do_not_grow_with_iterations(monkeypatch):
    """The division loop works on forms only: MixedSeries.__mul__ runs and
    series are built the same number of times whatever the number of
    iterations, and each iteration is one product and one solve by the unit
    part of f, on forms in lowest terms."""
    z, s = zvar(), zvar("S")
    f = 2 * z**3 + z * z * Fraction(1, 5) + 2 * z + 2
    g = z**4 * Fraction(1, 4) + s * z**3 * Fraction(3, 7) + 1
    series_mul, kernel, solve = MixedSeries.__mul__, series._mul_forms, series._solve
    from_form, init = MixedSeries._from_form.__func__, MixedSeries.__init__
    counts = dict.fromkeys(("mul", "kernel", "solve", "built"), 0)

    def counting_mul(a, b):
        if isinstance(b, MixedSeries):
            counts["mul"] += 1
        return series_mul(a, b)

    def counting_kernel(cap, fa, fb):
        assert _in_lowest_terms(fa) and _in_lowest_terms(fb)
        counts["kernel"] += 1
        return kernel(cap, fa, fb)

    def counting_solve(cap, fb, fy, fa=(1, ()), zi=0, n=0):
        assert _in_lowest_terms(fb) and _in_lowest_terms(fy)
        assert not fa[1]  # the loop solves by the unit part alone
        counts["solve"] += 1
        return solve(cap, fb, fy, fa, zi, n)

    def counting_from_form(cls, ring, form):
        counts["built"] += 1
        return from_form(cls, ring, form)

    def counting_init(self, ring, coeffs):
        counts["built"] += 1
        init(self, ring, coeffs)

    monkeypatch.setattr(MixedSeries, "__mul__", counting_mul)
    monkeypatch.setattr(series, "_mul_forms", counting_kernel)
    monkeypatch.setattr(series, "_solve", counting_solve)
    monkeypatch.setattr(MixedSeries, "_from_form", classmethod(counting_from_form))
    monkeypatch.setattr(MixedSeries, "__init__", counting_init)
    seen = []
    for val_bound in (1, 4, 12, 24):
        counts.update(dict.fromkeys(counts, 0))
        result = weierstrass_divide(g, f, "Z", val_bound)
        seen.append(dict(counts))
        assert result.certified_valuation == val_bound
        assert result == dense.weierstrass_divide(g, f, "Z", val_bound)
    assert len({c["mul"] for c in seen}) == 1
    assert len({c["built"] for c in seen}) == 1
    # one product per iteration, and the first solve plus one per iteration
    iterations = [c["kernel"] - c["mul"] for c in seen]
    assert [c["solve"] for c in seen] == [1 + i for i in iterations]
    assert iterations == sorted(set(iterations))


@st.composite
def unit_case(draw):
    """A unit b = c0 + (terms of positive degree), c0 != 0.

    One to three variables split between the two blocks, cap 1..16, p 2 or
    3.  c0 and the other coefficients have denominators 1, 5, 7 or 11 times
    a power of p between p^-2 and p^2.
    """
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(1, 3))
    names = ("A", "B", "C")[:nvars]
    split = draw(st.integers(0, nvars))
    cap = draw(st.integers(1, 16))
    ring = SeriesRingSpec(p, s_vars=names[:split], t_vars=names[split:], degree_cap=cap)
    coeff = st.builds(
        lambda num, v, den: Fraction(num, den) * Fraction(p) ** v,
        st.integers(-9, 9).filter(bool),
        st.integers(-2, 2),
        st.sampled_from([1, 5, 7, 11]),
    )
    expo = st.tuples(*(st.integers(0, cap) for _ in range(nvars))).filter(
        lambda e: 0 < sum(e) <= cap
    )
    terms = draw(st.dictionaries(expo, coeff, max_size=4))
    terms[(0,) * nvars] = draw(coeff)
    return MixedSeries(ring, terms)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_solve_by_a_unit_matches_the_inverse_oracle(data):
    """The triangular solve by a unit b: b x = y on the whole window, x for
    y = 1 is the oracle's geometric power sum b^-1, and every result is a
    form in lowest terms with the oracle's Gauss valuation."""
    b = data.draw(unit_case())
    ring, cap = b.ring, b.ring.degree_cap
    nvars = len(ring.variables)
    expo = st.tuples(*(st.integers(0, cap) for _ in range(nvars))).filter(lambda e: sum(e) <= cap)
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    y = MixedSeries(ring, data.draw(st.dictionaries(expo, coeff, max_size=5)))
    for rhs in (y, -y, MixedSeries.const(ring, 1)):
        form = series._solve(cap, b._form, rhs._form)
        x = MixedSeries._from_form(ring, form)
        assert b * x == rhs
        assert_form(x)
        assert gauss_valuation(x) == dense.gauss_valuation(x)
        assert_clean(x)
    assert x == dense.unit_inverse(b)


def lowest_terms_by_gcd(den, groups, sign):
    """The reduction of ``series._lowest_terms`` with the gcd taken at every den."""
    g = gcd(*[c for terms in groups if terms for c in terms.values()])
    if not g:
        return (1, [])
    h = gcd(den, g)
    buckets = [(d, {k: sign * c // h for k, c in terms.items() if c}) for d, terms in enumerate(groups) if terms]
    return (den // h, [(d, terms) for d, terms in buckets if terms])


groups_at_den_one = st.lists(
    st.none() | st.dictionaries(st.integers(0, 50), st.integers(-6, 6), max_size=4), max_size=6
)


@given(groups_at_den_one, st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_lowest_terms_at_den_one_skips_only_the_gcd(groups, sign):
    """Over den = 1 the reduction equals the gcd path, zero numerators,
    sign -1 and all-zero degrees included, and keeps the dict of a degree
    with no zero numerator at sign 1."""
    expected = lowest_terms_by_gcd(1, [terms and dict(terms) for terms in groups], sign)
    den, buckets = series._lowest_terms(1, groups, sign)
    assert (den, buckets) == expected
    for d, terms in buckets:
        assert (terms is groups[d]) == (sign == 1 and 0 not in groups[d].values())


@given(st.data(), st.sampled_from([1, -1]))
@settings(max_examples=80, deadline=None)
def test_solve_by_a_unit_with_constant_numerator_one(data, c0):
    """A unit whose constant numerator is 1 or -1 over its denominator: the
    solve starts each degree from a copy of y and still gives the oracle's
    b^-1, and b x = y."""
    b = data.draw(unit_case())
    ring, cap = b.ring, b.ring.degree_cap
    b = b - b.constant_term() + Fraction(c0, b._form[0])
    assert b._form[1][0][1][0] == c0
    form = series._solve(cap, b._form, MixedSeries.const(ring, 1)._form)
    assert MixedSeries._from_form(ring, form) == dense.unit_inverse(b)
    y = b * b + MixedSeries.const(ring, 3)
    x = MixedSeries._from_form(ring, series._solve(cap, b._form, y._form))
    assert b * x == y and x == b + MixedSeries.const(ring, 3) * dense.unit_inverse(b)
    assert_form(x)


@given(s_exact_division_case(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_with_a_low_part_solves_the_truncated_system(case, data):
    """``_solve`` with the low part a of an S-exact f = a + z^n b: x
    satisfies b x + H(a x) = y on the whole window, H(a x) read off the
    product a x truncated at the cap, and x is a form in lowest terms."""
    f, g, z, n, _ = case
    ring, cap = f.ring, f.ring.degree_cap
    zi = ring.index_of(z)
    a, b = dense.z_low(f, zi, n), dense.z_shift_down(f, zi, n)
    nvars = len(ring.variables)
    expo = st.tuples(*(st.integers(0, cap) for _ in range(nvars))).filter(lambda e: sum(e) <= cap)
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    y = MixedSeries(ring, data.draw(st.dictionaries(expo, coeff, max_size=5)))
    for rhs in (y, g):
        x = MixedSeries._from_form(ring, series._solve(cap, b._form, rhs._form, a._form, zi, n))
        assert b * x + dense.z_shift_down(a * x, zi, n) == rhs
        assert_form(x)


def test_unit_inverse_rejects_vanishing_constant_term():
    z = zvar()
    with pytest.raises(CheckFailure, match="constant term vanishes"):
        dense.unit_inverse(z + z * z)


ENDO2 = SeriesRingSpec(2, s_vars=("T",), degree_cap=12)


def test_mult_endo_small_scalars():
    t = MixedSeries.variable(ENDO2, "T")
    assert mult_endo(2, ENDO2) == 2 * t + t * t
    assert mult_endo(1, ENDO2) == t
    minus = mult_endo(-1, ENDO2)
    expected = MixedSeries(ENDO2, {(k,): (-1) ** k for k in range(1, 13)})
    assert minus == expected


def test_mult_endo_rejects_non_integral():
    with pytest.raises(InputError):
        mult_endo(Fraction(1, 2), ENDO2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [0, 1, 7, -1, -6, Fraction(1, 3), Fraction(-5, 7), Fraction(4, 9)])
def test_mult_endo_matches_binomial_loop(p, r):
    """The recurrence of endo_apply gives the binomial loop's series, or its InputError."""
    ring = SeriesRingSpec(p, s_vars=("T",), degree_cap=DEGREE_CAP_BOUND)
    try:
        expected = dense.mult_endo(r, ring)
    except InputError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            mult_endo(r, ring)
        return
    assert mult_endo(r, ring).coeffs == expected.coeffs


def test_mult_endo_ring_and_integrality_checks(monkeypatch):
    monkeypatch.setattr(series, "endo_apply", lambda r, f: f * Fraction(1, 2))
    with pytest.raises(CheckFailure, match="not integral"):
        mult_endo(3, ENDO2)
    with pytest.raises(InputError, match="single-variable"):
        mult_endo(3, S_RING2)


def test_endo_to_scalar():
    t = MixedSeries.variable(ENDO2, "T")
    assert endo_to_scalar(2 * t + t * t) == 2
    assert endo_to_scalar(MixedSeries.zero(ENDO2)) == 0
    with pytest.raises(CheckFailure):
        endo_to_scalar(t * t)
    composed = endo_apply(3, mult_endo(5, ENDO2))
    assert endo_to_scalar(composed) == 15


def test_endo_to_scalar_rejects_tampered_series():
    t = MixedSeries.variable(ENDO2, "T")
    tampered = mult_endo(2, ENDO2) + t**5
    with pytest.raises(CheckFailure):
        endo_to_scalar(tampered)


def test_endo_fractional_scalar():
    third = mult_endo(Fraction(1, 3), ENDO2)
    assert endo_to_scalar(third) == Fraction(1, 3)
    # [3] o [1/3] = [1]
    t = MixedSeries.variable(ENDO2, "T")
    assert endo_apply(3, third) == t


def endo_apply_by_every_power(r, f):
    """Oracle for endo_apply: sums c_k f^k over every k up to the cap, zero c_k included."""
    out = MixedSeries.zero(f.ring)
    power = MixedSeries.const(f.ring, 1)
    c = Fraction(1)
    for k in range(1, f.ring.degree_cap + 1):
        power = power * f
        c = c * (Fraction(r) - k + 1) / k
        out = out + power * c
    return out


@pytest.mark.parametrize("r", [2, 5, 0, -1, -4, Fraction(2, 3)])
def test_endo_apply_by_degree_recurrence(monkeypatch, r):
    """endo_apply agrees with the sum over every power and makes no series product."""
    ring = SeriesRingSpec(2, s_vars=("T",), degree_cap=16)
    f = mult_endo(3, ring)
    expected = endo_apply_by_every_power(r, f)
    products = []
    series_mul = MixedSeries.__mul__

    def counting_mul(a, b):
        if isinstance(b, MixedSeries):
            products.append((a, b))
        return series_mul(a, b)

    monkeypatch.setattr(MixedSeries, "__mul__", counting_mul)
    assert endo_apply(r, f) == expected == mult_endo(3 * Fraction(r), ring)
    assert products == []


@pytest.mark.parametrize("r", [-3, -2, -1, 0, 1, 2, 3, Fraction(1, 3)])
@pytest.mark.parametrize("s", [-2, 3, Fraction(1, 3)])
def test_endo_composition_law(r, s):
    inner = mult_endo(s, ENDO2)
    assert endo_apply(r, inner) == mult_endo(Fraction(r) * Fraction(s), ENDO2)


def test_endo_group_law():
    ring = SeriesRingSpec(2, s_vars=("X", "Y"), degree_cap=8)
    x = MixedSeries.variable(ring, "X")
    y = MixedSeries.variable(ring, "Y")
    f_group = x + y + x * y
    for r in (2, -1):
        lhs = endo_apply(r, f_group)
        rx, ry = endo_apply(r, x), endo_apply(r, y)
        rhs = rx + ry + rx * ry
        assert lhs == rhs


def sparse_series(ring, data, max_terms=5, min_val=-3, max_degree=None):
    """Random sparse series whose total degree stays below max_degree."""
    nvars = len(ring.variables)
    if max_degree is None:
        max_degree = ring.degree_cap // 2
    terms = data.draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, max_degree) for _ in range(nvars))).filter(
                lambda e: sum(e) <= max_degree
            ),
            st.builds(
                lambda n, v: Fraction(n) * Fraction(ring.p) ** v,
                st.integers(-9, 9).filter(lambda n: n != 0),
                st.integers(min_val, 3),
            ),
            min_size=1,
            max_size=max_terms,
        )
    )
    return MixedSeries(ring, terms)


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=100, deadline=None)
def test_gauss_norm_multiplicative(p, data):
    ring = SeriesRingSpec(p, s_vars=("S",), t_vars=("T",), degree_cap=16)
    f = sparse_series(ring, data)
    g = sparse_series(ring, data)
    if f.is_zero() or g.is_zero():
        return
    assert gauss_valuation(f * g) == gauss_valuation(f) + gauss_valuation(g)


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=80, deadline=None)
def test_gauss_ultrametric(p, data):
    ring = SeriesRingSpec(p, s_vars=("S",), t_vars=("T",), degree_cap=16)
    f = sparse_series(ring, data)
    g = sparse_series(ring, data)
    vf, vg = gauss_valuation(f), gauss_valuation(g)
    vsum = gauss_valuation(f + g)
    assert vsum >= min(vf, vg)
    if vf != vg:
        assert vsum == min(vf, vg)


@given(st.sampled_from([2, 3]), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_gauss_power_multiplicative(p, k, data):
    ring = SeriesRingSpec(p, s_vars=("S",), degree_cap=16)
    f = sparse_series(ring, data, max_terms=3, max_degree=ring.degree_cap // k)
    if f.is_zero():
        return
    assert gauss_valuation(f**k) == k * gauss_valuation(f)


def test_substitute_requires_zero_constant():
    t = MixedSeries.variable(ENDO2, "T")
    with pytest.raises(InputError):
        substitute(t, {"T": t + 1})


def test_endo_apply_agrees_with_substitution():
    # two routes to [r] of a series: coefficientwise sum of binomial powers,
    # and substitution into the one-variable expansion
    t = MixedSeries.variable(ENDO2, "T")
    target = 2 * t + t * t * 3
    for r in (2, -1, 3, Fraction(1, 3)):
        direct = endo_apply(r, target)
        via_subst = substitute(mult_endo(r, ENDO2), {"T": target})
        assert direct == via_subst


@given(
    st.sampled_from([2, 3]),
    st.integers(-40, 40),
    st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_mult_endo_coefficients_are_p_integral(p, num, den):
    from ramcond.exact import p_valuation

    r = Fraction(num, den)
    if p_valuation(r, p) < 0:
        return
    ring = SeriesRingSpec(p, s_vars=("T",), degree_cap=10)
    f = mult_endo(r, ring)
    assert all(p_valuation(c, p) >= 0 for c in f.coeffs.values())


def binomial_oracle(r, k):
    """r(r-1)...(r-k+1)/k! by the product formula."""
    num = Fraction(1)
    for i in range(k):
        num *= r - i
    return num / factorial(k)


@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_binomial_recurrence_matches_product_formula(p, num, den):
    from ramcond.exact import p_valuation

    r = Fraction(num, den)
    if p_valuation(r, p) < 0:
        return
    ring = SeriesRingSpec(p, s_vars=("T",), degree_cap=24)
    expected = {}
    for k in range(1, 25):
        c = binomial_oracle(r, k)
        if c:
            expected[(k,)] = c
    assert mult_endo(r, ring).coeffs == expected
    assert endo_apply(r, MixedSeries.variable(ring, "T")).coeffs == expected


def test_symmetric_descent_sign_action():
    ring = SeriesRingSpec(3, s_vars=("s",), degree_cap=6)
    group = make_cyclic(2)
    s = MixedSeries.variable(ring, "s")
    action = {0: {"s": s}, 1: {"s": -s}}
    result = symmetric_descent(group, action)
    u1, u2 = result["s"]
    assert u1.is_zero()
    assert u2 == -(s * s)


def test_symmetric_descent_trivial_group():
    ring = SeriesRingSpec(3, s_vars=("s",), degree_cap=6)
    group = make_cyclic(1)
    s = MixedSeries.variable(ring, "s")
    result = symmetric_descent(group, {0: {"s": s}})
    assert result["s"] == [s]


def test_symmetric_descent_swap():
    ring = SeriesRingSpec(3, s_vars=("a", "b"), degree_cap=6)
    group = make_cyclic(2)
    a = MixedSeries.variable(ring, "a")
    b = MixedSeries.variable(ring, "b")
    action = {0: {"a": a, "b": b}, 1: {"a": b, "b": a}}
    result = symmetric_descent(group, action)
    assert result["a"] == [a + b, a * b]
    assert result["b"] == [a + b, a * b]


def test_symmetric_descent_mixed_blocks():
    # one formal and one power-bounded variable, negated simultaneously
    ring = SeriesRingSpec(5, s_vars=("s",), t_vars=("t",), degree_cap=6)
    group = make_cyclic(2)
    s = MixedSeries.variable(ring, "s")
    t = MixedSeries.variable(ring, "t")
    action = {0: {"s": s, "t": t}, 1: {"s": -s, "t": -t}}
    result = symmetric_descent(group, action)
    assert result["s"] == [MixedSeries.zero(ring), -(s * s)]
    assert result["t"] == [MixedSeries.zero(ring), -(t * t)]


def test_symmetric_descent_stabilized_orbit():
    # trivial action of a nontrivial group: the orbit multiset repeats s
    ring = SeriesRingSpec(3, s_vars=("s",), degree_cap=6)
    group = make_cyclic(2)
    s = MixedSeries.variable(ring, "s")
    action = {0: {"s": s}, 1: {"s": s}}
    result = symmetric_descent(group, action)
    assert result["s"] == [2 * s, s * s]


def test_symmetric_descent_rejects_non_action():
    ring = SeriesRingSpec(3, s_vars=("s",), degree_cap=6)
    group = make_cyclic(2)
    s = MixedSeries.variable(ring, "s")
    action = {0: {"s": s}, 1: {"s": s * 2}}  # squares to x4, not an involution
    with pytest.raises(InputError):
        symmetric_descent(group, action)


def _cyclic_shift_c3():
    """C3 permuting three variables a -> b -> c -> a; generating_set() is (1,)."""
    ring = SeriesRingSpec(3, s_vars=("a", "b", "c"), degree_cap=4)
    a, b, c = (MixedSeries.variable(ring, name) for name in ("a", "b", "c"))
    action = {
        0: {"a": a, "b": b, "c": c},
        1: {"a": b, "b": c, "c": a},
        2: {"a": c, "b": a, "c": b},
    }
    return make_cyclic(3), action, (a, b, c)


def test_symmetric_descent_cyclic_shift():
    group, action, (a, b, c) = _cyclic_shift_c3()
    assert group.generating_set() == (1,)
    result = symmetric_descent(group, action)
    assert result["a"] == [a + b + c, a * b + b * c + c * a, a * b * c]


@pytest.mark.parametrize("element", [2, 1], ids=["not-a-generator", "generator"])
def test_symmetric_descent_refuses_a_wrong_substitution(element):
    group, action, (a, b, c) = _cyclic_shift_c3()
    # element 2 acting as 1 does, or the generator 1 swapping a and b
    wrong = action[1] if element == 2 else {"a": b, "b": a, "c": c}
    with pytest.raises(InputError, match="not a homomorphism"):
        symmetric_descent(group, {**action, element: wrong})


def test_symmetric_descent_substitutes_on_the_generators_only(monkeypatch):
    group, action, _ = _cyclic_shift_c3()
    calls, tables = [], []
    real_substitute, real_tables = series._substitute, series._power_caches

    def counting(f, powers):
        calls.append(powers)
        return real_substitute(f, powers)

    def recording(ring, images):
        table = real_tables(ring, images)
        tables.append((images, table))
        return table

    monkeypatch.setattr(series, "_substitute", counting)
    monkeypatch.setattr(series, "_power_caches", recording)
    symmetric_descent(group, action)
    # 3 elements x 1 generator x 3 variables for the homomorphism, and
    # 3 variables x 3 outputs x 1 generator for the invariance
    assert len(calls) == 18
    assert len(tables) == 3 and all(images is action[a] for a, (images, _) in enumerate(tables))
    assert all(powers is tables[1][1] for powers in calls[9:])


def test_symmetric_descent_grows_each_power_table_once(monkeypatch):
    """C2 acting by X -> (1 + X)^-1 - 1 at cap 16.  The image has every
    degree 1..16, so the homomorphism check grows the table of each element
    to X^16 (15 products each); the invariance check substitutes the two
    outputs into the table of element 1, which holds every power already,
    and the elementary symmetric expansion takes 3 products."""
    ring = SeriesRingSpec(2, s_vars=("X",), degree_cap=16)
    x = MixedSeries.variable(ring, "X")
    inverse = endo_apply(-1, x)
    action = {0: {"X": x}, 1: {"X": inverse}}
    kernel = series._mul_forms
    calls = []

    def counting(cap, fa, fb):
        calls.append(1)
        return kernel(cap, fa, fb)

    monkeypatch.setattr(series, "_mul_forms", counting)
    result = symmetric_descent(make_cyclic(2), action)
    assert len(calls) == 2 * 15 + 3
    monkeypatch.undo()
    assert result["X"] == [x + inverse, x * inverse]
    assert substitute(x * inverse, action[1]) == x * inverse


def test_kernel_never_reads_the_coefficient_view(monkeypatch):
    """Products, sums, substitution, division, [r], the Gauss valuation and
    dilatation membership run on forms: reading ``coeffs`` raises."""
    z, s = zvar(), zvar("S")
    f = 2 * z**3 + z * z * Fraction(1, 5) + 2 * z + 2
    g = z**4 * Fraction(1, 4) + s * z**3 * Fraction(3, 7) + 1
    t = MixedSeries.variable(ENDO2, "T")
    target = 2 * t + t * t * 3
    disc = MixedSeries(DISC2, {(2,): Fraction(1, 4), (5,): Fraction(3, 8)})

    def no_view(self):
        raise AssertionError("the coefficient view was read")

    monkeypatch.setattr(MixedSeries, "coeffs", property(no_view))
    results = (
        f * g,
        f + g,
        f - g,
        substitute(g, {"Z": z + s * z, "S": s * s}),
        weierstrass_divide(g, f, "Z", 12),
        endo_apply(Fraction(1, 3), target),
        mult_endo(-2, ENDO2),
        endo_to_scalar(mult_endo(5, ENDO2)),
        gauss_valuation(g),
        [dilatation_member(disc, n) for n in range(4)],
    )
    monkeypatch.undo()
    assert results[0] == schoolbook_product(f, g)
    assert results[1].coeffs == {e: f.coeffs.get(e, 0) + g.coeffs.get(e, 0) for e in f.coeffs | g.coeffs}
    w = z + s * z
    assert results[3] == w**4 * Fraction(1, 4) + s * s * w**3 * Fraction(3, 7) + 1
    assert results[4] == dense.weierstrass_divide(g, f, "Z", 12)
    assert results[5] == endo_apply_by_every_power(Fraction(1, 3), target)
    assert results[6] == dense.mult_endo(-2, ENDO2)
    assert results[7] == 5
    assert results[8] == dense.gauss_valuation(g)
    assert results[9] == [dense.dilatation_member(disc, n) for n in range(4)]


def test_results_share_no_dict_with_their_inputs():
    """``_lowest_terms`` keeps the dicts it is given, which is safe only while
    every caller hands it dicts it has just built: no result of a product,
    sum, substitution, descent, division or [r] holds a dict of an input
    form, on integral series (den 1) where the kept path runs."""
    z, s = zvar(), zvar("S")
    f = z**3 + 2 * z * z + 2 * s * z + 2
    g = z**4 + s * z**3 - 1
    t = MixedSeries.variable(ENDO2, "T")
    target = t + t * t * 3
    ring = SeriesRingSpec(3, s_vars=("a", "b"), degree_cap=6)
    a, b = MixedSeries.variable(ring, "a"), MixedSeries.variable(ring, "b")
    action = {0: {"a": a, "b": b}, 1: {"a": b, "b": a}}
    one = MixedSeries.const(WRING, 1)
    inputs = [f, g, z, s, t, target, a, b, one]
    division = weierstrass_divide(g, z, "Z", 8)
    results = [
        f * g, f * one, one * f, f + g, f + 0, f - 0, f * 1, -f,
        substitute(g, {"Z": z, "S": s}), substitute(g, {"Z": z + s * z}),
        *symmetric_descent(make_cyclic(2), action)["a"],
        *weierstrass_divide(g, f, "Z", 8)[:2], *division[:2],
        endo_apply(1, target), endo_apply(-1, target),
    ]
    assert division.q == z**3 + s * z * z and division.r == MixedSeries.const(WRING, -1)
    held = {id(terms) for x in inputs for _, terms in x._form[1]}
    for x in results:
        assert not any(id(terms) in held for _, terms in x._form[1]), x


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"p": 3.0, "s_vars": ("T",)}, "3.0"),
        ({"p": True, "s_vars": ("T",)}, "True"),
        ({"p": "3", "s_vars": ("T",)}, "'3'"),
        ({"p": 3, "s_vars": "ST"}, "'ST'"),
        ({"p": 3, "t_vars": "T"}, "'T'"),
        ({"p": 3, "s_vars": 5}, "5"),
        ({"p": 3, "s_vars": ("S", 1)}, "1"),
        ({"p": 3, "t_vars": (b"T",)}, "b'T'"),
    ],
)
def test_ring_spec_refuses_non_int_primes_and_bare_names(kwargs, named):
    with pytest.raises(InputError, match=re.escape(named)):
        SeriesRingSpec(**kwargs)


@pytest.mark.parametrize("r", [0.5, 0.25, 2.0, "1/2", True, False, None])
def test_endo_scalars_must_be_int_or_fraction(r):
    t = MixedSeries.variable(ENDO2, "T")
    with pytest.raises(InputError, match=re.escape(repr(r))):
        mult_endo(r, ENDO2)
    with pytest.raises(InputError, match=re.escape(repr(r))):
        endo_apply(r, t)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
def test_power_and_dilatation_index_must_be_ints(k):
    s = MixedSeries.variable(DISC2, "S")
    with pytest.raises(InputError, match=re.escape(repr(k))):
        s**k
    with pytest.raises(InputError, match=re.escape(repr(k))):
        dilatation_member(s, k)
