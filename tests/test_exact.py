import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcond import exact
from ramcond.errors import InputError
from ramcond.exact import (
    CycloNum,
    cyclotomic_polynomial,
    euler_phi,
    PRIME_BOUND,
    inverse_zeta_minus_one,
    is_prime,
    p_valuation,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


X = sympy.Symbol("x")


def as_expr(coeffs, power=1):
    """sum c_i * x^(i * power) as a sympy expression."""
    terms = (sympy.Rational(c.numerator, c.denominator) * X ** (i * power)
             for i, c in enumerate(coeffs))
    return sum(terms, sympy.Integer(0))


def sympy_reduce(expr, n):
    """expr modulo Phi_n over QQ, reduced by sympy: phi(n) Fractions, constant first."""
    r = sympy.rem(expr, sympy.cyclotomic_poly(n, X), X, domain=sympy.QQ)
    r = sympy.Poly(r, X, domain=sympy.QQ)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (euler_phi(n) - len(coeffs)))


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # X^6 - 1 divided by Phi_1 * Phi_2 * Phi_3, computed by hand
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_product_reconstructs_xn_minus_1(n):
    prod = (1,)
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, cyclotomic_polynomial(d))
    expected = tuple(-1 if i == 0 else 1 if i == n else 0 for i in range(n + 1))
    assert prod == expected


@pytest.mark.parametrize("n", range(1, 40))
def test_cyclotomic_degree_is_phi(n):
    poly = cyclotomic_polynomial(n)
    assert len(poly) - 1 == euler_phi(n)
    assert poly[-1] == 1


def test_p_valuation_examples():
    assert p_valuation(Fraction(9, 2), 3) == 2
    assert p_valuation(0, 2) == math.inf
    assert p_valuation(Fraction(1, 25), 5) == -2
    assert p_valuation(12, 2) == 2


@given(
    st.fractions(max_denominator=50).filter(lambda x: x != 0),
    st.fractions(max_denominator=50).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7]),
)
def test_p_valuation_is_additive(x, y, p):
    assert p_valuation(x * y, p) == p_valuation(x, p) + p_valuation(y, p)


def test_cyc_product_example():
    z = CycloNum.zeta(3)
    assert (z - 1) * (z * z - 1) == 3


def test_cyc_inverse_example():
    z = CycloNum.zeta(3)
    inv = inverse_zeta_minus_one(3, 1)
    assert inv == (z * z - 1) * Fraction(1, 3)
    assert inv * (z - 1) == 1


ORACLE_LEVELS = list(range(2, 25)) + [32, 48, 64]


@pytest.mark.parametrize("n", ORACLE_LEVELS)
def test_inverse_zeta_minus_one_matches_inverse(n):
    # every k, primitive or not: the closed form needs only zeta^k != 1, and
    # the defining identity checks it with field multiplication only
    for k in range(1, n):
        got = inverse_zeta_minus_one(n, k)
        assert got.level == n and got * (CycloNum.zeta(n, k) - 1) == 1
    assert inverse_zeta_minus_one(n, n + 1) == inverse_zeta_minus_one(n, 1)
    with pytest.raises(ZeroDivisionError):
        inverse_zeta_minus_one(n, n)


@pytest.mark.parametrize("n", [1] + ORACLE_LEVELS)
def test_zeta_table_matches_reduction(n):
    for m in range(-1, n + 1):
        assert CycloNum.zeta(n, m).coeffs == sympy_reduce(X ** (m % n), n)


def test_rational_fast_paths_match_general_path():
    rng = random.Random(5)
    for n in (2, 3, 5, 8, 12, 15):
        for _ in range(4):
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            # embed from level 1 pads with zeros; sympy's remainder is the reference
            assert CycloNum.from_rational(q).embed(n).coeffs == sympy_reduce(as_expr((q,)), n)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(n))]
            a = CycloNum(n, coeffs)
            # q embedded at level n takes the general multiply-and-reduce path
            general = a * CycloNum.from_rational(q, n)
            q1 = CycloNum.from_rational(q)
            for scaled in (a * q, q * a, a * q1, q1 * a):
                assert scaled.level == n and scaled.coeffs == general.coeffs
            k = q.numerator
            assert (a * k).coeffs == (a * CycloNum.from_rational(k, n)).coeffs
    half = CycloNum.from_rational(Fraction(1, 2))
    assert (half * 3).level == 1 and half * half == Fraction(1, 4)


@pytest.mark.parametrize("n", [5, 7, 9, 15, 16, 30, 64])
def test_field_operations_match_sympy_reduction(n):
    # products, embeddings, Galois twists and 1/(zeta^k - 1) against sympy's rem/invert mod Phi_n
    rng = random.Random(n)

    def draw():
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(n))]
        return CycloNum(n, coeffs)

    for _ in range(3):
        a, b = draw(), draw()
        assert (a * b).coeffs == sympy_reduce(as_expr(a.coeffs) * as_expr(b.coeffs), n)
    for m in (2 * n, 3 * n):
        assert a.embed(m).coeffs == sympy_reduce(as_expr(a.coeffs, m // n), m)
    for k in rng.sample([k for k in range(1, n) if math.gcd(k, n) == 1], 4):
        assert a.galois(k).coeffs == sympy_reduce(as_expr(a.coeffs, k), n)
    for k in rng.sample(range(1, n), 3):
        inv = sympy.invert(X**k - 1, sympy.cyclotomic_poly(n, X), X)
        assert inverse_zeta_minus_one(n, k).coeffs == sympy_reduce(inv, n)


# the levels of the tame-pairing benchmark workload
TAME_LEVELS = [8, 9, 10, 11, 12, 14, 15, 16, 18, 20, 21, 24, 28, 30, 32, 36, 40, 48, 64]


@pytest.mark.parametrize("n", TAME_LEVELS)
def test_held_tame_rows_match_sympy_cold_and_warm(n, monkeypatch):
    # every k against sympy's inverse mod Phi_n: the first read computes and
    # holds the row, the second (at k + n, the same key) reads the held one
    monkeypatch.setattr(exact, "_TAME_ROW_CACHE", {})
    phi_n = sympy.cyclotomic_poly(n, X)
    for k in range(1, n):
        want = sympy_reduce(sympy.invert(X**k - 1, phi_n, X), n)
        cold = inverse_zeta_minus_one(n, k)
        held = exact._TAME_ROW_CACHE[n, k]
        warm = inverse_zeta_minus_one(n, k + n)
        assert cold.coeffs == warm.coeffs == want, (n, k)
        assert exact._inverse_zeta_minus_one_row(n, k) is held
        assert held == tuple([c * 2 * n for c in want])  # the numerators over 2n
    assert len(exact._TAME_ROW_CACHE) == n - 1


def test_zeta_sum_relation():
    z = CycloNum.zeta(3)
    assert z + z * z == -1


def test_conjugate_examples():
    z = CycloNum.zeta(3)
    assert z.conjugate() == z * z
    assert z.conjugate() == -1 - z
    half = CycloNum.from_rational(Fraction(5, 2))
    assert half.conjugate() == Fraction(5, 2)
    # conj(1/(zeta - 1)) = 1/(zeta^-1 - 1) = 1/(zeta^2 - 1)
    assert inverse_zeta_minus_one(3, 1).conjugate() == inverse_zeta_minus_one(3, 2)


def test_rational_part():
    z = CycloNum.zeta(3)
    ok, val = (z + z * z).rational_part()
    assert ok and val == -1
    ok, val = z.rational_part()
    assert not ok and val is None
    ok, val = ((z - 1) * (z * z - 1) * Fraction(1, 3)).rational_part()
    assert ok and val == 1


def test_level_promotion_and_equality():
    one_a = CycloNum.from_rational(1)
    one_b = CycloNum.from_rational(1, level=6)
    assert one_a == one_b
    z6 = CycloNum.zeta(6)
    z3 = CycloNum.zeta(3)
    assert z6 * z6 == z3
    assert z6 * z6 * z6 == -1


def test_division_by_zero():
    # zeta^k - 1 is zero exactly when n divides k
    for k in (0, 3, -3, 6):
        with pytest.raises(ZeroDivisionError):
            inverse_zeta_minus_one(3, k)


@pytest.mark.parametrize("level", [True, False, 2.0, 3.5, "3", Fraction(3), None, 0, -2])
def test_cyclonum_level_is_a_positive_int(level):
    message = f"CycloNum level must be a positive int, got {level!r}"
    for build in (
        lambda: CycloNum(level, (1,)),
        lambda: CycloNum.zeta(level),
        lambda: CycloNum.from_rational(1, level),
        lambda: inverse_zeta_minus_one(level, 1),
        lambda: CycloNum.zeta(1).embed(level),
        lambda: CycloNum.zeta(4).embed(level),
    ):
        with pytest.raises(InputError) as excinfo:
            build()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", Fraction(1), None])
def test_exponents_are_ints(bad):
    z4 = CycloNum.zeta(4)
    inverse_zeta_minus_one(4, 1)  # a held (4, 1) row must not answer for 1.0 or True
    for call, what in (
        (lambda: CycloNum.zeta(3, bad), "zeta exponent"),
        (lambda: z4.galois(bad), "galois exponent"),
        (lambda: inverse_zeta_minus_one(4, bad), "exponent"),
    ):
        with pytest.raises(InputError) as excinfo:
            call()
        assert str(excinfo.value) == f"{what} must be an int, got {bad!r}"


def test_cyclonum_product_reads_its_scalar_strictly():
    z = CycloNum.zeta(3)
    with pytest.raises(InputError) as excinfo:
        z * True
    assert str(excinfo.value) == "True is not an int or a Fraction"
    with pytest.raises(InputError) as excinfo:
        True * z
    assert str(excinfo.value) == "True is not an int or a Fraction"
    assert z * 2 == 2 * z == z + z and z * Fraction(1, 2) + z * Fraction(1, 2) == z


@pytest.mark.parametrize(
    "op",
    [
        lambda z: z * 0.5,
        lambda z: 0.5 * z,
        lambda z: z + 0.5,
        lambda z: 0.5 + z,
        lambda z: z - 0.5,
        lambda z: 0.5 - z,
    ],
)
def test_cyclonum_refuses_a_float_operand(op):
    with pytest.raises(InputError) as excinfo:
        op(CycloNum.zeta(3))
    assert str(excinfo.value) == "0.5 is not an int or a Fraction"


def test_cyclonum_equality_with_a_non_number_is_not_implemented():
    z = CycloNum.zeta(3)
    for other in ("1", None, object(), (1,)):
        assert z.__eq__(other) is NotImplemented
        assert (z == other) is False and (z != other) is True
    # nor is a float compared, though + and * refuse it
    assert z.__eq__(0.5) is NotImplemented
    # an operand that is no number gets its own reflected operation
    assert z.__mul__("x") is NotImplemented and z.__add__("x") is NotImplemented


def test_p_valuation_requires_prime():
    with pytest.raises(InputError):
        p_valuation(Fraction(1, 2), 4)


def test_is_prime_budget():
    assert is_prime(PRIME_BOUND - 5)  # 2**32 - 5, the largest prime below the budget
    assert not is_prime(PRIME_BOUND - 1)
    for n in (PRIME_BOUND, 1000000000000000000000000000057):
        with pytest.raises(InputError):
            is_prime(n)
        with pytest.raises(InputError):
            p_valuation(Fraction(1, 2), n)


levels = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])


@st.composite
def cyclo_numbers(draw, nonzero=False):
    n = draw(levels)
    phi = euler_phi(n)
    coeffs = draw(
        st.lists(
            st.fractions(max_denominator=6),
            min_size=phi,
            max_size=phi,
        )
    )
    x = CycloNum(n, coeffs)
    if nonzero and not x:
        x = x + 1
    return x


@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
@settings(max_examples=60, deadline=None)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(cyclo_numbers(nonzero=True))
@settings(max_examples=60, deadline=None)
def test_mul_inverse(a):
    # the inverse comes from sympy; only the product is ramcond's
    inv = sympy.invert(as_expr(a.coeffs), sympy.cyclotomic_poly(a.level, X), X)
    assert a * CycloNum(a.level, sympy_reduce(inv, a.level)) == 1


@given(cyclo_numbers(), cyclo_numbers())
@settings(max_examples=60, deadline=None)
def test_conjugate_is_ring_hom(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(cyclo_numbers())
@settings(max_examples=60, deadline=None)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a


def test_str_rendering():
    assert str(inverse_zeta_minus_one(3, 1)) == "-2/3 - 1/3*ζ_3"
    assert str(CycloNum.from_rational(Fraction(-1, 2))) == "-1/2"
    assert str(CycloNum.from_rational(0)) == "0"


def test_approx_matches_embedding():
    z = CycloNum.zeta(5)
    w = z.approx()
    assert abs(w - complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-12
