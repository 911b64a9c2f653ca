from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
from dense import det, mat_inv, mat_mul, mat_vec, rref, solve, transpose

from ramcond.errors import CheckFailure, InputError
from ramcond.exact import CycloNum
from ramcond.linalg import (
    echelon_coords,
    from_sparse,
    hnf_rows,
    integer_kernel,
    lattice_contains,
    read_matrix,
    sparse_mul,
)


def form_of(a):
    return read_matrix(a)[0]


def test_solve_unique():
    a = ((1, 2), (3, 5))
    x = solve(a, (1, 2))
    assert mat_vec(a, x) == (1, 2)


def test_solve_inconsistent_raises():
    with pytest.raises(CheckFailure):
        solve(((1, 0), (1, 0)), (1, 2))


def test_det_and_inverse():
    a = ((2, 1), (1, 1))
    assert det(a) == 1
    assert mat_mul(a, mat_inv(a)) == ((1, 0), (0, 1))
    assert det(((1, 2), (2, 4))) == 0


def test_rref_pivots():
    red, pivots = rref(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    assert pivots == (0, 1)
    assert red[0][0] == 1


def test_integer_kernel_saturated():
    # kernel of (2 4): the saturated lattice spanned by (-2, 1), not (4, -2)
    assert integer_kernel(((2, 4),)) == ((2, -1),)
    # rational rows are cleared first
    assert integer_kernel(((Fraction(1, 2), Fraction(1, 4)),)) == ((1, -2),)


def test_integer_kernel_full_and_empty():
    assert integer_kernel(((1, 0), (0, 1))) == ()
    assert integer_kernel(((0, 0),)) == ((1, 0), (0, 1))


def test_hnf_rows_examples():
    basis = hnf_rows([(2, 2), (2, -2), (0, 4)])
    assert abs(det(basis)) == 8
    assert lattice_contains(basis, (2, 2))
    assert lattice_contains(basis, (0, 4))
    assert not lattice_contains(basis, (1, 1))


def test_lattice_contains_edge_cases():
    assert lattice_contains((), (0, 0))
    assert not lattice_contains((), (1, 0))
    assert lattice_contains(((2, 0),), (4, 0))
    assert not lattice_contains(((2, 0),), (3, 0))
    assert not lattice_contains(((2, 0),), (0, 1))
    # dependent rows: the integer row span, not a full-rank solve
    assert lattice_contains(((1, 0), (2, 0)), (1, 0))
    assert lattice_contains(((2, 0), (4, 0)), (2, 0))
    assert not lattice_contains(((2, 0), (4, 0)), (1, 0))
    assert lattice_contains(((4, 6), (6, 9)), (2, 3))


@pytest.mark.parametrize("bad", [1.7, 1.0, 0.0, True, Fraction(1), "1"])
def test_lattice_routines_refuse_non_integer_entries(bad):
    # a float used to be truncated: hnf_rows([(1.7, 0)]) read as ((1, 0),)
    with pytest.raises(InputError):
        hnf_rows([(bad, 0)])
    with pytest.raises(InputError):
        lattice_contains(((bad, 0),), (1, 0))
    with pytest.raises(InputError):
        lattice_contains(((1, 0),), (bad, 0))


small_int_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in integer_kernel(m):
        assert all(x == 0 for x in mat_vec(m, v))


small_rational_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(-6, 6, max_denominator=4), min_size=n, max_size=n),
        min_size=1,
        max_size=n,
    )
)


@given(st.one_of(small_int_matrices, small_rational_matrices))
@settings(max_examples=80, deadline=None)
def test_integer_kernel_matches_column_reduction(m):
    kernel = integer_kernel(m)
    assert kernel == hnf_rows(dense.column_kernel(m))
    assert hnf_rows(kernel) == kernel


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_det_transpose(m):
    assert det(m) == det(transpose(m))


@given(small_int_matrices, small_int_matrices)
@settings(max_examples=40, deadline=None)
def test_det_multiplicative(a, b):
    if len(a) != len(b):
        return
    assert det(mat_mul(a, b)) == det(a) * det(b)


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_hnf_spans_same_lattice(rows):
    basis = hnf_rows(rows)
    for v in rows:
        assert lattice_contains(basis, v) or not any(v)
    for b in basis:
        # each basis vector is an integer combination of the input rows:
        # solve over Q against the input span and clear to integers via HNF
        assert lattice_contains(hnf_rows(rows), b)


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_hnf_rows_is_idempotent(rows):
    basis = hnf_rows(rows)
    assert hnf_rows(basis) == basis


@given(small_int_matrices, st.lists(st.integers(-6, 6), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_echelon_coords_match_rational_solve(rows, w):
    basis = hnf_rows(rows)
    v = tuple(w[: len(rows)])
    coords = echelon_coords(basis, v)
    try:
        expected = solve(transpose(basis), v) if basis else None if any(v) else ()
    except CheckFailure:  # v is outside the rational row span
        expected = None
    assert coords == expected


# entries with denominators prime to p = 2, mixed within one matrix; each value
# comes with its negative, so that terms of a product often cancel
_prime_to_2 = sorted(
    {Fraction(sign * n, d) for sign in (1, -1) for n in (0, 1, 2, 3) for d in (1, 3, 5, 9, 15)}
)
prime_to_2_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        *(
            st.lists(
                st.lists(st.sampled_from(_prime_to_2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
            for _ in range(2)
        )
    )
)


@given(prime_to_2_pairs)
@settings(max_examples=80, deadline=None)
def test_sparse_mul_matches_dense_product(pair):
    a, b = pair
    product = sparse_mul(form_of(a), form_of(b))
    assert product == form_of(mat_mul(a, b))
    assert from_sparse(product) == mat_mul(a, b)


@given(prime_to_2_pairs)
@settings(max_examples=40, deadline=None)
def test_sparse_mul_cancels_to_zero(pair):
    # columns 0 and 1 of A agree and row 1 of B is minus row 0, so those two
    # terms cancel in every entry; for 2 x 2 matrices the product is zero
    a, b = pair
    if len(a) < 2:
        return
    a = [[row[0], row[0], *row[2:]] for row in a]
    b = [b[0], [-x for x in b[0]], *b[2:]]
    product = sparse_mul(form_of(a), form_of(b))
    assert product == form_of(mat_mul(a, b))
    if len(a) == 2:
        assert product == (1, ({}, {}))


def test_sparse_mul_reduces_to_lowest_terms():
    third = ((Fraction(1, 3), 0), (0, Fraction(1, 3)))
    assert form_of(third) == (3, ({0: 1}, {1: 1}))
    assert sparse_mul(form_of(third), form_of(((3, 0), (0, 3)))) == (1, ({0: 1}, {1: 1}))
    assert sparse_mul(form_of(third), form_of(((3, 0), (0, 1)))) == (3, ({0: 3}, {1: 1}))


def test_sparse_mul_copies_a_unit_one_term_row():
    # row 0 of A is e_1 and row 1 is 2 e_0: the first is a copy of B's row
    # 1, a new dict, the second a scaled copy of row 0
    b = form_of(((1, 2), (3, 0)))
    product = sparse_mul(form_of(((0, 1), (2, 0))), b)
    assert product == (1, ({0: 3}, {0: 2, 1: 4}))
    assert product[1][0] == b[1][1] and product[1][0] is not b[1][1]


def test_sparse_rows_is_one_form_per_matrix():
    ints = ((0, -1), (1, -1))
    oracle = dense.sparse_rows(dense.as_matrix(ints))
    assert read_matrix(ints) == (oracle, 2) and oracle == (1, ({1: -1}, {0: 1, 1: -1}))
    assert from_sparse(form_of(ints)) == dense.as_matrix(ints)
    assert read_matrix(()) == ((1, ()), 0) and from_sparse((1, ())) == ()
    with pytest.raises(InputError, match="got CycloNum"):
        read_matrix(((CycloNum.zeta(3),),))


def test_as_matrix_keeps_fractions():
    # the oracle keeps a Fraction as it is; the reader stores ints unwrapped
    x = Fraction(2, 3)
    (row,) = dense.as_matrix(((x, 1),))
    assert row[0] is x and row[1] == 1 and type(row[1]) is Fraction
    (den, (stored, _)), width = read_matrix(((x, 1), (0, 5)))
    assert (den, stored, width) == (3, {0: 2, 1: 3}, 2)
    assert {type(v) for v in stored.values()} == {int}
    (den, rows), _ = read_matrix(((Fraction(4), 1), (0, -5)))
    assert (den, rows) == (1, ({0: 4, 1: 1}, {1: -5}))
    assert {type(v) for row in rows for v in row.values()} == {int}


def _entries():
    small = st.integers(-3, 3)
    return st.one_of(small, small, st.builds(Fraction, small, st.integers(1, 6)))


@st.composite
def dense_matrices(draw):
    """Rank 0 to 4: int and Fraction entries, some rows zero, some entries Fraction(0) or Fraction(k)."""
    n = draw(st.integers(0, 4))
    width = draw(st.integers(0, 4))
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 4)) == 0:
            rows.append([0] * width)
        else:
            rows.append(draw(st.lists(_entries(), min_size=width, max_size=width)))
    return rows


@given(dense_matrices())
@settings(max_examples=150, deadline=None)
def test_read_matrix_equals_the_two_pass_oracle(a):
    form, width = read_matrix(a)
    assert form == dense.sparse_rows(dense.as_matrix(a))
    assert width == (len(a[0]) if a else 0)
    assert all(type(v) is int and v for row in form[1] for v in row.values())
    # tuples, lists and generators of rows read alike
    assert read_matrix(tuple(map(tuple, a))) == read_matrix(iter(a)) == (form, width)


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1", CycloNum.zeta(3)])
def test_read_matrix_refuses_what_the_oracle_refuses(bad):
    # the first non-rational entry in row-major order is named, zeros included,
    # and before a ragged row is reported
    for a in ([[1, bad]], [[0, 0], [Fraction(1, 2), bad]], [[0], [bad, 1, 2], [5]]):
        with pytest.raises(InputError) as oracle:
            dense.as_matrix(a)
        with pytest.raises(InputError) as got:
            read_matrix(a)
        assert str(got.value) == str(oracle.value) == f"matrix entries must be int or Fraction, got {bad!r}"
    for a in ([[1, 2], [3]], [[1], [Fraction(1, 2), 0]], [[], [0]]):
        with pytest.raises(InputError, match="^ragged matrix$"):
            read_matrix(a)

