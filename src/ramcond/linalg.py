"""Exact rational matrices in one sparse integer form, plus integer-lattice routines.

Matrices are tuples of row tuples, meant for small dimensions (module ranks
and group orders of a few dozen).  The one matrix product, :func:`sparse_mul`,
works on the one form of a matrix, :func:`sparse_rows`: its rows as
``{col: int}`` maps over the least common denominator.  So products cost
O(nonzeros) and compare with ``==``.  Module actions are stored in this form;
their dense ``Fraction`` view (:func:`from_sparse`) is built only when
something reads it.  The lattice routines are integer reductions: unimodular
column reduction for kernels (with a left inverse), row reduction to a
Hermite basis, and one triangular pass for coordinates on that basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


def _not_rational(x):
    return InputError(f"matrix entries must be int or Fraction, got {x!r}")


def _as_rational(x):
    if type(x) is int:
        return Fraction(x)
    raise _not_rational(x)


def as_matrix(rows):
    """Coerce nested iterables of ints and Fractions into a canonical matrix.

    A Fraction is kept as it is; any other entry (bool, float, str, CycloNum)
    raises InputError.
    """
    mat = tuple([
        tuple([x if type(x) is Fraction else _as_rational(x) for x in row]) for row in rows
    ])
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise InputError("ragged matrix")
    return mat


def identity_form(n):
    """The :func:`sparse_rows` form of the n x n identity matrix."""
    return 1, tuple([{i: 1} for i in range(n)])


def sparse_rows(a):
    """The form ``(den, rows)`` of a rational matrix, with ``a[i][j] == rows[i].get(j, 0) / den``.

    ``den`` is the least common denominator of the entries, every stored
    value is a nonzero int and zeros are left out, so equal matrices have
    equal forms.  A non-rational entry raises InputError.
    """
    rows = tuple([[(j, x) for j, x in enumerate(row) if x] for row in a])
    bad = [x for row in rows for _, x in row if not isinstance(x, (int, Fraction))]
    if bad:
        raise _not_rational(bad[0])
    den = lcm(*[x.denominator for row in rows for _, x in row])
    return den, tuple([
        {j: x.numerator * (den // x.denominator) for j, x in row} for row in rows
    ])


def sparse_mul(a, b):
    """The :func:`sparse_rows` form of ``A B`` from the forms of A and B.

    Adds integer products over ``den_a * den_b``, then divides the
    denominator and the numerators by their gcd, so the result is the one
    form of the product.  The cost is O(nonzeros): a product of monomial
    matrices takes O(d).
    """
    (den_a, ra), (den_b, rb) = a, b
    rows = []
    for arow in ra:
        acc = {}
        for k, x in arow.items():
            for j, y in rb[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        rows.append({j: v for j, v in acc.items() if v})
    den = den_a * den_b
    if den != 1:
        g = gcd(den, *[v for row in rows for v in row.values()])
        if g != 1:
            den //= g
            rows = [{j: v // g for j, v in row.items()} for row in rows]
    return den, tuple(rows)


def from_sparse(form):
    """The square ``Fraction`` matrix of a :func:`sparse_rows` form."""
    den, rows = form
    zero = Fraction(0)
    n = range(len(rows))
    return tuple([tuple([Fraction(row[j], den) if j in row else zero for j in n]) for row in rows])


def _int_rows(a):
    """Scale each row to integers (kernel and row span are unchanged)."""
    out = []
    for row in as_matrix(a):
        scale = lcm(*[x.denominator for x in row]) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def integer_kernel(a):
    """Basis of {x in Z^d : A x = 0} for a rational matrix A, with a left inverse.

    Unimodular column reduction A U; the columns of U over the columns of
    A U that vanish span the full (saturated) integer kernel, not merely a
    finite-index sublattice.  Returns ``(kernel, left)``: those columns of U
    and the matching rows of U^-1, so ``left`` sends each x in the span of
    the kernel to its coordinates there.
    """
    m = _int_rows(a)
    nrows = len(m)
    d = len(m[0]) if nrows else 0
    # columns of A paired with columns of the unimodular transform, and rows of its inverse
    acols = [[m[r][c] for r in range(nrows)] for c in range(d)]
    ucols = [[1 if i == c else 0 for i in range(d)] for c in range(d)]
    urows = [[1 if i == c else 0 for i in range(d)] for c in range(d)]
    active = list(range(d))
    for r in range(nrows):
        live = [j for j in active if acols[j][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(acols[j][r]))
            piv = live[0]
            pv = acols[piv][r]
            for j in live[1:]:
                q = acols[j][r] // pv
                if q:
                    acols[j] = [x - q * y for x, y in zip(acols[j], acols[piv])]
                    ucols[j] = [x - q * y for x, y in zip(ucols[j], ucols[piv])]
                    # col j -= q * col piv on U is row piv += q * row j on its inverse
                    urows[piv] = [x + q * y for x, y in zip(urows[piv], urows[j])]
            live = [j for j in live if acols[j][r] != 0]
        if live:
            active.remove(live[0])
    return tuple([tuple(ucols[j]) for j in active]), tuple([tuple(urows[j]) for j in active])


def _int_vector(v):
    """The entries of v as a list; an entry that is not an int (bool, float) is an InputError."""
    v = list(v)
    for x in v:
        if type(x) is not int:
            raise InputError(f"lattice entries must be integers, got {x!r}")
    return v


def hnf_rows(vectors):
    """Hermite-style basis (as rows) of the lattice spanned by integer rows."""
    rows = [v for v in map(_int_vector, vectors) if any(v)]
    if not rows:
        return ()
    d = len(rows[0])
    r = 0
    for c in range(d):
        live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(rows[i][c]))
            piv = live[0]
            pv = rows[piv][c]
            for i in live[1:]:
                q = rows[i][c] // pv
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[piv])]
            live = [i for i in live if rows[i][c] != 0]
        i = live[0]
        rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pv = rows[r][c]
        for i in range(r):
            q = rows[i][c] // pv
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple([tuple(row) for row in rows[:r]])


def echelon_coords(h, v):
    """Coordinates x with sum_i x_i h_i == v, for integer echelon rows h as :func:`hnf_rows` gives.

    One pass down the rows: x_i is what is left of v at the pivot of h_i, over
    that pivot; the rest stays integral over a running scale.  None if v is
    outside the rational row span of h.
    """
    rest, scale = list(v), 1  # what is left of v, times scale
    coords = []
    for row in h:
        c = next(j for j, x in enumerate(row) if x)
        g = gcd(rest[c], row[c])
        a, b = row[c] // g, rest[c] // g
        coords.append(Fraction(b, scale * a))
        if b:
            rest = [a * x - b * y for x, y in zip(rest, row)]
            scale *= a
    return None if any(rest) else tuple(coords)


def lattice_contains(basis_rows, v):
    """Is the integer vector v in the integer row span of basis_rows (which may be dependent)?"""
    coords = echelon_coords(hnf_rows(basis_rows), _int_vector(v))
    return coords is not None and all(c.denominator == 1 for c in coords)
