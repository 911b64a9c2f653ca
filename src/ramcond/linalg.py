"""Exact rational matrices in one sparse integer form, plus integer-lattice routines.

Matrices are tuples of row tuples, meant for small dimensions (module ranks
and group orders of a few dozen).  A dense matrix of ints and ``Fraction``
entries is read once, by :func:`read_matrix`, into the one form of a matrix:
its rows as ``{col: int}`` maps over the least common denominator.  The one
matrix product, :func:`sparse_mul`, works on that form, so products cost
O(nonzeros), a one-term row is a scaled copy of a row, and forms compare
with ``==``.  Module actions are stored in this form; their dense
``Fraction`` view (:func:`from_sparse`) is built only when something reads
it.  The lattice routines rest on one integer reduction, row reduction to a
Hermite basis; kernels are read off it, so they come on Hermite bases too,
and one triangular pass gives coordinates on such a basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter

from .errors import InputError

_RATIONAL = frozenset((int, Fraction))
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def identity_form(n):
    """The :func:`read_matrix` form of the n x n identity matrix."""
    return 1, tuple([{i: 1} for i in range(n)])


def read_matrix(a):
    """``(form, width)``: the form ``(den, rows)`` of a dense rational matrix, and its row width.

    ``a[i][j] == rows[i].get(j, 0) / den``: ``den`` is the least common
    denominator of the entries, every stored value is a nonzero int and
    zeros are left out, so equal matrices have equal forms.  The entries are
    read once.  Each must be an ``int`` or a ``Fraction``: a ``bool``,
    ``float``, ``str`` or ``CycloNum`` is an InputError naming the first in
    row-major order.  Then every row must be as wide as the first, or the
    matrix is ragged.  Ints are stored as they are; a matrix with a
    ``Fraction`` entry is scaled to its denominator.  The width of a matrix
    with no rows is 0.
    """
    rows = [tuple(row) for row in a]
    flat = list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if not kinds <= _RATIONAL:
        bad = next(x for x in flat if type(x) not in _RATIONAL)
        raise InputError(f"matrix entries must be int or Fraction, got {bad!r}")
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise InputError("ragged matrix")
    den = 1
    if Fraction in kinds:
        den = lcm(*map(_denominator, flat))
        if den == 1:
            rows = [map(_numerator, row) for row in rows]
        else:
            rows = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return (den, tuple([{j: x for j, x in enumerate(row) if x} for row in rows])), width


def sparse_mul(a, b):
    """The :func:`read_matrix` form of ``A B`` from the forms of A and B.

    Adds integer products over ``den_a * den_b``, then divides the
    denominator and the numerators by their gcd, so the result is the one
    form of the product.  The cost is O(nonzeros): a product of monomial
    matrices takes O(d).  A row of A with one entry x, at column k, gives
    x times row k of B, copied without an accumulator: x and every stored
    y are nonzero, so no product is zero and nothing is filtered.  At
    x = 1 (a permutation row) the copy is ``dict.copy``.
    """
    (den_a, ra), (den_b, rb) = a, b
    rows = []
    for arow in ra:
        if len(arow) == 1:
            ((k, x),) = arow.items()
            rows.append(rb[k].copy() if x == 1 else {j: x * y for j, y in rb[k].items()})
            continue
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
    """The square ``Fraction`` matrix of a :func:`read_matrix` form."""
    den, rows = form
    zero = Fraction(0)
    n = range(len(rows))
    return tuple([tuple([Fraction(row[j], den) if j in row else zero for j in n]) for row in rows])


def integer_kernel(a):
    """Hermite basis of the full (saturated) integer kernel {x in Z^d : A x = 0} of a rational A.

    Row c of ``[den A^T | I_d]`` pairs column c of ``den * A`` with e_c.  Row
    reduction is unimodular, so the e-parts of the last Hermite rows, those
    whose A-part vanishes, are a Hermite basis of the kernel (Cohen, *A Course
    in Computational Algebraic Number Theory*, 2.4).
    """
    (_, rows), d = read_matrix(a)
    n, cols = len(rows), range(d)
    h = hnf_rows([[row.get(c, 0) for row in rows] + [int(i == c) for i in cols] for c in cols])
    return tuple([row[n:] for row in h if not any(row[:n])])


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
