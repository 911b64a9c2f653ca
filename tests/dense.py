"""Dense ``Fraction`` oracles for the integer forms.

The matrix product and inverse check the sparse matrix forms of
``ramcond.linalg``; the pairing and induction, summed in ``Fraction`` and
``CycloNum`` arithmetic, check the integer class-function form of
``ramcond.characters``.
"""

from fractions import Fraction

from ramcond.characters import ClassFunction
from ramcond.errors import CheckFailure, InputError
from ramcond.exact import CycloNum
from ramcond.linalg import as_matrix, identity_matrix, rref


def mat_mul(a, b):
    """Matrix product; works for any entries supporting + and * (e.g. CycloNum)."""
    if a and b and len(a[0]) != len(b):
        raise InputError("matrix dimension mismatch")
    bt = tuple(zip(*b)) if b else ()
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_inv(a):
    n = len(a)
    aug = tuple(tuple(row) + irow for row, irow in zip(as_matrix(a), identity_matrix(n)))
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise CheckFailure("matrix not invertible")
    return tuple(row[n:] for row in red)


def pair_rational(f, g):
    """``pair(f, g)`` for a rational ``g``, summed on ``Fraction`` coefficient vectors."""
    grp = f.group
    acc = [Fraction(0)] * len(f.values[0].coeffs)
    for s in range(grp.order):
        q = g.values[grp.inv(s)].coeffs[0]
        if q:
            for i, c in enumerate(f.values[s].coeffs):
                acc[i] += q * c
    return CycloNum(f.level, tuple(c / grp.order for c in acc))


def induce_sum(f, sub):
    """``induce(f, sub)`` by |G|^2 ``CycloNum`` additions and |G| multiplications."""
    grp = sub.parent
    _, to_sub, _ = sub.as_group()
    values = []
    for s in range(grp.order):
        acc = CycloNum.from_rational(0)
        for t in range(grp.order):
            c = grp.conj(t, s)
            if c in to_sub:
                acc = acc + f.values[to_sub[c]]
        values.append(acc * Fraction(1, sub.order))
    return ClassFunction(grp, values)
