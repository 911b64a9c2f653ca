"""Dense ``Fraction`` matrix product and inverse, kept as test oracles for the sparse forms."""

from ramcond.errors import CheckFailure, InputError
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
