"""Dense ``Fraction`` oracles for the integer forms.

The matrix product and inverse check the sparse matrix forms of
``ramcond.linalg``; the diagonal trace and the placed blocks check the trace
and the block builders that ``ramcond.characters`` and
``ramcond.conductors`` run on those forms; the pairing and induction,
summed in ``Fraction`` and ``CycloNum`` arithmetic, check the integer
class-function form of ``ramcond.characters``; the Weierstrass division on
``Fraction`` series checks the one that ``ramcond.series`` runs on integer
product forms, and the binomial loop and the geometric power sum check the
one recurrence for (1 + u)^r that ``ramcond.series`` evaluates [r] and unit
inverses by.
"""

from fractions import Fraction
from math import inf

from ramcond.characters import ClassFunction
from ramcond.errors import CheckFailure, InputError
from ramcond.exact import CycloNum, p_valuation
from ramcond.linalg import as_matrix, identity_matrix, rref
from ramcond.series import (
    VAL_BOUND_MAX,
    MixedSeries,
    WeierstrassResult,
    _z_low,
    gauss_valuation,
    is_distinguished,
)


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


def trace_diagonals(group, action):
    """``trace_character(group, action)`` as a ``Fraction`` sum of each matrix's diagonal."""
    values = []
    for g in range(group.order):
        m = action[g]
        values.append(sum((m[i][i] for i in range(len(m))), Fraction(0)))
    return ClassFunction(group, values, verified=True)


def place_blocks(n, blocks):
    """The n x n matrix that is zero outside the given ``(row, col, block)`` squares."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for r0, c0, block in blocks:
        for r, row in enumerate(block):
            m[r0 + r][c0 : c0 + len(row)] = row
    return tuple(tuple(row) for row in m)


def induced_action(sub, blocks):
    """The dense action induced from ``sub``, on which h acts by the square ``blocks[h]``."""
    grp = sub.parent
    transversal, coset_of = sub.left_transversal()
    d = len(blocks[0])
    action = {}
    for g in range(grp.order):
        placed = []
        for i, t in enumerate(transversal):
            gt = grp.mult(g, t)
            j = coset_of[gt]
            h = grp.mult(grp.inv(transversal[j]), gt)
            placed.append((j * d, i * d, blocks[h]))
        action[g] = place_blocks(d * len(transversal), placed)
    return action


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


def z_shift_down(f, zi, n):
    """The terms of f of z-degree at least n, divided by z^n, z the variable ``zi``."""
    out = {}
    for e, c in f.coeffs.items():
        if e[zi] >= n:
            shifted = tuple(x - n if j == zi else x for j, x in enumerate(e))
            out[shifted] = c
    return MixedSeries._clean(f.ring, out)


def mult_endo(r, ring):
    """[r](T) = (1 + T)^r - 1 by the binomial recurrence c_k = c_(k-1) (r - k + 1) / k."""
    if len(ring.variables) != 1:
        raise InputError("mult_endo needs a single-variable ring")
    r = Fraction(r)
    if p_valuation(r, ring.p) < 0:
        raise InputError(f"{r} is not a p-adic integer for p={ring.p}")
    out = {}
    c = Fraction(1)
    for k in range(1, ring.degree_cap + 1):
        c = c * (r - k + 1) / k
        if c == 0:
            break  # r is a natural number below k: every later coefficient vanishes
        if p_valuation(c, ring.p) < 0:
            raise CheckFailure("binomial coefficient of a p-adic integer not integral")
        out[(k,)] = c
    return MixedSeries._clean(ring, out)


def unit_inverse(b):
    """b^-1 = (1/c0) sum_k h^k with h = 1 - b/c0, summed in ``Fraction`` series arithmetic."""
    c0 = b.constant_term()
    if c0 == 0:
        raise CheckFailure("series inversion: constant term vanishes")
    h = MixedSeries.const(b.ring, 1) - b * (Fraction(1) / c0)
    out = MixedSeries.const(b.ring, 1)
    power = MixedSeries.const(b.ring, 1)
    for _ in range(b.ring.degree_cap):
        power = power * h
        if power.is_zero():
            break
        out = out + power
    return out * (Fraction(1) / c0)


def weierstrass_divide(g, f, z, val_bound=32):
    """``weierstrass_divide`` with every step in ``Fraction`` series arithmetic."""
    if type(val_bound) is not int or not 1 <= val_bound <= VAL_BOUND_MAX:
        raise InputError(f"val_bound must be an integer in 1..{VAL_BOUND_MAX}, got {val_bound!r}")
    if g.ring != f.ring:
        raise InputError("series ring spec mismatch")
    ok, n = is_distinguished(f, z)
    if not ok:
        raise InputError(f"divisor is not distinguished in {z}")
    zi = f.ring.index_of(z)
    a = _z_low(f, zi, n)
    b = z_shift_down(f, zi, n)
    binv = unit_inverse(b)

    tg = z_shift_down(g, zi, n)
    delta = binv * tg
    q = delta
    certified = inf
    vg = gauss_valuation(g)
    headroom = -vg if (not g.is_zero() and vg < 0) else 0
    max_iter = val_bound + 2 * f.ring.degree_cap + headroom + 64
    for _ in range(max_iter):
        if delta.is_zero():
            certified = inf
            break
        delta = -(binv * z_shift_down(delta * a, zi, n))
        if delta.is_zero():
            certified = inf
            break
        q = q + delta
        if gauss_valuation(delta) >= val_bound:
            certified = val_bound
            break
    else:
        raise CheckFailure("weierstrass division failed to stabilize")

    remainder_full = g - q * f
    r = _z_low(remainder_full, zi, n)
    return WeierstrassResult(q, r, certified)
