"""Dense ``Fraction`` oracles for the integer forms.

The matrix product and inverse check the sparse matrix forms of
``ramcond.linalg``; the diagonal trace and the placed blocks check the trace
and the block builders that ``ramcond.characters`` and
``ramcond.conductors`` run on those forms; the pairing (one ``CycloNum``
product per element) and induction, summed in ``Fraction`` and ``CycloNum``
arithmetic, check the integer class-function form of
``ramcond.characters``, valuewise conjugation builds the conj(bA) that
the tests pair and compare, and the ``CycloNum``-valued
``bisection``, ``artin_character`` and ``trace_forms`` check the builders
that hand that form over (the tame values of ``bisection`` by
``cyclo_inverse``, a solve on the matrix of multiplication, not from the
rows ``ramcond.exact`` holds); the Weierstrass division on
``Fraction`` series checks the one that ``ramcond.series`` runs on integer
forms, the minimum over the coefficients' valuations checks the Gauss
valuation and dilatation membership that it reads off the gcd of the
numerators, and the binomial loop and the geometric power sum check the
one recurrence for (1 + u)^r that ``ramcond.series`` evaluates [r] and unit
inverses by.  Gauss-Jordan elimination (``rref``, ``solve``, ``det``) with
``mat_vec``, ``mat_sub`` and ``transpose`` drives the dense idempotent
split (``split_actions``, one rational solve per element and basis vector,
on idempotents such as ``averaging_idempotent`` over a subgroup),
lattice adaptation (``adapt_lattice``, ``adapt_lattice_pair``) and basis
check (``check_adapted_basis``, by determinant) that check the integer
reductions ``ramcond.conductors`` runs them on; their kernels come from a
unimodular column reduction (``column_kernel``), which checks the kernels
that ``ramcond.linalg`` reads off a Hermite basis.  The validating
restriction (intersected chain, restricted omega dict, ``ram_data``) checks
the literal restriction of the break function that ``ramcond.ramification``
makes, and the all-pairs exponent and commutator loop
(``quotient_refusal``) checks the filtration quotients it reads on
generators.  The full cube of associativity triples, the two-sided closure with
its greedy generating sets (largest element order first, and ascending as a
bound on its size), the closure-growth subgroup enumeration and the
conjugation loops for classes and normality check the checks and
enumerations that ``ramcond.groups`` runs on generators, and the orbits
under conjugation and coprime powers check the rational classes it reads
off the held classes and element orders.  ``as_matrix``
with ``sparse_rows``, a coercion to ``Fraction`` rows and a second read of
their nonzero entries, checks the one-pass reader ``ramcond.linalg.read_matrix``,
and ``read_matrices`` on them, with its checks in their old order, checks the
module reader of ``ramcond.conductors``.
"""

from fractions import Fraction
from math import gcd, inf, lcm

from ramcond.characters import ClassFunction
from ramcond.errors import CheckFailure, InputError
from ramcond.exact import CycloNum, p_valuation
from ramcond.groups import subgroup
from ramcond.linalg import from_sparse, hnf_rows
from ramcond.ramification import i_gamma, ram_data
from ramcond.series import (
    VAL_BOUND_MAX,
    MixedSeries,
    WeierstrassResult,
    is_distinguished,
)


def _not_rational(x):
    return InputError(f"matrix entries must be int or Fraction, got {x!r}")


def as_matrix(rows):
    """Coerce nested iterables of ints and Fractions into a ``Fraction`` matrix; all else is refused."""
    mat = []
    for row in rows:
        out = []
        for x in row:
            if type(x) is not int and type(x) is not Fraction:
                raise _not_rational(x)
            out.append(x if type(x) is Fraction else Fraction(x))
        mat.append(tuple(out))
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise InputError("ragged matrix")
    return tuple(mat)


def sparse_rows(a):
    """The form ``(den, rows)`` of a rational matrix, read from its nonzero entries one by one."""
    rows = tuple([[(j, x) for j, x in enumerate(row) if x] for row in a])
    bad = [x for row in rows for _, x in row if not isinstance(x, (int, Fraction))]
    if bad:
        raise _not_rational(bad[0])
    den = lcm(*[x.denominator for row in rows for _, x in row])
    return den, tuple([
        {j: x.numerator * (den // x.denominator) for j, x in row} for row in rows
    ])


def read_matrices(group, given, what):
    """Forms of dense matrices on element ids: each coerced, then ids, one rank and squareness checked."""
    matrices = {g: as_matrix(m) for g, m in given.items()}
    for g in matrices:
        if not 0 <= g < group.order:
            raise InputError(f"{what} {g} is not an element id of {group.name}")
    ranks = {len(m) for m in matrices.values()}
    if len(ranks) != 1:
        raise InputError(f"{what} matrices must share one rank")
    (d,) = ranks
    if any(len(row) != d for m in matrices.values() for row in m):
        raise InputError(f"{what} matrices must be square")
    return {g: sparse_rows(m) for g, m in matrices.items()}


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


def identity_matrix(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def det(a):
    """Determinant by Gaussian elimination over ``Fraction``."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [list(map(Fraction, row)) for row in a]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * d


def solve(a, b):
    """Solve A x = b exactly; A must have full column rank."""
    a = as_matrix(a)
    b = tuple(Fraction(x) for x in b)
    if len(a) != len(b):
        raise InputError("solve: shape mismatch")
    cols = len(a[0]) if a else 0
    aug = tuple(row + (bv,) for row, bv in zip(a, b))
    red, pivots = rref(aug)
    if cols in pivots:
        raise CheckFailure("solve: inconsistent linear system")
    if len(pivots) != cols:
        raise CheckFailure("solve: matrix does not have full column rank")
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return tuple(x)


def mat_inv(a):
    n = len(a)
    aug = tuple(tuple(row) + irow for row, irow in zip(as_matrix(a), identity_matrix(n)))
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise CheckFailure("matrix not invertible")
    return tuple(row[n:] for row in red)


def column_kernel(a):
    """Basis of the saturated kernel {x in Z^d : A x = 0}, by unimodular column reduction.

    Each row of A is cleared of its own denominators; then A U is reduced
    column by column, and the columns of U over the columns of A U that
    vanish span the full integer kernel.
    """
    m = []
    for row in as_matrix(a):
        den = lcm(*[x.denominator for x in row])
        m.append([int(x * den) for x in row])
    d = len(m[0]) if m else 0
    acols = [[row[c] for row in m] for c in range(d)]
    ucols = [[int(i == c) for i in range(d)] for c in range(d)]
    active = list(range(d))
    for r in range(len(m)):
        live = [j for j in active if acols[j][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(acols[j][r]))
            piv = live[0]
            for j in live[1:]:
                q = acols[j][r] // acols[piv][r]
                acols[j] = [x - q * y for x, y in zip(acols[j], acols[piv])]
                ucols[j] = [x - q * y for x, y in zip(ucols[j], ucols[piv])]
            live = [j for j in live if acols[j][r] != 0]
        if live:
            active.remove(live[0])
    return tuple([tuple(ucols[j]) for j in active])


def _kernel_gens(e):
    """Hermite bases of the integer kernels of 1 - E and E, by :func:`column_kernel`."""
    ident = identity_matrix(len(e))
    return hnf_rows(column_kernel(mat_sub(ident, e))), hnf_rows(column_kernel(e))


def averaging_idempotent(m, elems):
    """(1/|H|) sum of M(h) over H, read from the forms so the module's dense view stays unbuilt."""
    d = m.rank
    acc = [[Fraction(0)] * d for _ in range(d)]
    for h in elems:
        for r, row in enumerate(from_sparse(m.forms[h])):
            for c, x in enumerate(row):
                acc[r][c] += x / len(elems)
    return tuple(tuple(row) for row in acc)


def restricted_action(m, basis_rows):
    """Action matrices in the coordinates of a stable lattice basis (rows), one solve per image."""
    if not basis_rows:
        return {g: () for g in range(m.group.order)}
    bt = transpose(as_matrix(basis_rows))
    action = {}
    for g in range(m.group.order):
        cols = [solve(bt, mat_vec(m.action[g], v)) for v in basis_rows]
        action[g] = transpose(as_matrix(cols))
    return action


def split_actions(m, e):
    """The dense actions of ``split_idempotent(m, e)`` on its image and kernel lattices."""
    plus_rows, minus_rows = _kernel_gens(as_matrix(e))
    return restricted_action(m, plus_rows), restricted_action(m, minus_rows)


def adapt_lattice(m, e, precision=8, within=None):
    """The basis ``adapt_lattice`` returns, from dense images and rational solves."""
    gens = [v for rows in _kernel_gens(as_matrix(e)) for v in rows]
    mod = m.p**precision
    if within is not None:
        bt = transpose(as_matrix(within))
        approx = []
        for v in gens:
            lifted = [
                Fraction((c.numerator * pow(c.denominator, -1, mod)) % mod) for c in solve(bt, v)
            ]
            approx.append(tuple(int(x) for x in mat_vec(bt, lifted)))
        gens = approx
    span = [
        tuple(int(x) for x in mat_vec(m.action[g], v)) for v in gens for g in range(m.group.order)
    ]
    return hnf_rows(span)


def adapt_lattice_pair(m, e_inner, e_outer, precision=8):
    outer = adapt_lattice(m, e_outer, precision)
    return adapt_lattice(m, e_inner, precision, within=outer), outer


def check_adapted_basis(m, e, basis):
    """``check_adapted_basis`` on an integral module and integer basis, by determinant and solves."""
    e = as_matrix(e)
    d = m.rank
    if len(basis) != d or any(len(row) != d for row in basis):
        raise CheckFailure("adapted basis has the wrong shape")
    dval = det(basis)
    if dval == 0:
        raise CheckFailure("adapted basis is singular")
    if p_valuation(dval, m.p) != 0:
        raise CheckFailure(f"adapted basis index {abs(dval)} is not a p-unit")
    bt = transpose(as_matrix(basis))
    for g in m.group.generating_set():
        for v in basis:
            if any(c.denominator != 1 for c in solve(bt, mat_vec(m.action[g], v))):
                raise CheckFailure("adapted basis is not action-stable")
    for v in basis:
        if any(p_valuation(c, m.p) < 0 for c in solve(bt, mat_vec(e, v))):
            raise CheckFailure("idempotent does not preserve the adapted lattice p-integrally")
    return True


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


def pair_by_values(f, g):
    """``pair(f, g)`` as |G|^-1 sum_s f(s) g(s^-1), one ``CycloNum`` product per element."""
    grp = f.group
    acc = CycloNum.from_rational(0)
    for s in range(grp.order):
        acc = acc + f.values[s] * g.values[grp.inv(s)]
    return acc * Fraction(1, grp.order)


def conjugate(f):
    """``f`` with zeta -> zeta^-1 applied valuewise."""
    return ClassFunction(f.group, [v.conjugate() for v in f.values])


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


def trace_forms(group, forms):
    """``characters.trace_forms`` as one ``Fraction`` per element's diagonal numerator sum."""
    values = []
    for g in range(group.order):
        den, rows = forms[g]
        values.append(Fraction(sum(row.get(i, 0) for i, row in enumerate(rows)), den))
    return ClassFunction(group, values, verified=True)


def artin_character(rd):
    """``ramification.artin_character``, read from ``Fraction`` values."""
    values = [Fraction(0)] * rd.group.order
    for s in range(1, rd.group.order):
        values[s] = Fraction(-i_gamma(rd, s))
    values[0] = -sum(values)
    return ClassFunction(rd.group, values)


def cyclo_inverse(x):
    """1/x in Q(zeta_n) by a dense solve of x * y = 1 on the matrix of multiplication by x.

    Column j of that matrix is x * zeta^j for the power basis vector zeta^j;
    it shares no code with the closed form of ``exact.inverse_zeta_minus_one``.
    """
    n = x.level
    columns = [(x * CycloNum.zeta(n, j)).coeffs for j in range(len(x.coeffs))]
    one = (1,) + (0,) * (len(x.coeffs) - 1)
    return CycloNum(n, solve(transpose(columns), one))


def bisection(rd):
    """``ramification.bisection``, one ``CycloNum`` per element, embedded at the level n.

    Tame values are 1/(zeta_n^k - 1) by :func:`cyclo_inverse`, not from the
    rows ``exact`` holds.
    """
    grp = rd.group
    tame = {}  # omega exponent -> its value
    values = []
    for s in range(grp.order):
        if s == 0:
            total = sum(i_gamma(rd, t) for t in range(1, grp.order))
            values.append(CycloNum.from_rational(Fraction(total, 2)))
        elif i_gamma(rd, s) > 1:
            values.append(CycloNum.from_rational(Fraction(-i_gamma(rd, s), 2)))
        else:
            k = rd.omega_exp[s]
            if k not in tame:
                tame[k] = cyclo_inverse(CycloNum.zeta(rd.n, k) - 1)
            values.append(tame[k])
    return ClassFunction(grp, values)


def wild_chain(rd):
    """The raw filtration Gamma_1, Gamma_2, ... as element tuples: Gamma_k holds the s with i(s) > k."""
    top = max(rd.breaks)
    return [(0,) + tuple(s for s in range(1, rd.group.order) if rd.breaks[s] > k) for k in range(1, top)]


def quotient_refusal(group, p, chain):
    """The message the all-pairs check refuses the filtration quotients of ``chain`` with; None if none.

    ``chain`` lists Gamma_1, Gamma_2, ... as element iterables, normal and
    descending, as ``ram_data`` reads them.  Where the step changes, every
    element x of the step, in id order, must have x^p in the next distinct
    step (or the trivial group past the end), and then commute with every
    y of the step modulo it; "step k" is the last raw entry of the step.
    """
    runs = []  # [element set, index of its last entry]
    for k, entry in enumerate(chain):
        elements = tuple(sorted(set(entry)))
        if runs and runs[-1][0] == elements:
            runs[-1][1] = k
        else:
            runs.append([elements, k])
    while runs and len(runs[-1][0]) == 1:
        runs.pop()
    bottoms = [set(h) for h, _ in runs[1:]] + [{0}]
    for (top, last), bset in zip(runs, bottoms):
        for x in top:
            xp = x
            for _ in range(p - 1):
                xp = group.mult(xp, x)
            if xp not in bset:
                return f"filtration quotient at step {last + 1} has exponent > {p}"
            for y in top:
                if group.mult(group.conj(x, y), group.inv(y)) not in bset:
                    return f"filtration quotient at step {last + 1} is not abelian"
    return None


def table_refusal(table):
    """The message ``FiniteGroup`` refuses ``table`` with, checking every triple; None if it is a group.

    Identity, inverse and range checks are those of ``FiniteGroup``; the
    associativity check runs over all n^3 triples and names the least
    failing one.
    """
    n = len(table)
    if n == 0:
        return "empty Cayley table"
    ids = range(n)
    for row in table:
        if len(row) != n or any(x < 0 or x >= n for x in row):
            return "Cayley table is not square over element ids"
    if any(table[0][i] != i or table[i][0] != i for i in ids):
        return "element 0 must be a two-sided identity"
    inverses = [None] * n
    for a in ids:
        for b in ids:
            if table[a][b] == 0:
                if table[b][a] != 0:
                    return f"one-sided inverse at element {a}"
                inverses[a] = b
    if any(v is None for v in inverses):
        return "missing inverses in Cayley table"
    for a in ids:
        for b in ids:
            tab = table[a][b]
            for c in ids:
                if table[tab][c] != table[a][table[b][c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    return None


def closure(group, gens):
    """The subgroup generated by ``gens``: ids reached from 0 by products with generators on either side."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (group.mult(x, g), group.mult(g, x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


def subgroups(group):
    """All subgroups by closure growth: every subgroup found, joined with every element outside it."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        elems = frontier.pop()
        for x in range(1, group.order):
            if x in elems:
                continue
            bigger = closure(group, elems + (x,))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return tuple(sorted(found, key=lambda t: (len(t), t)))


def element_order(group, a):
    """The least k >= 1 with a^k = 0, by repeated products."""
    x, k = a, 1
    while x != 0:
        x = group.mult(x, a)
        k += 1
    return k


def generating_set(group, candidates=None):
    """The greedy generating subset of ``candidates`` (default: every id): each, by decreasing
    element order and then ascending, kept when outside the closure of those before it."""
    if candidates is None:
        candidates = range(1, group.order)
    order = sorted(candidates, key=lambda x: (-element_order(group, x), x))
    gens = []
    current = {0}
    for x in order:
        if x not in current:
            gens.append(x)
            current = set(closure(group, gens))
    return tuple(gens)


def ascending_generating_set(group):
    """The greedy generating set over the ids in ascending order: a bound on the size of the other."""
    gens = []
    current = {0}
    for x in range(1, group.order):
        if x not in current:
            gens.append(x)
            current = set(closure(group, gens))
    return tuple(gens)


def conjugacy_classes(group):
    """The orbits { t s t^-1 : t in G }, sorted by least element."""
    seen = set()
    classes = []
    for s in range(group.order):
        if s not in seen:
            orbit = {group.conj(t, s) for t in range(group.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    return tuple(sorted(classes, key=lambda c: c[0]))


def rational_classes(group):
    """The sets { t s^k t^-1 : t in G, gcd(k, ord s) = 1 }, sorted by least element."""
    seen = set()
    classes = []
    for s in range(group.order):
        if s in seen:
            continue
        n = element_order(group, s)
        orbit = set()
        x = 0
        for k in range(1, n + 1):
            x = group.mult(x, s)  # s^k
            if gcd(k, n) == 1:
                orbit |= {group.conj(t, x) for t in range(group.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(sorted(classes, key=lambda c: c[0]))


def is_normal(h):
    """Whether t s t^-1 lies in H for every t in the parent and s in H."""
    eset = set(h.elements)
    return all(h.parent.conj(t, s) in eset for t in range(h.parent.order) for s in h.elements)


def restrict_ramdata(rd, h):
    """``ramification.restrict_ramdata`` validated again: intersected chain, restricted omega, ``ram_data``."""
    hgrp, to_sub, _ = h.as_group()
    chain = []
    for step in wild_chain(rd):
        inter = subgroup(rd.group, sorted(set(h.elements) & set(step)))
        chain.append(subgroup(hgrp, tuple(to_sub[x] for x in inter.elements)))
    wild1 = {x for x in h.elements if x == 0 or rd.breaks[x] > 1}
    n_h = h.order // len(wild1)
    if rd.n % n_h != 0:
        raise AssertionError("tame quotient of a subgroup must divide n")
    step = rd.n // n_h
    omega = {}
    for x in h.elements:
        if x in wild1:
            omega[to_sub[x]] = 0
        else:
            e = rd.omega_exp[x]
            if e % step != 0:
                raise CheckFailure("omega exponent of a subgroup element not in range")
            omega[to_sub[x]] = (e // step) % n_h
    sub_rd = ram_data(hgrp, rd.p, chain, omega, name=f"{rd.name}|{h.elements}" if rd.name else "")
    for x in h.elements:
        if x != 0 and i_gamma(sub_rd, to_sub[x]) != i_gamma(rd, x):
            raise CheckFailure("restricted break function disagrees with the parent")
    return sub_rd


def gauss_valuation(f):
    """The least p-valuation over the ``Fraction`` coefficients; +infinity for zero."""
    if f.is_zero():
        return inf
    return min(p_valuation(c, f.ring.p) for c in f.coeffs.values())


def dilatation_member(f, n):
    """Every coefficient of exponent m has valuation at least -floor(|m| / (n+1))."""
    if f.ring.t_vars:
        raise InputError("dilatation membership needs a ring without T-variables")
    return all(p_valuation(c, f.ring.p) >= -(sum(e) // (n + 1)) for e, c in f.coeffs.items())


def z_low(f, zi, n):
    """The terms of f of z-degree below n, z the variable ``zi``."""
    return MixedSeries(f.ring, {e: c for e, c in f.coeffs.items() if e[zi] < n})


def z_shift_down(f, zi, n):
    """The terms of f of z-degree at least n, divided by z^n, z the variable ``zi``."""
    out = {}
    for e, c in f.coeffs.items():
        if e[zi] >= n:
            shifted = tuple(x - n if j == zi else x for j, x in enumerate(e))
            out[shifted] = c
    return MixedSeries(f.ring, out)


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
    return MixedSeries(ring, out)


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
    a = z_low(f, zi, n)
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
    r = z_low(remainder_full, zi, n)
    return WeierstrassResult(q, r, certified)
