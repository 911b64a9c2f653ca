"""Base change conductors of character modules with finite Galois action.

A :class:`CharModule` is a finite free lattice of rank d with a group acting
by p-integral rational matrices; it stands for the character group of a
formal torus twisted by the given action.  Its conductor is computed
exclusively through the class-function pairing with the Artin bisection,
read per rational class in :mod:`~ramcond.characters`, and cross-checked
against the induction formula

    c(induced module) = c(module over the subextension) + (1/2) * v(disc) * rank.

Also here: Weil restriction as a block-matrix induced module, isogeny tests
by exact character equality, idempotent splitting into saturated image and
kernel lattices, and adaptation of an integral lattice to a p-adic idempotent
decomposition, with an independent checker for the latter.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .characters import _rational_pairing, check_forms, induce, pair, trace_forms
from .errors import CheckFailure, InputError
from .exact import _check_int, is_prime, p_valuation
from .groups import Subgroup, element_ids, subgroup
from .linalg import (
    echelon_coords,
    from_sparse,
    hnf_rows,
    identity_form,
    integer_kernel,
    lattice_contains,
    read_matrix,
    sparse_mul,
)
from .ramification import _check_ramdata, bisection, disc_valuation, restrict_ramdata

__all__ = [
    "CharModule",
    "module_from_generators",
    "trivial_module",
    "permutation_module",
    "regular_module",
    "Conductor",
    "module_character",
    "conductor",
    "weil_restriction",
    "induction_formula",
    "conductor_via_induction",
    "is_isogenous",
    "direct_sum",
    "split_idempotent",
    "adapt_lattice",
    "adapt_lattice_pair",
    "check_adapted_basis",
]


class CharModule:
    """Finite free lattice with a group action by p-integral exact matrices.

    The action is stored as ``forms``: each element's matrix in its
    :func:`~ramcond.linalg.read_matrix` form, integer rows over the least
    common denominator.  ``action`` is a dense view of ``Fraction`` rows;
    every module builds it from its forms on first read.

    A module is completed from the forms of its generators and checked.
    p-integrality is read from each given form's denominator (a product of
    p-integral matrices is p-integral).  The public constructor and
    :func:`module_from_generators` read each dense matrix once, by
    :func:`~ramcond.linalg.read_matrix`; the package's builders hand over
    the forms of the identity and the generators through :meth:`_from_forms`.
    There is no determinant check: once the action is a homomorphism of a
    finite group, each matrix has finite order, so its rational determinant
    is +-1.

    Two checks, each a proof that the action is a homomorphism:

    * Given forms on exactly the identity and an element s of order |G|,
      the module checks F(1) = 1 and A^|G| = 1 for A = F(s), computing
      A^|G| by halving and holding every power it makes.  Those are the
      relations of the presentation G = <s | s^|G|>, and they are exactly
      what :func:`~ramcond.characters.check_forms` compares on this input,
      so the module accepts what that walk accepts.  On a failure the walk
      runs and raises its refusal.  ``forms`` is completed by the walk on
      its first read; until then an element's form is A^k, k its discrete
      logarithm to s (:meth:`~ramcond.groups.FiniteGroup._power_log`), read
      through :meth:`_form` from the held powers.
    * Any other input, a full action, a non-cyclic group or more given
      elements, is completed and checked at once by the
      :func:`~ramcond.characters.check_forms` walk over the Cayley edges.

    Readers that need the identity and the generators only, or one element
    per rational class (the character), read through :meth:`_form` and
    leave the walk undone.
    """

    __slots__ = ("name", "group", "p", "rank", "_forms", "_gen", "_powers", "_action", "_char")

    def __init__(self, name, group, p, action):
        _check_mapping(action, "module action")
        if element_ids(action, "module action element") != tuple(range(group.order)):
            raise InputError("action must map every group element")
        forms = _read_matrices(group, action, "action")
        _check_p_integral(forms, p)
        self._set(name, group, p, forms)

    @classmethod
    def _from_forms(cls, name, group, p, forms):
        """A module on the forms of square matrices of one rank for 0 and generators, or more.

        The builders of this package make the forms; they are checked, and
        completed, as the public constructor's are.
        """
        _check_p_integral(forms, p)
        self = object.__new__(cls)
        self._set(name, group, p, forms)
        return self

    def _set(self, name, group, p, forms):
        gen, powers = _presented(group, forms)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", len(forms[0][1]))
        # the walk refuses exactly what the power check refused
        object.__setattr__(self, "_forms", None if gen is not None else check_forms(group, forms))
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "_action", None)
        object.__setattr__(self, "_char", None)

    def __setattr__(self, name, value):
        raise AttributeError("CharModule is immutable")

    def _form(self, g):
        """The form of g's matrix: from ``forms`` once complete, else the power of the generator."""
        if self._forms is not None:
            return self._forms[g]
        return _power(self._powers, self.group._power_log(self._gen)[g])

    @property
    def forms(self):
        """Element id -> the form of its matrix, in ascending order; completed on first read."""
        if self._forms is None:
            given = {0: self._powers[0], self._gen: self._powers[1]}
            object.__setattr__(self, "_forms", check_forms(self.group, given))
        return self._forms

    @property
    def action(self):
        """Element id -> its matrix as ``Fraction`` rows, built from ``forms`` on first read."""
        if self._action is None:
            dense = {g: from_sparse(form) for g, form in self.forms.items()}
            object.__setattr__(self, "_action", dense)
        return self._action

    def is_integral(self):
        """Whether every matrix is integral: products of integral generators are."""
        return all(self._form(g)[0] == 1 for g in (0, *self.group.generating_set()))

    def __repr__(self):
        return f"CharModule({self.name!r}, {self.group.name}, rank={self.rank})"


def _presented(group, forms):
    """``(s, powers)`` when ``forms`` satisfy the presentation G = <s | s^|G|>, else ``(None, None)``.

    That is: the forms are given on exactly 0 and an s of order |G|, F(0) is
    the identity and A^|G| is the identity for A = F(s).  ``powers`` holds
    A^k by k, with every power the check made.
    """
    one = forms[0]
    if len(forms) != 2 or one != identity_form(len(one[1])):
        return None, None
    (s,) = set(forms) - {0}
    if group.element_order(s) != group.order:
        return None, None
    powers = {0: one, 1: forms[s]}
    if _power(powers, group.order) != one:
        return None, None
    return s, powers


def _power(powers, k):
    """A^k, by halving from the powers held in ``powers``; every power made is held there.

    With nothing held beyond A^0 and A^1 it makes at most 2 * ceil(log2 k) products.
    """
    form = powers.get(k)
    if form is None:
        half = _power(powers, k // 2)
        form = sparse_mul(half, half)
        if k % 2:
            form = sparse_mul(form, powers[1])
        powers[k] = form
    return form


def _check_module(*modules):
    """Refuse an argument that is not a :class:`CharModule` before any of its fields is read."""
    for m in modules:
        if not isinstance(m, CharModule):
            raise InputError(f"module must be a CharModule, got {m!r}")


def _check_mapping(given, what):
    """Refuse matrices that are not given as a mapping from element ids."""
    if not isinstance(given, Mapping):
        raise InputError(f"{what} must map element ids to matrices, got {given!r}")


def _check_p_integral(forms, p):
    """Refuse a p that is not a prime ``int``, then the first entry (row-major) not p-integral."""
    _check_int(p, "module prime")
    if not is_prime(p):
        raise InputError(f"module prime {p} is not prime")
    for den, rows in forms.values():
        # p divides the common denominator iff it divides some entry's
        if rows and p_valuation(den, p) > 0:
            x = next(
                x
                for row in rows
                for x in (Fraction(row[j], den) for j in sorted(row))
                if p_valuation(x, p) < 0
            )
            raise InputError(f"entry {x} is not p-integral at p={p}")


def _read_matrices(group, given, what):
    """The forms of dense matrices on element ids, each read once and checked square of one rank."""
    read = {g: read_matrix(m) for g, m in given.items()}
    for g in read:
        if not 0 <= g < group.order:
            raise InputError(f"{what} {g} is not an element id of {group.name}")
    ranks = {len(form[1]) for form, _ in read.values()}
    if len(ranks) != 1:
        raise InputError(f"{what} matrices must share one rank")
    (d,) = ranks
    if any(width != d for _, width in read.values()):
        raise InputError(f"{what} matrices must be square")
    return {g: form for g, (form, _) in read.items()}


def module_from_generators(name, group, p, gen_action):
    """Complete an action given on a generating set to the whole group, checking each matrix."""
    _check_mapping(gen_action, "generator action")
    element_ids(gen_action, "generator")
    forms = _read_matrices(group, gen_action, "generator")
    d = len(next(iter(forms.values()))[1])
    return CharModule._from_forms(name, group, p, {0: identity_form(d), **forms})


def trivial_module(group, p, rank=1, name=None):
    if type(rank) is not int or rank < 0:
        raise InputError(f"trivial module rank must be a non-negative int, got {rank!r}")
    ident = identity_form(rank)
    return CharModule._from_forms(
        name or f"trivial:{rank}", group, p, {g: ident for g in (0, *group.generating_set())}
    )


def _stack_forms(placed):
    """The form of a block matrix from its block rows, top to bottom.

    ``placed`` lists one ``(column offset, form)`` pair per block row.  The
    denominator is the lcm of the block denominators; the result stays in
    lowest terms because each block's form is, so it is the one
    :func:`~ramcond.linalg.read_matrix` form of the matrix.
    """
    den = lcm(*[form[0] for _, form in placed])
    rows = []
    for offset, (block_den, block_rows) in placed:
        k = den // block_den
        rows.extend({offset + j: x * k for j, x in row.items()} for row in block_rows)
    return den, tuple(rows)


def _induced_action(sub, block_of):
    """Forms of the action induced from ``sub``, on which h acts by the form ``block_of(h)``.

    They are given on 0 and the parent's generators.  Over the left
    transversal (t_i), g maps block column i to block row j by the block of
    h, where g * t_i = t_j * h.
    """
    grp = sub.parent
    transversal, coset_of = sub.left_transversal()
    d = len(block_of(0)[1])
    forms = {}
    for g in (0, *grp.generating_set()):
        placed = [None] * len(transversal)
        for i, t in enumerate(transversal):
            gt = grp.mult(g, t)
            j = coset_of[gt]
            h = grp.mult(grp.inv(transversal[j]), gt)
            placed[j] = (i * d, block_of(h))
        forms[g] = _stack_forms(placed)
    return forms


def permutation_module(sub, p, name=None):
    """Left translation on the left cosets of ``sub``: the induced trivial block."""
    one = identity_form(1)
    forms = _induced_action(sub, lambda h: one)
    return CharModule._from_forms(name or f"perm[{sub.order}]", sub.parent, p, forms)


def regular_module(group, p, name="regular"):
    """Permutation matrices of left translation on the group basis."""
    return permutation_module(subgroup(group, (0,)), p, name)


def module_character(m):
    """Trace character of the module action (validated at construction), read on its forms."""
    _check_module(m)
    if m._char is None:
        chi = trace_forms(m.group, m._form)
        object.__setattr__(m, "_char", chi)
    return m._char


@dataclass(frozen=True)
class Conductor:
    """A base change conductor: non-negative, with denominator dividing |G|."""

    value: Fraction
    denominator_bound: int

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise CheckFailure(f"negative conductor {self.value}")
        if (self.value * self.denominator_bound).denominator != 1:
            raise CheckFailure(
                f"conductor {self.value} not integral against e={self.denominator_bound}"
            )

    def __str__(self):
        return str(self.value)


def conductor(m, rd):
    """The base change conductor as the bisection/character pairing (bA, chi_M).

    The pairing is rational when ``rd`` comes from
    :func:`~ramcond.ramification.ram_data`.  Let sigma_k fix Q and send
    zeta_n to zeta_n^k, gcd(k, n) = 1.  As gcd(n, p) = 1, there is k' with
    k' = k mod n and k' = 1 mod p.  Then k' is prime to |G| = n |Gamma_1|, so
    s -> s^k' is a bijection of G with <s^k'> = <s>; it maps every Gamma_j
    onto itself and keeps i(s).  Since omega is a homomorphism to the n-th
    roots of unity, sigma_k(bA(s)) = bA(s^k') on tame, wild and identity
    values alike.  The eigenvalues of M(s) are |G|-th roots of unity, so
    chi_M(s^k') = tau(chi_M(s)) for tau: zeta -> zeta^k' on Q(zeta_|G|);
    chi_M(s) is rational, so chi_M(s^k') = chi_M(s).  Summing over t = s^k'
    gives sigma_k((bA, chi_M)) = (bA, chi_M), so the pairing is fixed by
    Gal(Q(zeta_n)/Q) and lies in Q.

    The pairing is read per rational class on the sums held on the bisection
    (:func:`~ramcond.characters._rational_pairing`); it is rational exactly
    when v has no nonzero entry after the first.  The CheckFailure below
    guards hand-built :class:`~ramcond.ramification.RamData` only.
    """
    _check_module(m)
    ba = bisection(rd)  # refuses an rd that is not a RamData
    if m.group != rd.group:
        raise InputError("module and ramification data live on different groups")
    if m.p != rd.p:
        raise InputError("module and ramification data disagree on p")
    chi = module_character(m)
    v, den = _rational_pairing(ba, chi)
    if any(v[1:]):
        raise CheckFailure(
            f"conductor pairing is not rational ({pair(ba, chi)}); omega and the module action are inconsistent"
        )
    return Conductor(Fraction(v[0], den), rd.group.order)


def weil_restriction(m_sub, sub):
    """Induced module over a left-coset transversal, as block matrices.

    ``m_sub`` lives on ``sub.as_group()``; the result lives on the parent and
    its character equals the induced character (asserted).
    """
    _check_module(m_sub)
    if not isinstance(sub, Subgroup):
        raise InputError("weil_restriction needs a Subgroup")
    hgrp, to_sub, _ = sub.as_group()
    if m_sub.group != hgrp:
        raise InputError("module does not live on the given subgroup")
    forms = _induced_action(sub, lambda h: m_sub._form(to_sub[h]))
    result = CharModule._from_forms(f"Ind({m_sub.name})", sub.parent, m_sub.p, forms)
    if module_character(result) != induce(module_character(m_sub), sub):
        raise CheckFailure("induced module character mismatch")
    return result


def induction_formula(m_sub, sub, rd):
    """Both sides of the induction formula for the Weil restriction of ``m_sub``.

    Returns ``(direct, formula, v_disc)``: the conductor of the induced module,
    the conductor over the subextension plus ``v_disc * rank / 2``, and the
    discriminant valuation ``v_disc`` of the subextension.
    """
    _check_module(m_sub)
    _check_ramdata(rd)
    if not isinstance(sub, Subgroup):
        raise InputError("induction_formula needs a Subgroup")
    if sub.parent != rd.group:
        raise InputError("subgroup does not live on the ramification group")
    direct = conductor(weil_restriction(m_sub, sub), rd).value
    inner = conductor(m_sub, restrict_ramdata(rd, sub)).value
    v = disc_valuation(rd, sub)
    return direct, inner + Fraction(v * m_sub.rank, 2), v


def conductor_via_induction(m_sub, sub, rd):
    """Induction formula: conductor over the subextension plus the discriminant term.

    Asserted equal to the direct conductor of the Weil restriction.
    """
    direct, formula, _ = induction_formula(m_sub, sub, rd)
    if direct != formula:
        raise CheckFailure(
            f"induction formula mismatch: direct {direct} vs formula {formula}"
        )
    return Conductor(formula, rd.group.order)


def is_isogenous(m1, m2):
    """Isogeny test: exact equality of trace characters."""
    _check_module(m1, m2)
    if m1.group != m2.group:
        raise InputError("isogeny test across different groups")
    return module_character(m1) == module_character(m2)


def direct_sum(m1, m2):
    _check_module(m1, m2)
    if m1.group != m2.group:
        raise InputError("direct sum across different groups")
    if m1.p != m2.p:
        raise InputError("direct sum across different primes")
    d1 = m1.rank
    forms = {
        g: _stack_forms(((0, m1._form(g)), (d1, m2._form(g))))
        for g in (0, *m1.group.generating_set())
    }
    return CharModule._from_forms(f"{m1.name}+{m2.name}", m1.group, m1.p, forms)


def _check_idempotent(m, e):
    """The form of a p-integral idempotent that commutes with the action of the module ``m``."""
    _check_module(m)
    form, width = read_matrix(e)
    d = m.rank
    if len(form[1]) != d or width != d:
        raise InputError("idempotent has the wrong shape")
    if p_valuation(form[0], m.p) > 0:
        raise InputError("idempotent entries must be p-integral")
    if sparse_mul(form, form) != form:
        raise InputError("matrix is not idempotent")
    for s in m.group.generating_set():
        ms = m._form(s)
        if sparse_mul(form, ms) != sparse_mul(ms, form):
            raise InputError("idempotent does not commute with the action")
    return form


def _kernels(form):
    """The image and kernel lattices of E on Hermite bases: integer kernels of 1 - E and E.

    They are read on ``den * (1 - E)`` and ``den * E``, whose integer rows
    have the kernels of 1 - E and E.
    """
    den, rows = form
    cols = range(len(rows))
    e = [[row.get(j, 0) for j in cols] for row in rows]
    one_minus_e = [[den * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(e)]
    return integer_kernel(one_minus_e), integer_kernel(e)


def _summand(m, name, basis):
    """The module on the saturated stable lattice with Hermite rows ``basis``.

    Column i of g's matrix holds the coordinates of M(g) b_i on the basis:
    those of den * M(g) b_i, read by :func:`~ramcond.linalg.echelon_coords`,
    over den.  den * M(g) is integral and keeps the rational span, so it
    keeps the saturated lattice and those coordinates are integers.
    """
    forms = {0: identity_form(len(basis))}
    for g in m.group.generating_set():
        den, _ = form = m._form(g)
        cols = [[c.numerator for c in echelon_coords(basis, _apply(form, b))] for b in basis]
        k = gcd(den, *[x for col in cols for x in col])
        rows = [{i: x // k for i, x in enumerate(row) if x} for row in zip(*cols)]
        forms[g] = den // k, tuple(rows)
    return CharModule._from_forms(name, m.group, m.p, forms)


def split_idempotent(m, e):
    """Split a module along an equivariant idempotent into saturated summands.

    The image and kernel lattices are the full integer kernels of (1 - E) and
    E, hence saturated; each summand acts on the lattice's Hermite basis.
    Their ranks add to the module rank and their characters add to the
    module character (asserted).  The character of the direct sum is the sum
    of the summands' characters, since the trace of a block-diagonal action
    is the sum of the blocks' traces, so the sum is compared and no direct
    sum is built.
    """
    plus_rows, minus_rows = _kernels(_check_idempotent(m, e))
    if len(plus_rows) + len(minus_rows) != m.rank:
        raise CheckFailure("idempotent split ranks do not add up")
    m_plus = _summand(m, f"{m.name}.plus", plus_rows)
    m_minus = _summand(m, f"{m.name}.minus", minus_rows)
    if module_character(m_plus) + module_character(m_minus) != module_character(m):
        raise CheckFailure("split characters do not add to the module character")
    return m_plus, m_minus


def _integer_rows(rows, what):
    """Rows of integers; an integral ``Fraction`` is read as its integer, anything else refused."""
    rows = [tuple(row) for row in rows]
    for x in (x for row in rows for x in row):
        if type(x) is not int and not (type(x) is Fraction and x.denominator == 1):
            raise InputError(f"{what} entries must be integers, got {x!r}")
    return tuple([tuple(map(int, row)) for row in rows])


def _apply(form, v):
    """The image of the integer vector v under the numerators of a form."""
    return tuple([sum(x * v[k] for k, x in row.items()) for row in form[1]])


ADAPT_PRECISION = 8  # by Nakayama a lift mod p^k is valid for every k >= 1; 8 fixes which


def adapt_lattice(m, e, within=None):
    """Find a stable sublattice of p-unit index adapted to an idempotent.

    Follows the approximation recipe: integer generators of the image and
    kernel lattices of E, approximated modulo p^ADAPT_PRECISION by vectors of
    the target lattice, span it under the group.  Those two lattices are
    stable (the action is integral and commutes with E), so without
    ``within`` they span themselves and their Hermite basis is returned; with
    ``within`` (the nested variant, read through its Hermite basis) the lifts
    into it are spanned over the orbit.  The output is verified by the
    checks of :func:`check_adapted_basis`, on the idempotent's form checked
    here.
    """
    e_form = _check_idempotent(m, e)
    if not m.is_integral():
        raise InputError("adapt_lattice expects an integral module action")
    d = m.rank
    gens = [v for rows in _kernels(e_form) for v in rows]
    if within is None:
        basis = hnf_rows(gens)
    else:
        within = _integer_rows(within, "within")
        if any(len(row) != d for row in within):
            raise InputError("within rows must have the module's rank as length")
        h = hnf_rows(within)
        mod = m.p**ADAPT_PRECISION
        approx = []
        for v in gens:
            coords = echelon_coords(h, v)
            if coords is None or any(c.denominator % m.p == 0 for c in coords):
                raise CheckFailure(
                    "within does not contain the image and kernel lattices p-integrally"
                )
            # each coordinate lifted to the integer congruent to it mod p^ADAPT_PRECISION
            lifted = [c.numerator * pow(c.denominator, -1, mod) % mod for c in coords]
            approx.append(tuple([sum(c * row[j] for c, row in zip(lifted, h)) for j in range(d)]))
        basis = hnf_rows([_apply(m.forms[g], v) for v in approx for g in range(m.group.order)])
    if len(basis) != d:
        raise CheckFailure(
            f"adapted lattice has rank {len(basis)} < {d}; approximation failed "
            f"within precision {ADAPT_PRECISION}"
        )
    _check_adapted(m, e_form, basis)
    return basis


def adapt_lattice_pair(m, e_inner, e_outer):
    """Adapted bases for nested idempotents, with nested output lattices; see :func:`adapt_lattice`."""
    outer = adapt_lattice(m, e_outer)
    inner = adapt_lattice(m, e_inner, within=outer)
    for v in inner:
        if not lattice_contains(outer, v):
            raise CheckFailure("nested adapted lattices are not nested")
    return inner, outer


def check_adapted_basis(m, e, basis):
    """Independent verifier for adapted lattice bases.

    Checks: B is a rank-d integer basis whose index in the ambient lattice is
    a p-unit; the lattice is stable under the group action; E maps the
    lattice into itself p-integrally (equivalently, the idempotent
    decomposition restricts to the lattice after p-completion).  Any basis
    passing these checks is acceptable; the output is not unique.

    The checks read the Hermite basis H = U B of the lattice, U unimodular:
    the index |det B| is the product of H's pivots, and coordinates on H are
    integral or p-integral exactly when they are on B.  The action must be
    integral and the basis entries integers; anything else is refused.
    """
    e_form = _check_idempotent(m, e)
    if not m.is_integral():
        raise InputError("check_adapted_basis expects an integral module action")
    return _check_adapted(m, e_form, basis)


def _check_adapted(m, e_form, basis):
    """:func:`check_adapted_basis` on the form of an idempotent already
    checked by :func:`_check_idempotent`, for an integral module ``m``."""
    d = m.rank
    basis = _integer_rows(basis, "adapted basis")
    if len(basis) != d or any(len(row) != d for row in basis):
        raise CheckFailure("adapted basis has the wrong shape")
    h = hnf_rows(basis)
    if len(h) != d:
        raise CheckFailure("adapted basis is singular")
    index = prod(row[i] for i, row in enumerate(h))
    if p_valuation(index, m.p) != 0:
        raise CheckFailure(f"adapted basis index {index} is not a p-unit")
    for g in m.group.generating_set():
        for v in h:
            coords = echelon_coords(h, _apply(m._form(g), v))
            if coords is None or any(c.denominator != 1 for c in coords):
                raise CheckFailure("adapted basis is not action-stable")
    for v in h:
        for c in echelon_coords(h, _apply(e_form, v)):
            if p_valuation(c / e_form[0], m.p) < 0:
                raise CheckFailure(
                    "idempotent does not preserve the adapted lattice p-integrally"
                )
    return True
