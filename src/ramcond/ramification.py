"""Ramification data of a totally ramified extension and its invariants.

A :class:`RamData` packages a finite group, the residue characteristic, the
lower-numbering filtration (given as a chain, not derived from field data)
kept as its break function i(s), and the tame identification of the first
quotient with roots of unity.  From it we compute the Artin character, the
cyclotomic bisection class function whose conjugate-sum recovers the Artin
character, discriminant valuations of subextensions and restricted
ramification data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .characters import ClassFunction
from .errors import CheckFailure, InputError
from .exact import _inverse_zeta_minus_one_row, euler_phi, is_prime
from .groups import FiniteGroup, Subgroup, element_ids, subgroup

__all__ = [
    "RamData",
    "ram_data",
    "i_gamma",
    "artin_character",
    "bisection",
    "disc_valuation",
    "restrict_ramdata",
]


@dataclass(frozen=True)
class RamData:
    """Validated ramification data; construct through :func:`ram_data`."""

    group: FiniteGroup
    p: int
    breaks: tuple  # element id -> i(s) = 1 + number of chain steps holding s; 0 at the identity
    n: int  # order of the tame quotient
    omega_exp: tuple  # element id -> exponent of its coset in Z/n
    name: str = field(default="", compare=False)
    _bisection: object = field(default=None, compare=False, repr=False)  # memo of bisection()
    _artin: object = field(default=None, compare=False, repr=False)  # memo of artin_character()


def ram_data(group, p, wild_chain, omega, name=""):
    """Build and validate ramification data.

    ``wild_chain`` lists Gamma_1, Gamma_2, ... as Subgroups or element-id
    iterables; equal consecutive entries encode repeated filtration steps and
    the trivial tail may be omitted.  ``omega`` is either a dict mapping
    coset-representative ids to exponents mod n, or a pair (generator_id,
    exponent) fixing the value on one generating coset.  Every id and
    exponent in ``omega`` must be an ``int`` (a ``bool`` is not).

    Each run of equal consecutive entries is read as the one Subgroup
    :func:`~ramcond.groups.subgroup` holds on ``group``, and checked once
    for normality and descent.  The exponent-p and abelian
    checks run only where the step changes: the quotient of a step by
    itself is trivial.  A message's "step k" counts raw entries.
    """
    if not is_prime(p):
        raise InputError(f"residue characteristic {p} is not prime")
    runs = []  # [subgroup, number of entries, index of its last entry]
    for k, entry in enumerate(wild_chain):
        if isinstance(entry, Subgroup):
            if entry.parent != group:
                raise InputError("wild chain subgroup has the wrong parent")
            elements = entry.elements
        else:
            elements = element_ids(entry, f"wild chain step {k + 1} element")
        if runs and runs[-1][0].elements == elements:
            runs[-1][1] += 1
            runs[-1][2] = k
        else:
            runs.append([subgroup(group, elements), 1, k])
    # drop trailing trivial entries; they encode nothing
    while runs and runs[-1][0].order == 1:
        runs.pop()
    trivial = subgroup(group, (0,))

    prev = None
    for h, _, _ in runs:
        if not h.is_normal():
            raise InputError("every wild filtration step must be normal")
        if prev is not None and not set(h.elements) <= set(prev.elements):
            raise InputError("wild filtration must be descending")
        prev = h

    gamma1 = runs[0][0] if runs else trivial
    order1 = gamma1.order
    m = order1
    while m % p == 0:
        m //= p
    if m != 1:
        raise InputError("the first wild subgroup must be a p-group")

    n = group.order // order1
    if gcd(n, p) != 1:
        raise InputError("tame quotient order must be prime to p")

    # elementary abelian exponent-p quotients where the step changes (trivial tail implied)
    bottoms = [h for h, _, _ in runs[1:]] + [trivial]
    for (top, _, last), bottom in zip(runs, bottoms):
        bset = set(bottom.elements)
        for x in top.elements:
            xp = x
            for _ in range(p - 1):
                xp = group.mult(xp, x)
            if xp not in bset:
                raise InputError(f"filtration quotient at step {last + 1} has exponent > {p}")
            for y in top.elements:
                comm = group.mult(group.conj(x, y), group.inv(y))
                if comm not in bset:
                    raise InputError(f"filtration quotient at step {last + 1} is not abelian")

    breaks = [1] * group.order
    for h, count, _ in runs:
        for x in h.elements:
            breaks[x] += count
    breaks[0] = 0

    # tame quotient must be cyclic; build its coset structure
    coset_ids, coset_of = gamma1.left_transversal()

    def coset_rep(x):
        if not 0 <= x < group.order:
            raise InputError(f"omega names element {x} outside the group")
        return coset_ids[coset_of[x]]

    def quotient_mult(a, b):
        return coset_ids[coset_of[group.mult(a, b)]]

    if omega is None:
        if n != 1:
            raise InputError("omega is required when the tame quotient is nontrivial")
        omega = (0, 0)

    if isinstance(omega, dict):
        element_ids(omega, "omega element")
        given = {}
        for k, v in omega.items():
            rep = coset_rep(k)
            if type(v) is not int:
                raise InputError(f"omega exponent {v!r} of element {k} is not an integer")
            v %= n
            if given.get(rep, v) != v:
                raise InputError("omega assigns conflicting exponents to one coset")
            given[rep] = v
        if set(given) != set(coset_ids):
            raise InputError("omega must cover every tame coset exactly once")
        # Gamma_1 is normal, so the generators' cosets generate the quotient:
        # additivity on (coset, generator) gives omega(1) = 0, then all pairs
        # by induction on a word
        gens = group.generating_set()
        for a in coset_ids:
            for s in gens:
                if (given[a] + given[coset_rep(s)]) % n != given[quotient_mult(a, s)]:
                    raise InputError("omega is not a homomorphism to Z/n")
        if len(set(given.values())) != n:
            raise InputError("omega is not injective")
        exps = given
    else:
        gen, e = omega
        element_ids((gen,), "omega element")
        if type(e) is not int:
            raise InputError(f"omega exponent {e!r} is not an integer")
        e %= n
        if gcd(e, n) != 1:
            raise InputError("omega generator exponent must be a unit mod n")
        rep = coset_rep(gen)
        exps = {}
        coset = 0
        for k in range(n):
            exps[coset] = (k * e) % n
            coset = quotient_mult(coset, rep)
        if len(exps) != n:
            raise InputError("omega generator does not generate the tame quotient")

    omega_exp = tuple([exps[coset_rep(x)] for x in range(group.order)])
    return RamData(group, p, tuple(breaks), n, omega_exp, name=name)


def i_gamma(rd, s):
    """The break function: 1 + number of wild chain steps containing s."""
    if s == 0:
        raise InputError("the break function is not finite at the identity")
    return rd.breaks[s]


def artin_character(rd):
    """-i(s) off the identity, normalized to sum to zero over the group.

    Built on its integer form over the denominator 1, once per ``rd`` and
    held on it, like :func:`bisection`.
    """
    if rd._artin is not None:
        return rd._artin
    rows = ((sum(rd.breaks),),) + tuple([(-b,) for b in rd.breaks[1:]])
    object.__setattr__(rd, "_artin", ClassFunction._from_form(rd.group, 1, (1, rows)))
    return rd._artin


def bisection(rd):
    """The cyclotomic class function whose sum with its conjugate is the Artin character.

    Values: 1/(omega(s) - 1) on tame elements, -i(s)/2 on nontrivial wild
    elements (those with i(s) > 1), and half the total break sum at the
    identity; valued in Q(zeta_n) through the tame identification.

    Tame values use the closed form 1/(w - 1) = (1/n) * sum_{j<n} j * w^j,
    which holds for every w != 1 with w^n = 1, since
    (w - 1) * sum_{j<n} j * w^j = n.  No field inversion is made.  The
    class function is built on its integer form over the denominator 2n,
    once per ``rd`` and held on it.  Its tame rows are the tuples
    :func:`~ramcond.exact._inverse_zeta_minus_one_row` holds per level and
    omega exponent, already over 2n, so they are stored as they are.
    """
    if rd._bisection is not None:
        return rd._bisection
    grp = rd.group
    n = rd.n
    pad = (0,) * (euler_phi(n) - 1)
    rows = [(n * sum(rd.breaks),) + pad]
    for s in range(1, grp.order):
        if rd.breaks[s] > 1:
            rows.append((-n * rd.breaks[s],) + pad)
        else:
            rows.append(_inverse_zeta_minus_one_row(n, rd.omega_exp[s]))
    object.__setattr__(rd, "_bisection", ClassFunction._from_form(grp, n, (2 * n, tuple(rows))))
    return rd._bisection


def disc_valuation(rd, h):
    """Base-valuation of the discriminant of the subextension fixed by h.

    Computed by the different tower: (sum of breaks over the whole group
    minus the sum over h) divided by |h|; asserted to be a natural number.
    """
    if not isinstance(h, Subgroup) or h.parent != rd.group:
        raise InputError("disc_valuation needs a subgroup of the ramification group")
    num = sum(rd.breaks) - sum(rd.breaks[s] for s in h.elements)
    if num % h.order != 0:
        raise CheckFailure("different tower gave a non-integral discriminant valuation")
    v = num // h.order
    if v < 0:
        raise CheckFailure("negative discriminant valuation")
    return v


def restrict_ramdata(rd, h):
    """Ramification data of the subgroup h: the break function and omega, read on h.

    Nothing is re-checked: restricting valid data gives valid data, the way
    :meth:`~ramcond.groups.Subgroup.as_group` builds on a checked table.
    The steps H n Gamma_k are normal in H and descend, and each quotient
    (H n Gamma_k) / (H n Gamma_(k+1)) embeds in Gamma_k / Gamma_(k+1), so it
    is elementary abelian of exponent p; H n Gamma_1 is a p-group.  Their
    break function is i_H = i_G on H (Serre, *Local Fields*, IV 1, Prop. 2).
    The tame quotient H / (H n Gamma_1) is H Gamma_1 / Gamma_1, a subgroup
    of the cyclic G / Gamma_1, so its order n_H = |H| / |H n Gamma_1|
    divides n and is prime to p, and omega maps it injectively onto the
    multiples of n / n_H in Z/n; division by n / n_H is then an injective
    homomorphism onto Z/n_H.  These are the data :func:`ram_data` builds
    from the intersected chain and that omega.
    """
    if not isinstance(h, Subgroup) or h.parent != rd.group:
        raise InputError("restrict_ramdata needs a subgroup of the ramification group")
    hgrp, _, from_sub = h.as_group()
    breaks = tuple([rd.breaks[x] for x in from_sub])
    n_h = h.order // (1 + sum(1 for b in breaks if b > 1))
    step = rd.n // n_h
    omega_exp = tuple([rd.omega_exp[x] // step for x in from_sub])
    return RamData(
        hgrp, rd.p, breaks, n_h, omega_exp, name=f"{rd.name}|{h.elements}" if rd.name else ""
    )
