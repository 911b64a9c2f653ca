"""Ramification data of a totally ramified extension and its invariants.

A :class:`RamData` packages a finite group, the residue characteristic, the
lower-numbering filtration kept as its break function i(s), and the tame
identification of the first quotient with roots of unity.  A chain of wild
steps, not derived from field data, is one reader of the break function.
From these data we compute the Artin character, the cyclotomic bisection
class function whose conjugate-sum recovers the Artin character,
discriminant valuations of subextensions and restricted ramification data.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import groupby
from math import gcd

from .characters import ClassFunction
from .errors import CheckFailure, InputError
from .exact import _check_int, _inverse_zeta_minus_one_row, euler_phi, is_prime
from .groups import FiniteGroup, Subgroup, _held_subgroup, element_ids

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
    breaks: tuple  # element id -> i(s), 0 at the identity; the steps Gamma_u are {i >= u + 1}
    n: int  # order of the tame quotient
    omega_exp: tuple  # element id -> exponent of its coset in Z/n
    name: str = field(default="", compare=False)
    _bisection: object = field(default=None, compare=False, repr=False)  # memo of bisection()
    _artin: object = field(default=None, compare=False, repr=False)  # memo of artin_character()


def _quotient_refusal(group, p, xs, bset):
    """Why ``xs`` does not generate an elementary abelian p-group modulo the
    normal subgroup ``bset``, or None.

    Each x in order must have x^p in bset and commute with every y in xs
    modulo it; the first failure names the reason.  Read on a generating
    set of a subgroup this decides the subgroup's quotient: the quotient is
    generated by the images, and pairwise commuting images of order
    dividing p generate an elementary abelian group.  Read on all the
    elements, it also names the least element that fails.
    """
    for x in xs:
        xp = x
        for _ in range(p - 1):
            xp = group.mult(xp, x)
        if xp not in bset:
            return f"has exponent > {p}"
        for y in xs:
            if group.mult(group.conj(x, y), group.inv(y)) not in bset:
                return "is not abelian"
    return None


def ram_data(group, p, wild_chain, omega, name=""):
    """Build and validate ramification data from a chain of wild steps.

    ``wild_chain`` lists Gamma_1, Gamma_2, ... as Subgroups or element-id
    iterables; equal consecutive entries encode repeated filtration steps and
    the trivial tail may be omitted.  ``omega`` is either a dict mapping
    coset-representative ids to exponents mod n, or a tuple or list
    (generator_id, exponent) fixing the value on one generating coset.  Every
    id and exponent in ``omega`` must be an ``int`` (a ``bool`` is not).

    The chain is one reader of the break function: every entry is read as
    the held :func:`~ramcond.groups.subgroup`, then each distinct one must be
    normal and inside the one before, and i(s) = 1 + number of entries
    holding s goes to :func:`_from_breaks`.
    """
    _check_int(p, "residue characteristic")
    if not is_prime(p):
        raise InputError(f"residue characteristic {p} is not prime")
    if not isinstance(wild_chain, Iterable):
        raise InputError(f"wild chain must be an iterable of steps, got {wild_chain!r}")
    steps = []
    for k, entry in enumerate(wild_chain):
        if isinstance(entry, Subgroup):
            if entry.parent != group:
                raise InputError("wild chain subgroup has the wrong parent")
            elements = entry.elements
        elif isinstance(entry, Iterable):
            elements = element_ids(entry, f"wild chain step {k + 1} element")
        else:
            raise InputError(f"wild chain step {k + 1} must be a Subgroup or element ids, got {entry!r}")
        steps.append(steps[-1] if steps and steps[-1].elements == elements else _held_subgroup(group, elements))
    breaks = [1] * group.order
    for h, prev in zip(steps, [None] + steps):
        if h is not prev:  # a repeated entry is the Subgroup of the one before
            if not h.is_normal():
                raise InputError("every wild filtration step must be normal")
            if prev is not None and not set(h.elements) <= set(prev.elements):
                raise InputError("wild filtration must be descending")
        for x in h.elements:
            breaks[x] += 1
    breaks[0] = 0
    return _from_breaks(group, p, tuple(breaks), omega, name)


def _from_breaks(group, p, breaks, omega, name=""):
    """The checked constructor: ramification data on the break function ``breaks``.

    ``breaks`` holds i(s) per element id (0 at the identity), ``p`` is prime
    and ``omega`` is read as in :func:`ram_data`.  The steps, the level sets
    Gamma_(v-1) = {s : i(s) >= v} at the values v > 1 of i, must be normal,
    Gamma_1 a p-group of index prime to p, and each step modulo the next
    elementary abelian of exponent p, decided on generators by
    :func:`_quotient_refusal`.  A refusal names "step v - 1", v the break of
    the elements the step adds: in a chain, the last entry holding them.
    """
    wild = sorted([s for s in range(1, group.order) if breaks[s] > 1], key=breaks.__getitem__, reverse=True)
    steps = []  # (v, Gamma_(v-1), Gamma_v as a set), from the last step up
    below = {0}
    for v, added in groupby(wild, breaks.__getitem__):
        h = _held_subgroup(group, tuple(sorted(below.union(added))))
        if not h.is_normal():
            raise InputError("every wild filtration step must be normal")
        steps.append((v, h, below))
        below = set(h.elements)

    gamma1 = steps[-1][1] if steps else _held_subgroup(group, (0,))
    order1 = gamma1.order
    if pow(p, order1, order1):  # |Gamma_1| divides p^|Gamma_1| iff it is a power of p
        raise InputError("the first wild subgroup must be a p-group")

    n = group.order // order1
    if gcd(n, p) != 1:
        raise InputError("tame quotient order must be prime to p")

    for v, top, below in reversed(steps):
        if _quotient_refusal(group, p, top.generating_set(), below):
            reason = _quotient_refusal(group, p, top.elements, below)
            raise InputError(f"filtration quotient at step {v - 1} {reason}")

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
        if not isinstance(omega, (tuple, list)) or len(omega) != 2:
            raise InputError(f"omega must be a dict or a (generator, exponent) pair, got {omega!r}")
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
    return RamData(group, p, breaks, n, omega_exp, name=name)


def _check_ramdata(rd):
    """Refuse an argument that is not a :class:`RamData` before any of its fields is read."""
    if not isinstance(rd, RamData):
        raise InputError(f"ramification data must be a RamData, got {rd!r}")


def i_gamma(rd, s):
    """The break function i(s); the steps Gamma_u are its level sets {i >= u + 1}."""
    _check_ramdata(rd)
    if type(s) is not int or not 0 <= s < rd.group.order:
        raise InputError(f"element id must be an int in 0..{rd.group.order - 1}, got {s!r}")
    if s == 0:
        raise InputError("the break function is not finite at the identity")
    return rd.breaks[s]


def artin_character(rd):
    """-i(s) off the identity, normalized to sum to zero over the group.

    Built on its integer form over the denominator 1, once per ``rd`` and
    held on it, like :func:`bisection`.
    """
    _check_ramdata(rd)
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
    _check_ramdata(rd)
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
    _check_ramdata(rd)
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
    homomorphism onto Z/n_H.  These are the data :func:`_from_breaks`
    builds from i_H and that omega.
    """
    _check_ramdata(rd)
    if not isinstance(h, Subgroup) or h.parent != rd.group:
        raise InputError("restrict_ramdata needs a subgroup of the ramification group")
    hgrp, _, from_sub = h.as_group()
    breaks = tuple([rd.breaks[x] for x in from_sub])
    n_h = h.order // (1 + sum(1 for b in breaks if b > 1))
    step = rd.n // n_h
    omega_exp = tuple([rd.omega_exp[x] // step for x in from_sub])
    name = f"{rd.name}|{h.elements}" if rd.name else ""
    return RamData(hgrp, rd.p, breaks, n_h, omega_exp, name=name)
