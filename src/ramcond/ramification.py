"""Ramification data of a totally ramified extension and its invariants.

A :class:`RamData` packages a finite group, the residue characteristic, the
lower-numbering wild chain (given, not derived from field data) and the tame
identification of the first quotient with roots of unity.  From it we compute
the break function i(s), the Artin character, the cyclotomic bisection class
function whose conjugate-sum recovers the Artin character, discriminant
valuations of subextensions and restricted ramification data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .characters import ClassFunction
from .errors import CheckFailure, InputError
from .exact import _inverse_zeta_minus_one_row, euler_phi, is_prime
from .groups import FiniteGroup, Subgroup, intersect, subgroup

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
    wild_chain: tuple  # descending subgroups Gamma_1 >= Gamma_2 >= ...
    n: int  # order of the tame quotient
    omega_exp: tuple  # element id -> exponent of its coset in Z/n
    name: str = field(default="", compare=False)
    _bisection: object = field(default=None, compare=False, repr=False)  # memo of bisection()
    _artin: object = field(default=None, compare=False, repr=False)  # memo of artin_character()

    @property
    def wild_subgroup(self):
        if self.wild_chain:
            return self.wild_chain[0]
        return subgroup(self.group, (0,))


def ram_data(group, p, wild_chain, omega, name=""):
    """Build and validate ramification data.

    ``wild_chain`` lists Gamma_1, Gamma_2, ... as Subgroups or element-id
    iterables; equal consecutive entries encode repeated filtration steps and
    the trivial tail may be omitted.  ``omega`` is either a dict mapping
    coset-representative ids to exponents mod n, or a pair (generator_id,
    exponent) fixing the value on one generating coset.
    """
    if not is_prime(p):
        raise InputError(f"residue characteristic {p} is not prime")
    chain = []
    for entry in wild_chain:
        if isinstance(entry, Subgroup):
            if entry.parent != group:
                raise InputError("wild chain subgroup has the wrong parent")
            chain.append(entry)
        else:
            chain.append(subgroup(group, entry))
    # drop trailing trivial entries; they encode nothing
    while chain and chain[-1].order == 1:
        chain.pop()
    chain = tuple(chain)

    prev = None
    for h in chain:
        if not h.is_normal():
            raise InputError("every wild filtration step must be normal")
        if prev is not None and not set(h.elements) <= set(prev.elements):
            raise InputError("wild filtration must be descending")
        prev = h

    gamma1 = chain[0] if chain else subgroup(group, (0,))
    order1 = gamma1.order
    m = order1
    while m % p == 0:
        m //= p
    if m != 1:
        raise InputError("the first wild subgroup must be a p-group")

    n = group.order // order1
    if gcd(n, p) != 1:
        raise InputError("tame quotient order must be prime to p")

    # elementary abelian exponent-p quotients along the chain (trivial tail implied)
    extended = list(chain) + [subgroup(group, (0,))]
    for i in range(len(chain)):
        top, bottom = extended[i], extended[i + 1]
        bset = set(bottom.elements)
        for x in top.elements:
            xp = x
            for _ in range(p - 1):
                xp = group.mult(xp, x)
            if xp not in bset:
                raise InputError(
                    f"filtration quotient at step {i + 1} has exponent > {p}"
                )
            for y in top.elements:
                comm = group.mult(group.conj(x, y), group.inv(y))
                if comm not in bset:
                    raise InputError(
                        f"filtration quotient at step {i + 1} is not abelian"
                    )

    # tame quotient must be cyclic; build its coset structure
    coset_ids, coset_of = gamma1.left_transversal()

    def coset_rep(x):
        x = int(x)
        if not 0 <= x < group.order:
            raise InputError(f"omega names element {x} outside the group")
        return coset_ids[coset_of[x]]

    def quotient_mult(a, b):
        return coset_ids[coset_of[group.mult(a, b)]]

    if omega is None:
        if n != 1:
            raise InputError("omega is required when the tame quotient is nontrivial")
        omega = (0, 0)

    exps = None
    if isinstance(omega, dict):
        given = {}
        for k, v in omega.items():
            rep = coset_rep(k)
            v = int(v) % n
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
        e = int(e) % n
        if gcd(e, n) != 1:
            raise InputError("omega generator exponent must be a unit mod n")
        rep = coset_rep(gen)
        exps = {}
        coset, k = 0, 0
        for _ in range(n):
            exps[coset] = (k * e) % n
            coset = quotient_mult(coset, rep)
            k += 1
        if len(exps) != n:
            raise InputError("omega generator does not generate the tame quotient")

    omega_exp = tuple(exps[coset_rep(x)] for x in range(group.order))
    return RamData(group, p, chain, n, omega_exp, name=name)


def i_gamma(rd, s):
    """The break function: 1 + number of wild chain steps containing s."""
    if s == 0:
        raise InputError("the break function is not finite at the identity")
    return 1 + sum(1 for h in rd.wild_chain if s in h)


def _sum_i(rd, elems):
    return sum(i_gamma(rd, s) for s in elems if s != 0)


def artin_character(rd):
    """-i(s) off the identity, normalized to sum to zero over the group.

    Built on its integer form over the denominator 1, once per ``rd`` and
    held on it, like :func:`bisection`.
    """
    if rd._artin is not None:
        return rd._artin
    breaks = [i_gamma(rd, s) for s in range(1, rd.group.order)]
    rows = ((sum(breaks),),) + tuple((-b,) for b in breaks)
    object.__setattr__(rd, "_artin", ClassFunction._from_form(rd.group, 1, (1, rows)))
    return rd._artin


def bisection(rd):
    """The cyclotomic class function whose sum with its conjugate is the Artin character.

    Values: 1/(omega(s) - 1) on tame elements, -i(s)/2 on nontrivial wild
    elements, and half the total break sum at the identity; valued in
    Q(zeta_n) through the tame identification.

    Tame values use the closed form 1/(w - 1) = (1/n) * sum_{j<n} j * w^j,
    which holds for every w != 1 with w^n = 1, since
    (w - 1) * sum_{j<n} j * w^j = n.  No field inversion is made.  The
    class function is built on its integer form over the denominator 2n,
    with one tame row per omega exponent, once per ``rd`` and held on it.
    """
    if rd._bisection is not None:
        return rd._bisection
    grp = rd.group
    n = rd.n
    wild = set(rd.wild_subgroup.elements)
    pad = (0,) * (euler_phi(n) - 1)
    tame = {}  # omega exponent -> its row
    rows = []
    for s in range(grp.order):
        if s == 0:
            rows.append((n * _sum_i(rd, grp.elements()),) + pad)
        elif s in wild:
            rows.append((-n * i_gamma(rd, s),) + pad)
        else:
            k = rd.omega_exp[s]
            if k not in tame:
                tame[k] = tuple(2 * c for c in _inverse_zeta_minus_one_row(n, k))
            rows.append(tame[k])
    object.__setattr__(rd, "_bisection", ClassFunction._from_form(grp, n, (2 * n, tuple(rows))))
    return rd._bisection


def disc_valuation(rd, h):
    """Base-valuation of the discriminant of the subextension fixed by h.

    Computed by the different tower: (sum of breaks over the whole group
    minus the sum over h) divided by |h|; asserted to be a natural number.
    """
    if not isinstance(h, Subgroup) or h.parent != rd.group:
        raise InputError("disc_valuation needs a subgroup of the ramification group")
    total = _sum_i(rd, rd.group.elements())
    inner = _sum_i(rd, h.elements)
    num = total - inner
    if num % h.order != 0:
        raise CheckFailure(
            "different tower gave a non-integral discriminant valuation"
        )
    v = num // h.order
    if v < 0:
        raise CheckFailure("negative discriminant valuation")
    return v


def restrict_ramdata(rd, h):
    """Ramification data of the subgroup: intersected chain, restricted omega."""
    if not isinstance(h, Subgroup) or h.parent != rd.group:
        raise InputError("restrict_ramdata needs a subgroup of the ramification group")
    hgrp, to_sub, from_sub = h.as_group()
    chain = []
    for g in rd.wild_chain:
        inter = intersect(h, g)
        chain.append(subgroup(hgrp, tuple(to_sub[x] for x in inter.elements)))
    wild1 = set(intersect(h, rd.wild_subgroup).elements)
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
    sub_rd = ram_data(
        hgrp, rd.p, chain, omega, name=f"{rd.name}|{h.elements}" if rd.name else ""
    )
    for x in h.elements:
        if x != 0 and i_gamma(sub_rd, to_sub[x]) != i_gamma(rd, x):
            raise CheckFailure("restricted break function disagrees with the parent")
    return sub_rd
