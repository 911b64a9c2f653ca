"""Workload tame-pairing: bisection and conductor pairings at levels 8 to 64.

Each case is tame data C_n, or C_n x C_p with a small wild factor, of order
at most 60.  It runs ram_data, bisection and artin_character, then conductor
and artin_conductor for two to four Q-rational modules of rank at most 4,
then restrict_ramdata and disc_valuation on one subgroup.  The exact layer
does most of the work here: extended-gcd inversion for the tame values and
pairings at level n.

The slot table fixes level, wild factor and module ranks per case, so that
every seed has the same cost profile; groups are shared between the cases of
one design.  The seed draws the prime, the tame identification, the
subgroups whose cosets the modules permute, and the subgroup for the
restriction among those of the fixed index.  Levels 32 to 64 are the four
costliest of the 105 cases and set the far tail.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from harness import Case, expand, matrix_spec, require

# ((level n, wild prime or 0, module ranks), number of cases).  The first
# module is the trivial one and the others are permutation modules of the
# given rank.  Levels 32 to 64 are the four costliest cases of 105.
SLOTS = expand((
    ((8, 0, (1, 2, 4)), 14), ((12, 0, (1, 2)), 14), ((10, 0, (1, 2, 1)), 8),
    ((8, 3, (1, 2)), 6), ((12, 0, (1, 4, 3)), 7), ((11, 0, (1, 1)), 5),
    ((9, 0, (1, 3, 3, 1)), 4), ((10, 3, (1, 3)), 4), ((14, 0, (1, 2, 2, 1)), 4),
    ((15, 0, (1, 3)), 5), ((16, 0, (1, 4)), 5), ((18, 0, (1, 3, 2)), 4),
    ((20, 0, (1, 4)), 4), ((21, 0, (1, 3)), 2), ((24, 0, (1, 2)), 3),
    ((12, 5, (1, 4)), 2), ((16, 3, (1, 2)), 2), ((24, 0, (1, 3, 4)), 2),
    ((28, 0, (1, 2)), 2), ((30, 0, (1, 3)), 2), ((36, 0, (1, 4)), 2),
    ((32, 0, (1, 2)), 1), ((40, 0, (1, 4)), 1), ((48, 0, (1, 3)), 1),
    ((64, 0, (1, 2)), 1),
))
SIZE = len(SLOTS)


def _tame_primes(n):
    return [p for p in (2, 3, 5, 7) if n % p]


def _permutation_module(rc, rng, group, p, rank):
    """Permutation module on the cosets of a subgroup of index ``rank``.

    It is the Weil restriction of the trivial rank-1 module of the subgroup.
    """
    h = rc.subgroup(group, rng.choice([e for e in group.subgroups() if len(e) * rank == group.order]))
    return rc.weil_restriction(rc.trivial_module(h.as_group()[0], p), h)


def _case(rc, rng, groups, n, wild, ranks):
    if wild:
        p = wild
        if (n, p) not in groups:
            groups[n, p] = rc.make_product(rc.make_cyclic(n), rc.make_cyclic(p))
        group = groups[n, p]
        # ids are a*p + b; the wild factor is 0..p-1 and (1, 0) = p generates
        # the tame quotient.  Stretching the wild break to a multiple of n
        # keeps the upper break integral (Hasse-Arf), so every Artin
        # conductor and discriminant valuation is integral.
        chain = [tuple(range(p))] * n
        tame_gen = p
    else:
        p = rng.choice(_tame_primes(n))
        if n not in groups:
            groups[n] = rc.make_cyclic(n)
        group = groups[n]
        chain = []
        tame_gen = 1
    omega = (tame_gen, rng.choice([e for e in range(1, n) if gcd(e, n) == 1]))
    gens = group.generating_set()
    modules = [("trivial", {g: ((1,),) for g in gens})]
    for i, rank in enumerate(ranks[1:]):
        m = _permutation_module(rc, rng, group, p, rank)
        modules.append((f"m{i}:{m.name}", {g: m.action[g] for g in gens}))
    # the restriction runs on a largest proper subgroup, so that its cost
    # does not depend on the seed
    index = min(q for q in range(2, group.order + 1) if group.order % q == 0)
    sub = rng.choice([h for h in group.subgroups() if len(h) * index == group.order])
    spec = {
        "n": n,
        "p": p,
        "wild": wild,
        "chain": [list(c) for c in chain],
        "omega": list(omega),
        "modules": [[name, {g: matrix_spec(m) for g, m in act.items()}] for name, act in modules],
        "sub": list(sub),
    }
    tags = {
        "level": n,
        "order": group.order,
        "rank": [len(next(iter(act.values()))) for _, act in modules],
    }
    args = {"group": group, "p": p, "chain": chain, "omega": omega, "modules": modules, "sub": sub}
    return Case("tame" if not wild else "mixed", spec, tags, args)


def generate(rc, rng, size=SIZE, workdir=None):
    groups = {}
    return [_case(rc, rng, groups, *SLOTS[i % len(SLOTS)]) for i in range(size)]


def run(rc, case):
    a = case.args
    group = a["group"]
    rd = rc.ram_data(group, a["p"], a["chain"], a["omega"])
    ba = rc.bisection(rd)
    art = rc.artin_character(rd)
    conductors = []
    for name, gens in a["modules"]:
        m = rc.module_from_generators(name, group, a["p"], gens)
        c = rc.conductor(m, rd).value
        ac = rc.artin_conductor(rd, rc.module_character(m))
        conductors.append((name, c, ac))
    h = rc.subgroup(group, a["sub"])
    rd_h = rc.restrict_ramdata(rd, h)
    v_h = rc.disc_valuation(rd, h)
    v_e = rc.disc_valuation(rd, rc.subgroup(group, (0,)))
    return (ba, art, tuple(conductors), rd_h, v_h, v_e)


def check(rc, case, out):
    ba, art, conductors, rd_h, v_h, v_e = out
    for s in range(case.args["group"].order):
        require(
            ba.values[s] + ba.values[s].conjugate() == art.values[s],
            f"bA(s) + conj(bA(s)) != a_G(s) at s={s}",
        )
    require(ba.values[0] == Fraction(v_e, 2), f"bA(e)={ba.values[0]} but v(disc)={v_e}")
    for name, c, ac in conductors:
        ok, q = ac.rational_part()
        require(ok and c == q / 2, f"Chai-Yu fails for {name}: c={c}, (a_G, chi)={ac}")
    require(conductors[0][1] == 0, f"c(trivial)={conductors[0][1]}")
    h = rc.subgroup(case.args["group"], case.args["sub"])
    lhs = rc.restrict(ba, h)
    rhs = rc.bisection(rd_h) + Fraction(v_h, 2) * rc.regular_character(rd_h.group)
    require(lhs == rhs, f"restriction identity fails on subgroup {case.args['sub']}")
