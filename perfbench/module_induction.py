"""Workload module-induction: character modules on wild and mixed groups.

Groups are C_n x W of order 8 to 24 with tame level n <= 3 and W a p-group
(p = 2 or 3) carrying a lower-numbering chain whose upper breaks are
integral.  Each case runs one of:

* ``regular``: the regular module of a group of order <= 16 and its conductor;
* ``induction``: conductor_via_induction of the trivial and the regular
  module of a subgroup, on groups of order <= 12 (the induced regular module
  has rank |G|);
* ``isogeny``: a permutation module and a unimodular conjugate of it (made by
  the catalog's random_module and random_unit_conjugate at set-up), built in
  the case, compared with is_isogenous and both conductors;
* ``split``: on groups with a tame part, split_idempotent and adapt_lattice
  along the tame averaging idempotent.

Module construction and its homomorphism check dominate, so ``conductors``
and ``linalg`` carry this workload.  The exact layer sees only many small
level-1 to level-3 numbers.
"""

from __future__ import annotations

from fractions import Fraction

from harness import Case, expand, matrix_spec, require


def _cyclic_chain(order, p, jumps):
    """Chain of C_{p^k} with subgroup index p^i kept up to lower break jumps[i]."""
    chain = []
    prev = 0
    for i, jump in enumerate(jumps):
        step = p**i
        chain += [tuple(range(0, order, step))] * (jump - prev)
        prev = jump
    return chain


# wild factor name -> (p, W built with ramcond, candidate chains in W's ids).
# Each chain has integral upper breaks over W (Hasse-Arf for abelian data).
def _wild(rc, name):
    cyc, prod = rc.make_cyclic, rc.make_product
    if name == "C4":
        return 2, cyc(4), [_cyclic_chain(4, 2, [1, 3]), _cyclic_chain(4, 2, [3, 5])]
    if name == "C8":
        return 2, cyc(8), [_cyclic_chain(8, 2, [1, 3, 7])]
    if name == "C16":
        return 2, cyc(16), [_cyclic_chain(16, 2, [1, 3, 7, 15])]
    if name == "V4":
        w = tuple(range(4))
        return 2, prod(cyc(2), cyc(2)), [[w], [w] * 3, [w, (0, 1), (0, 1)], [w, (0, 2), (0, 2)]]
    if name == "C2xC4":
        w, k = tuple(range(8)), (0, 2)
        return 2, prod(cyc(2), cyc(4)), [[w] + [k] * 4]
    if name == "C2^3":
        w = tuple(range(8))
        return 2, prod(prod(cyc(2), cyc(2)), cyc(2)), [[w], [w] * 3]
    if name == "C3":
        w = tuple(range(3))
        return 3, cyc(3), [[w], [w] * 2]
    if name == "C9":
        return 3, cyc(9), [_cyclic_chain(9, 3, [1, 4]), _cyclic_chain(9, 3, [2, 5])]
    if name == "C3xC3":
        w = tuple(range(9))
        return 3, prod(cyc(3), cyc(3)), [[w], [w] * 2, [w, (0, 1, 2), (0, 1, 2), (0, 1, 2)]]
    raise KeyError(name)


# ((kind, tame level n, wild factor, size), number of cases).  The size is
# the module rank for isogeny and split and the subgroup order for induction.
SLOTS = expand((
    (("regular", 1, "C8", 8), 9), (("induction", 1, "C8", 2), 8),
    (("isogeny", 3, "C8", 6), 4), (("split", 3, "C4", 3), 6),
    (("regular", 1, "C9", 9), 8), (("induction", 1, "C9", 3), 6),
    (("isogeny", 2, "C3xC3", 6), 3), (("split", 3, "V4", 3), 5),
    (("regular", 1, "C2^3", 8), 5), (("induction", 1, "C2xC4", 4), 6),
    (("isogeny", 1, "C16", 4), 6), (("split", 2, "C9", 2), 6),
    (("regular", 3, "C4", 12), 2), (("induction", 1, "C3xC3", 3), 5),
    (("isogeny", 3, "C4", 4), 6), (("split", 3, "C8", 3), 3),
    (("regular", 3, "V4", 12), 1), (("induction", 3, "C4", 4), 1),
    (("isogeny", 1, "C2^3", 4), 6), (("split", 2, "C3xC3", 2), 4),
    (("regular", 1, "C16", 16), 1), (("induction", 3, "V4", 6), 1),
    (("isogeny", 2, "C9", 6), 3),
))
SIZE = len(SLOTS)


def _module_spec(m):
    return {g: matrix_spec(m.action[g]) for g in range(m.group.order)}


def _module_of_rank(rc, rng, group, p, rank):
    for _ in range(200):
        m = rc.catalog.random_module(rng, group, p, max_rank=rank)
        if m.rank == rank:
            return m
    raise ValueError(f"no subgroup of index {rank} in {group.name}")


def _case(rc, rng, groups, kind, n, wild_name, size):
    if (n, wild_name) not in groups:
        p, wild, chains = _wild(rc, wild_name)
        group = rc.make_product(rc.make_cyclic(n), wild) if n > 1 else wild
        groups[n, wild_name] = (p, wild, chains, group)
    p, wild, chains, group = groups[n, wild_name]
    w = wild.order
    # each step repeated n times keeps the upper breaks integral over C_n x W
    chain = [step for step in rng.choice(chains) for _ in range(n)]
    omega = (w, 1 if n == 2 else rng.choice([1, 2])) if n > 1 else None
    spec = {"kind": kind, "n": n, "wild": wild_name, "chain": [list(c) for c in chain]}
    args = {"group": group, "p": p, "chain": chain, "omega": omega}
    ranks = []
    if kind == "regular":
        ranks.append(group.order)
    elif kind == "induction":
        sub = rng.choice([s for s in group.subgroups() if len(s) == size])
        args["sub"] = sub
        spec["sub"] = list(sub)
        ranks += [group.order // len(sub), group.order]
    elif kind == "isogeny":
        m = _module_of_rank(rc, rng, group, p, size)
        u = rc.catalog.random_unit_conjugate(rng, m)
        args["actions"] = (m.action, u.action)
        spec["actions"] = [_module_spec(m), _module_spec(u)]
        ranks += [m.rank, u.rank]
    elif kind == "split":
        tame = tuple(range(0, group.order, w))
        for _ in range(20):  # prefer a module the idempotent really splits
            m = _module_of_rank(rc, rng, group, p, size)
            if any(m.action[t] != m.action[0] for t in tame):
                break
        e = [[Fraction(0)] * m.rank for _ in range(m.rank)]
        for t in tame:
            for r, row in enumerate(m.action[t]):
                for c, x in enumerate(row):
                    e[r][c] += x / n
        args["action"] = m.action
        args["idempotent"] = tuple(tuple(row) for row in e)
        spec["action"] = _module_spec(m)
        ranks.append(m.rank)
    tags = {"order": group.order, "level": n, "rank": ranks}
    return Case(kind, spec, tags, args)


def generate(rc, rng, size=SIZE, workdir=None):
    groups = {}
    return [_case(rc, rng, groups, *SLOTS[i % len(SLOTS)]) for i in range(size)]


def _ram_data(rc, a):
    return rc.ram_data(a["group"], a["p"], a["chain"], a["omega"])


def run(rc, case):
    a = case.args
    group, p = a["group"], a["p"]
    rd = _ram_data(rc, a)
    if case.kind == "regular":
        m = rc.regular_module(group, p)
        return (m.rank, rc.conductor(m, rd).value, rc.module_character(m))
    if case.kind == "induction":
        h = rc.subgroup(group, a["sub"])
        hgrp = h.as_group()[0]
        out = []
        for m in (rc.trivial_module(hgrp, p), rc.regular_module(hgrp, p)):
            out.append((m.rank, rc.conductor_via_induction(m, h, rd).value))
        return tuple(out)
    if case.kind == "isogeny":
        m1, m2 = (rc.CharModule(f"m{i}", group, p, act) for i, act in enumerate(a["actions"]))
        return (
            rc.is_isogenous(m1, m2),
            rc.conductor(m1, rd).value,
            rc.conductor(m2, rd).value,
        )
    m = rc.CharModule("perm", group, p, a["action"])
    plus, minus = rc.split_idempotent(m, a["idempotent"])
    basis = rc.adapt_lattice(m, a["idempotent"])
    return (
        plus.rank,
        minus.rank,
        rc.module_character(plus),
        rc.module_character(minus),
        rc.conductor(plus, rd).value,
        rc.conductor(minus, rd).value,
        basis,
    )


def _chai_yu(rc, rd, chi, c, what):
    ac = rc.artin_conductor(rd, chi)
    ok, q = ac.rational_part()
    require(ok and c == q / 2, f"Chai-Yu fails for {what}: c={c}, (a_G, chi)={ac}")


def check(rc, case, out):
    a = case.args
    group, p = a["group"], a["p"]
    rd = _ram_data(rc, a)
    if case.kind == "regular":
        rank, c, chi = out
        v = rc.disc_valuation(rd, rc.subgroup(group, (0,)))
        require(rank == group.order, f"regular rank {rank} != |G|")
        require(c == Fraction(v, 2), f"c(regular)={c} but v(disc)/2={Fraction(v, 2)}")
        require(chi == rc.regular_character(group), "regular module character")
        _chai_yu(rc, rd, chi, c, "the regular module")
    elif case.kind == "induction":
        h = rc.subgroup(group, a["sub"])
        hgrp = h.as_group()[0]
        rd_h = rc.restrict_ramdata(rd, h)
        v = rc.disc_valuation(rd, h)
        bisection_h = rc.bisection(rd_h)
        for (rank, c), chi in zip(out, (rc.trivial_character(hgrp), rc.regular_character(hgrp))):
            ok, inner = rc.pair(bisection_h, chi).rational_part()
            require(ok, f"pairing over the subgroup {a['sub']} is not rational")
            rank_m = chi.values[0].rational_part()[1]
            formula = inner + Fraction(v * rank_m, 2)
            require(rank == rank_m, f"module rank {rank} != chi(e) = {rank_m}")
            require(c == formula, f"induction formula: c(Ind M)={c} vs {formula}")
            _chai_yu(rc, rd, rc.induce(chi, h), c, f"Ind from {a['sub']}")
    elif case.kind == "isogeny":
        iso, c1, c2 = out
        require(iso is True, "unimodular conjugate not reported isogenous")
        require(c1 == c2, f"isogenous modules with conductors {c1} != {c2}")
        m = rc.CharModule("m", group, p, a["actions"][0])
        _chai_yu(rc, rd, rc.module_character(m), c1, "the permutation module")
    else:
        r_plus, r_minus, chi_plus, chi_minus, c_plus, c_minus, basis = out
        m = rc.CharModule("perm", group, p, a["action"])
        require(r_plus + r_minus == m.rank, f"split ranks {r_plus}+{r_minus} != {m.rank}")
        require(chi_plus + chi_minus == rc.module_character(m), "split characters do not add up")
        require(rc.check_adapted_basis(m, a["idempotent"], basis) is True, "adapted basis rejected")
        _chai_yu(rc, rd, chi_plus, c_plus, "the plus summand")
        _chai_yu(rc, rd, chi_minus, c_minus, "the minus summand")
        c_total = rc.conductor(m, rd).value
        require(c_plus + c_minus == c_total, f"conductors not additive: {c_plus}+{c_minus} != {c_total}")
