import random
from fractions import Fraction

import pytest

import dense
from ramcond.catalog import _CATALOG_BUILDERS, catalog, random_ram_data
from ramcond import verify
from ramcond.characters import ClassFunction, regular_character, restrict
from ramcond.errors import CheckFailure, InputError
from ramcond.exact import CycloNum
from ramcond.groups import FiniteGroup, make_cyclic, make_product, make_symmetric, subgroup
from ramcond.ramification import (
    _from_breaks,
    artin_character,
    bisection,
    disc_valuation,
    i_gamma,
    ram_data,
    restrict_ramdata,
)


def tame_c3():
    return ram_data(make_cyclic(3), 2, [], (1, 1))


def wild_c2():
    return ram_data(make_cyclic(2), 2, [range(2)], None)


def c4_tower():
    return ram_data(make_cyclic(4), 2, [range(4), (0, 2), (0, 2)], None)


def test_i_gamma_tame():
    rd = tame_c3()
    assert i_gamma(rd, 1) == 1
    assert i_gamma(rd, 2) == 1
    with pytest.raises(InputError):
        i_gamma(rd, 0)


def test_i_gamma_wild():
    rd = wild_c2()
    assert i_gamma(rd, 1) == 2


def test_i_gamma_c4_tower():
    rd = c4_tower()
    assert i_gamma(rd, 1) == 2
    assert i_gamma(rd, 3) == 2
    assert i_gamma(rd, 2) == 4


def test_artin_character_values():
    assert [v.rational_part()[1] for v in artin_character(tame_c3()).values] == [
        2,
        -1,
        -1,
    ]
    assert [v.rational_part()[1] for v in artin_character(wild_c2()).values] == [2, -2]
    trivial = ram_data(make_cyclic(1), 2, [], None)
    assert [v.rational_part()[1] for v in artin_character(trivial).values] == [0]


def test_bisection_tame_c3():
    rd = tame_c3()
    z = CycloNum.zeta(3)
    ba = bisection(rd)
    assert ba.values[0] == 1
    assert ba.values[1] * (z - 1) == 1
    assert ba.values[2] * (z * z - 1) == 1


def test_bisection_wild_c2():
    ba = bisection(wild_c2())
    assert ba.values[0] == 1
    assert ba.values[1] == -1


def test_bisection_trivial_group():
    rd = ram_data(make_cyclic(1), 3, [], None)
    assert bisection(rd).values[0] == 0


@pytest.mark.parametrize("n, wild", [(8, 0), (12, 0), (24, 0), (30, 0), (8, 3), (10, 3)])
def test_bisection_matches_the_dense_oracle_at_tame_levels(n, wild):
    # tame C_n, or C_n x C_p with the wild factor stretched over n steps, as
    # the tame-pairing benchmark builds them; every omega the oracle inverts
    if wild:
        group = make_product(make_cyclic(n), make_cyclic(wild))
        p, chain, gen = wild, [range(wild)] * n, wild
    else:
        group, p, chain, gen = make_cyclic(n), 7, [], 1
    for e in (1, n - 1):
        rd = ram_data(group, p, chain, (gen, e))
        got, want = bisection(rd), dense.bisection(rd)
        assert got.level == want.level == n
        assert [v.coeffs for v in got.values] == [v.coeffs for v in want.values], (n, wild, e)


def test_bisection_is_held_on_the_ram_data():
    rd, fresh = c4_tower(), c4_tower()
    ba = bisection(rd)
    assert bisection(rd) is ba
    # the memo takes no part in equality, hashing or repr
    assert rd == fresh and hash(rd) == hash(fresh) and repr(rd) == repr(fresh)
    assert bisection(fresh) == ba


def test_artin_character_is_held_on_the_ram_data():
    for (_, build), rd in zip(_CATALOG_BUILDERS, catalog()):
        fresh = build()
        a = artin_character(rd)
        assert artin_character(rd) is a
        assert rd == fresh and repr(rd) == repr(fresh)
        built = artin_character(fresh)
        assert built is not a and built == a, rd.name


def test_disc_valuation_examples():
    rd = tame_c3()
    full = subgroup(rd.group, range(3))
    assert disc_valuation(rd, full) == 0
    assert disc_valuation(rd, subgroup(rd.group, (0,))) == 2
    rd2 = wild_c2()
    assert disc_valuation(rd2, subgroup(rd2.group, (0,))) == 2


def test_restrict_ramdata_c4_tower():
    rd = c4_tower()
    h = subgroup(rd.group, (0, 2))
    sub = restrict_ramdata(rd, h)
    assert sub.group.order == 2
    assert i_gamma(sub, 1) == 4


def test_restrict_ramdata_full_and_trivial():
    rd = tame_c3()
    full = restrict_ramdata(rd, subgroup(rd.group, range(3)))
    assert full.n == 3
    assert [i_gamma(full, s) for s in (1, 2)] == [1, 1]
    triv = restrict_ramdata(rd, subgroup(rd.group, (0,)))
    assert triv.group.order == 1


def test_invalid_ram_data_rejected():
    g4 = make_cyclic(4)
    with pytest.raises(InputError):
        ram_data(g4, 2, [(0, 2)], (1, 1), name="gamma1-not-first")  # n=2 not prime to 2
    with pytest.raises(InputError):
        ram_data(make_cyclic(3), 2, [range(3)], None)  # wild part must be a p-group
    with pytest.raises(InputError):
        ram_data(g4, 2, [range(4), range(4), (0, 2), range(4)], None)  # not descending
    with pytest.raises(InputError):
        # omega not injective: both cosets mapped to exponent 0
        ram_data(make_cyclic(3), 2, [], {0: 0, 1: 0, 2: 0})
    with pytest.raises(InputError):
        # C4 wild with a single chain step has a non-elementary quotient
        ram_data(g4, 2, [range(4)], None)


def test_mixed_c6_values():
    rd = ram_data(make_cyclic(6), 2, [(0, 3)] * 3, (1, 1))
    assert rd.n == 3
    assert [i_gamma(rd, s) for s in range(1, 6)] == [1, 1, 4, 1, 1]
    a = artin_character(rd)
    assert a.values[0] == 8
    ba = bisection(rd)
    z = CycloNum.zeta(3)
    assert ba.values[0] == 4
    assert ba.values[3] == -2
    assert ba.values[1] * (z - 1) == 1
    assert ba.values[4] * (z - 1) == 1
    assert ba.values[2] * (z * z - 1) == 1


def assert_bisection_identity(rd):
    ba = bisection(rd)
    a = artin_character(rd)
    for s in range(rd.group.order):
        assert ba.values[s] + ba.values[s].conjugate() == a.values[s], rd.name


def test_bisection_identity_on_catalog():
    for rd in catalog():
        assert_bisection_identity(rd)


def test_bisection_identity_randomized():
    rng = random.Random(7)
    for _ in range(40):
        assert_bisection_identity(random_ram_data(rng))


def test_check_bisection_records_tame_identity_and_witness(monkeypatch):
    rd = tame_c3()
    results = []
    verify.check_bisection(rd, results)
    records = {name: (ok, detail) for name, ok, detail in results}
    assert records[f"tame-value-identity[{rd.name}]"] == (True, "")
    assert records[f"bisection[{rd.name}]"] == (True, "")

    # a wrong tame value fails both records, each naming the element
    ba = bisection(rd)
    wrong = ClassFunction(rd.group, (ba.values[0], ba.values[1] + 1, ba.values[2] + 1))
    monkeypatch.setattr(verify, "bisection", lambda _: wrong)
    results = []
    verify.check_bisection(rd, results)
    records = {name: (ok, detail) for name, ok, detail in results}
    ok, detail = records[f"bisection[{rd.name}]"]
    assert not ok and detail == "s=1: lhs=1, rhs=-1"
    ok, detail = records[f"tame-value-identity[{rd.name}]"]
    assert not ok and detail.startswith("s=1: lhs=") and detail.endswith(", rhs=1")


def test_artin_sums_to_zero_everywhere():
    rng = random.Random(11)
    cases = list(catalog()) + [random_ram_data(rng) for _ in range(20)]
    for rd in cases:
        total = sum(v.rational_part()[1] for v in artin_character(rd).values)
        assert total == 0, rd.name


def test_identity_value_is_half_disc():
    for rd in catalog():
        ba = bisection(rd)
        v = disc_valuation(rd, subgroup(rd.group, (0,)))
        assert ba.values[0] == Fraction(v, 2), rd.name


def test_i_gamma_constant_on_classes():
    from ramcond.groups import conjugacy_classes

    for rd in catalog():
        for cls in conjugacy_classes(rd.group):
            if cls == (0,):
                continue
            vals = {i_gamma(rd, s) for s in cls}
            assert len(vals) == 1, rd.name


def test_restriction_identity_all_catalog_subgroups():
    """restrict(bA, H) = bA_H + (1/2) v(disc) * regular character of H."""
    for rd in catalog():
        for elems in rd.group.subgroups():
            h = subgroup(rd.group, elems)
            lhs = restrict(bisection(rd), h)
            sub_rd = restrict_ramdata(rd, h)
            rhs = bisection(sub_rd) + Fraction(disc_valuation(rd, h), 2) * regular_character(
                sub_rd.group
            )
            assert lhs == rhs, (rd.name, elems)


def test_non_integral_disc_is_flagged():
    # Klein four with a chain making the break sums non-divisible: i-values
    # are 2,2,2 on the three involutions; restrict to an index-2 subgroup H
    # not in the chain tail; sums stay integral here, so craft directly:
    rd = ram_data(make_product(make_cyclic(2), make_cyclic(2)), 2, [range(4), (0, 1)], None)
    # total = sum i over nontrivial = (3 + 2 + 2) = 7; over H={0,1}: i(1)=3
    h = subgroup(rd.group, (0, 1))
    assert disc_valuation(rd, h) == 2
    h2 = subgroup(rd.group, (0, 2))
    with pytest.raises(CheckFailure):
        disc_valuation(rd, h2)  # (7 - 2)/2 is not an integer


def test_omega_dict_must_be_a_homomorphism():
    # injective but not additive: 1 + 1 = 2, yet omega(2) = 3
    with pytest.raises(InputError, match="omega is not a homomorphism to Z/n"):
        ram_data(make_cyclic(4), 3, [], {0: 0, 1: 1, 2: 3, 3: 2})
    assert ram_data(make_cyclic(4), 3, [], {0: 0, 1: 3, 2: 2, 3: 1}).omega_exp == (0, 3, 2, 1)
    # on C12 over Gamma_1 = {0, 4, 8}, with coset members other than the least as keys
    g12, wild = make_cyclic(12), [(0, 4, 8)]
    with pytest.raises(InputError, match="omega is not a homomorphism to Z/n"):
        ram_data(g12, 3, wild, {0: 0, 5: 1, 10: 3, 3: 2})
    assert ram_data(g12, 3, wild, {4: 0, 5: 1, 10: 2, 3: 3}).omega_exp == (0, 1, 2, 3) * 3


def heisenberg_mod3():
    """Upper unitriangular 3 x 3 matrices mod 3: order 27, exponent 3, not abelian."""
    ids = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {e: i for i, e in enumerate(ids)}
    return FiniteGroup(
        [[index[((a + x) % 3, (b + y) % 3, (c + z + a * y) % 3)] for x, y, z in ids] for a, b, c in ids]
    )


REFUSED_CHAINS = {
    "exponent-at-repeat": (make_cyclic(4), 2, [range(4), range(4)], "filtration quotient at step 2 has exponent > 2"),
    "exponent-counts-raw-steps": (
        make_cyclic(8),
        2,
        [range(8), range(8), (0, 4), (0, 4)],
        "filtration quotient at step 2 has exponent > 2",
    ),
    "exponent-at-a-later-step": (
        make_cyclic(8),
        2,
        [range(8), (0, 2, 4, 6), (0, 2, 4, 6)],
        "filtration quotient at step 3 has exponent > 2",
    ),
    "exponent-over-dropped-tail": (make_cyclic(4), 2, [range(4), (0,), (0,)], "filtration quotient at step 1 has exponent > 2"),
    "not-descending": (make_cyclic(4), 2, [range(4), (0, 2), range(4)], "wild filtration must be descending"),
    "not-normal": (make_symmetric(3), 2, [(0, 1)], "every wild filtration step must be normal"),
    "not-abelian": (heisenberg_mod3(), 3, [range(27)], "filtration quotient at step 1 is not abelian"),
    "not-abelian-at-repeat": (heisenberg_mod3(), 3, [range(27), range(27)], "filtration quotient at step 2 is not abelian"),
    "wrong-parent": (make_cyclic(4), 2, [subgroup(make_cyclic(2), (0, 1))], "wild chain subgroup has the wrong parent"),
    # every entry is read before any step is checked
    "entries-before-normality": (make_symmetric(3), 2, [(0, 1), (0, 7)], "subgroup elements out of range"),
    "normality-before-p-group": (make_symmetric(3), 3, [(0, 1), (0, 1)], "every wild filtration step must be normal"),
    "p-group-before-exponent": (make_cyclic(6), 2, [range(6), range(6)], "the first wild subgroup must be a p-group"),
    "chain-not-iterable": (make_cyclic(4), 2, 5, "wild chain must be an iterable of steps, got 5"),
    "step-not-iterable": (make_cyclic(4), 2, [range(4), 5], "wild chain step 2 must be a Subgroup or element ids, got 5"),
    # each step is checked for normality, then descent, before the next step
    "descent-before-later-normality": (
        make_symmetric(3), 3, [(0, 3, 4), range(6), (0, 1)], "wild filtration must be descending"
    ),
}


@pytest.mark.parametrize("case", REFUSED_CHAINS)
def test_ram_data_refusal_messages(case):
    group, p, chain, message = REFUSED_CHAINS[case]
    with pytest.raises(InputError) as exc:
        ram_data(group, p, chain, None)
    assert str(exc.value) == message


def dihedral8():
    """D4 of order 8: r^a s^b as id 2a + b, with s r = r^-1 s."""
    return FiniteGroup(
        [[2 * ((a + (-1) ** b * c) % 4) + (b + d) % 2 for c in range(4) for d in range(2)]
         for a in range(4) for b in range(2)]
    )


def test_quotient_checks_on_generators_accept_what_all_pairs_accept():
    """Catalog and random data pass both the generator check of ``ram_data``
    and the all-pairs oracle."""
    rng = random.Random(24)
    for rd in list(catalog()) + [random_ram_data(rng) for _ in range(60)]:
        assert dense.quotient_refusal(rd.group, rd.p, dense.wild_chain(rd)) is None, rd.name


@pytest.mark.parametrize(
    "group, p, elementary",
    [
        (make_cyclic(8), 2, False),
        (make_product(make_cyclic(2), make_cyclic(4)), 2, False),
        (make_product(make_cyclic(2), make_cyclic(2)), 2, True),
        (dihedral8(), 2, False),
        (make_cyclic(9), 3, False),
        (make_product(make_cyclic(3), make_cyclic(3)), 3, True),
        (heisenberg_mod3(), 3, False),
    ],
    ids=["C8", "C2xC4", "C2xC2", "D4", "C9", "C3xC3", "Heis3"],
)
def test_quotient_checks_on_generators_refuse_what_all_pairs_refuse(group, p, elementary):
    """Every descending chain of up to three normal subgroups from the whole
    p-group: ``ram_data`` refuses a filtration quotient iff the all-pairs
    oracle does, with the same message: cyclic steps fail on the exponent,
    Heis3 on commutation, and on D4 the quotient of the whole group fails
    both checks, where the least failing element, a reflection, names
    commutation.  Only an elementary abelian group passes every chain."""
    normal = [h for h in group.subgroups() if subgroup(group, h).is_normal()]
    whole = tuple(range(group.order))
    chains = [[whole]]
    for _ in range(2):
        chains += [c + [h] for c in chains if len(c) == len(chains[-1]) for h in normal
                   if set(h) <= set(c[-1])]
    refused = 0
    for chain in chains:
        expected = dense.quotient_refusal(group, p, chain)
        if expected is None:
            ram_data(group, p, chain, None)
            continue
        refused += 1
        with pytest.raises(InputError) as exc:
            ram_data(group, p, chain, None)
        assert str(exc.value) == expected
    assert bool(refused) != elementary


@pytest.mark.parametrize("bad", [2.0, 2.5, True])
def test_ram_data_chain_ids_must_be_ints(bad):
    # a float or bool id is refused, not truncated to an int
    with pytest.raises(InputError) as exc:
        ram_data(make_cyclic(4), 2, [(0, 1, bad, 3)], None)
    assert str(exc.value) == f"wild chain step 1 element {bad!r} is not an integer id"


@pytest.mark.parametrize("omega", [5, (1, 1, 1), (1,), [], {1, 2}, "12", range(2)])
def test_ram_data_omega_must_be_a_dict_or_a_pair(omega):
    # C3 with p = 2 is tame of order 3; a list pair reads as a tuple pair
    c3 = make_cyclic(3)
    assert ram_data(c3, 2, [], [1, 1]) == ram_data(c3, 2, [], (1, 1))
    with pytest.raises(InputError) as exc:
        ram_data(c3, 2, [], omega)
    assert str(exc.value) == f"omega must be a dict or a (generator, exponent) pair, got {omega!r}"


@pytest.mark.parametrize("bad", [1.9, 1.5, True, "1"])
def test_ram_data_omega_must_be_ints(bad):
    # C4 with p = 3 is tame of order 4: omega reads every id and exponent strictly,
    # where int() would truncate 1.9 and 1.5 to 1 and accept (0, 1, 2, 3)
    c4 = make_cyclic(4)
    assert ram_data(c4, 3, [], (1, 1)).omega_exp == (0, 1, 2, 3)
    refusals = [
        ((1, bad), f"omega exponent {bad!r} is not an integer"),
        ((bad, 1), f"omega element {bad!r} is not an integer id"),
        ({0: 0, 1: bad, 2: 2, 3: 3}, f"omega exponent {bad!r} of element 1 is not an integer"),
        ({0: 0, bad: 1, 2: 2, 3: 3}, f"omega element {bad!r} is not an integer id"),
    ]
    for omega, message in refusals:
        with pytest.raises(InputError) as exc:
            ram_data(c4, 3, [], omega)
        assert str(exc.value) == message


def _restriction_cases():
    rng = random.Random(17)
    for rd in list(catalog()) + [random_ram_data(rng) for _ in range(20)]:
        for elems in rd.group.subgroups():
            yield rd, subgroup(rd.group, elems)


def test_restrict_ramdata_matches_validating_oracle():
    for rd, h in _restriction_cases():
        sub = restrict_ramdata(rd, h)
        oracle = dense.restrict_ramdata(rd, h)
        assert sub == oracle and sub.name == oracle.name, (rd.name, h.elements)
        _, to_sub, _ = h.as_group()
        for x in h.elements[1:]:
            assert i_gamma(sub, to_sub[x]) == i_gamma(oracle, to_sub[x]) == i_gamma(rd, x)


def test_restrict_ramdata_builds_no_subgroup_and_validates_nothing(monkeypatch):
    import ramcond.groups as groups
    import ramcond.ramification as ramification

    cases = list(_restriction_cases())
    for _, h in cases:
        h.as_group()  # the re-indexed group is built on first read, held on h

    def refuse(*args, **kwargs):
        raise AssertionError("restrict_ramdata re-validated")

    monkeypatch.setattr(ramification, "ram_data", refuse)
    monkeypatch.setattr(groups.Subgroup, "__init__", refuse)
    for rd, h in cases:
        assert restrict_ramdata(rd, h).group.order == h.order


def _omega_on_cosets(rd):
    """omega of ``rd`` as a dict on the least member of each coset of Gamma_1."""
    gamma1 = subgroup(rd.group, [s for s in range(rd.group.order) if s == 0 or rd.breaks[s] > 1])
    reps, _ = gamma1.left_transversal()
    return {r: rd.omega_exp[r] for r in reps}


def test_from_breaks_rebuilds_every_ram_data_from_its_break_function():
    rng = random.Random(30)
    for rd in list(catalog()) + [random_ram_data(rng) for _ in range(200)]:
        assert _from_breaks(rd.group, rd.p, rd.breaks, _omega_on_cosets(rd)) == rd, rd.name


def test_restrict_ramdata_is_what_the_checked_constructor_builds_on_the_subgroup():
    """Restriction skips every check; the checked constructor, given i and
    omega read on H, must accept them and build the same data."""
    for rd in catalog():
        for elems in rd.group.subgroups():
            h = subgroup(rd.group, elems)
            hgrp, to_sub, _ = h.as_group()
            breaks = tuple([rd.breaks[x] for x in elems])
            n_h = h.order // sum(1 for x in elems if x == 0 or rd.breaks[x] > 1)
            assert all(rd.omega_exp[x] * n_h % rd.n == 0 for x in elems)
            omega = {to_sub[x]: rd.omega_exp[x] * n_h // rd.n for x in elems}
            assert _from_breaks(hgrp, rd.p, breaks, omega) == restrict_ramdata(rd, h), (rd.name, elems)


REFUSED_BREAKS = {
    "not-normal": (make_symmetric(3), 2, (0, 2, 1, 1, 1, 1), "every wild filtration step must be normal"),
    "top-not-a-p-group": (make_cyclic(6), 2, (0, 2, 2, 2, 2, 2), "the first wild subgroup must be a p-group"),
    "tame-order-divisible-by-p": (make_cyclic(4), 2, (0, 1, 2, 1), "tame quotient order must be prime to p"),
    # C8 / C2 at v = 3 (the chain C8, C8, C2, C2), and C4 alone at v = 4
    "exponent-at-step-v-minus-1": (
        make_cyclic(8), 2, (0, 3, 3, 3, 5, 3, 3, 3), "filtration quotient at step 2 has exponent > 2"
    ),
    "exponent-past-a-gap": (make_cyclic(4), 2, (0, 4, 4, 4), "filtration quotient at step 3 has exponent > 2"),
    "not-abelian": (heisenberg_mod3(), 3, (0,) + (2,) * 26, "filtration quotient at step 1 is not abelian"),
}


@pytest.mark.parametrize("case", REFUSED_BREAKS)
def test_from_breaks_refusal_messages(case):
    group, p, breaks, message = REFUSED_BREAKS[case]
    with pytest.raises(InputError) as exc:
        _from_breaks(group, p, breaks, None)
    assert str(exc.value) == message
