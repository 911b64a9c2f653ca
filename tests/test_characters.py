import functools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
from dense import conjugate, identity_matrix, induce_sum, mat_inv, mat_mul, pair_rational

from ramcond.catalog import catalog, random_module, random_ram_data, random_unit_conjugate
from ramcond.characters import (
    ClassFunction,
    artin_conductor,
    induce,
    pair,
    regular_character,
    restrict,
    trivial_character,
)
from ramcond.conductors import (
    CharModule,
    conductor,
    is_isogenous,
    module_character,
    permutation_module,
    regular_module,
    split_idempotent,
    weil_restriction,
)
from ramcond.errors import CheckFailure, InputError
from ramcond.exact import CycloNum, euler_phi
from ramcond.groups import conjugacy_classes, make_cyclic, make_symmetric, subgroup
from ramcond.linalg import read_matrix, sparse_mul
from ramcond.ramification import artin_character, bisection, ram_data, restrict_ramdata

CATALOG_GROUPS = tuple({rd.group.name: rd.group for rd in catalog()}.values())


def tame_c3():
    return ram_data(make_cyclic(3), 2, [], (1, 1))


def wild_c2():
    return ram_data(make_cyclic(2), 2, [range(2)], None)


def test_pair_with_trivial_and_regular():
    g = make_cyclic(3)
    one = trivial_character(g)
    assert pair(one, one) == 1
    reg = regular_character(g)
    z = CycloNum.zeta(3)
    f = ClassFunction(g, (5, z, z * z))
    assert pair(reg, f) == 5


def test_pair_bisection_with_trivial_is_zero():
    rd = tame_c3()
    assert pair(bisection(rd), trivial_character(rd.group)) == 0


def test_pair_symmetric_and_bilinear():
    g = make_symmetric(3)
    rng = random.Random(3)

    def random_cf():
        vals = [None] * 6
        for cls in conjugacy_classes(g):
            v = CycloNum.from_rational(rng.randint(-4, 4)) + CycloNum.zeta(4) * rng.randint(-2, 2)
            for s in cls:
                vals[s] = v
        return ClassFunction(g, vals)

    for _ in range(5):
        f1, f2, f3 = random_cf(), random_cf(), random_cf()
        assert pair(f1, f2) == pair(f2, f1)
        assert pair(f1 + f2, f3) == pair(f1, f3) + pair(f2, f3)


def test_pair_rational_path_matches_generic_sum():
    rng = random.Random(11)
    for g in (make_cyclic(5), make_symmetric(3), make_cyclic(12)):
        classes = conjugacy_classes(g)
        for level in (3, 4, 8, 12):

            def class_values(value):
                vals = [None] * g.order
                for cls in classes:
                    v = value()
                    for s in cls:
                        vals[s] = v
                return vals

            def rational():
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

            def cyclotomic():
                return CycloNum(level, [rational() for _ in range(euler_phi(level))])

            f = ClassFunction(g, class_values(cyclotomic))
            qs = class_values(rational)
            rational = ClassFunction(g, qs)
            # the same rationals stored at level ``level``, with phi(level) coefficients each
            lifted = ClassFunction(g, [CycloNum.from_rational(q, level) for q in qs])
            assert rational.level == 1 and lifted.level == level
            generic = pair(f, lifted)
            assert pair(f, rational).coeffs == generic.coeffs
            assert pair(rational, f).coeffs == generic.coeffs
            assert pair(rational, rational) == pair(lifted, lifted)


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


# zeros, negatives and mixed denominators for the induction oracle
SAMPLE_RATIONALS = (0, 0, -3, Fraction(5, 4), Fraction(-7, 6), Fraction(2, 9))


def _class_function(grp, level, rational):
    """A class function at ``level`` whose coefficients are drawn by ``rational()``."""
    vals = [None] * grp.order
    for cls in conjugacy_classes(grp):
        v = CycloNum(level, [rational() for _ in range(euler_phi(level))])
        for s in cls:
            vals[s] = v
    return ClassFunction(grp, vals)


@st.composite
def rational_pairings(draw):
    """(f, g, q): a pairing with a rational side q, which is f or g."""
    grp = draw(st.sampled_from(CATALOG_GROUPS))
    v = _class_function(grp, draw(st.sampled_from((1, 3, 4, 8, 12))), lambda: draw(RATIONALS))
    q = _class_function(grp, 1, lambda: draw(RATIONALS))
    return (q, v, q) if draw(st.booleans()) else (v, q, q)


@settings(max_examples=80, deadline=None)
@given(rational_pairings())
def test_pair_matches_fraction_oracle(sides):
    f, g, q = sides
    other = g if q is f else f
    got = pair(f, g)
    want = pair_rational(other, q)
    assert got.level == want.level and got.coeffs == want.coeffs


# one rational side, rational pairs, coprime and non-coprime levels, and level 64
LEVEL_PAIRS = ((1, 1), (1, 12), (3, 1), (3, 4), (4, 6), (8, 12), (64, 1))


def _random_pair(rng, grp, levels):
    return [_class_function(grp, k, lambda: rng.choice(SAMPLE_RATIONALS)) for k in levels]


@pytest.mark.parametrize("levels", LEVEL_PAIRS, ids=[f"{a}-{b}" for a, b in LEVEL_PAIRS])
def test_pair_matches_the_value_oracle(levels):
    rng = random.Random(str(levels))
    for grp in CATALOG_GROUPS:
        f, g = _random_pair(rng, grp, levels)
        for a, b in ((f, g), (g, f)):
            got, want = pair(a, b), dense.pair_by_values(a, b)
            assert (got.level, got.coeffs) == (want.level, want.coeffs), (grp.name, levels)


@pytest.mark.parametrize("levels", LEVEL_PAIRS, ids=[f"{a}-{b}" for a, b in LEVEL_PAIRS])
def test_sum_and_rational_multiples_match_the_value_oracle(levels):
    rng = random.Random(str(levels))
    for grp in CATALOG_GROUPS:
        f, g = _random_pair(rng, grp, levels)
        want = ClassFunction(grp, [a + b for a, b in zip(f.values, g.values)])
        assert _same_values(f + g, want) and _same_values(g + f, want), (grp.name, levels)
        for q in (0, 3, Fraction(-5, 6)):
            want = ClassFunction(grp, [v * q for v in g.values])
            assert _same_values(g * q, want) and _same_values(q * g, want), (grp.name, q)


@pytest.mark.parametrize("bad", [0.5, True, "1/3", 1e300], ids=repr)
def test_readers_refuse_values_that_are_not_exact(bad):
    g = make_cyclic(2)
    chi = trivial_character(g)
    reads = [
        lambda: ClassFunction(g, [bad, bad]),
        lambda: CycloNum(1, (bad,)),
        lambda: CycloNum.from_rational(bad),
        lambda: chi * bad,
        lambda: bad * chi,
    ]
    for read in reads:
        with pytest.raises(InputError) as excinfo:
            read()
        assert repr(bad) in str(excinfo.value)


def test_class_function_scalars_are_rational():
    chi = trivial_character(make_cyclic(3))
    z = CycloNum.zeta(3)
    for product in (lambda: chi * z, lambda: z * chi):
        with pytest.raises(InputError) as excinfo:
            product()
        assert str(excinfo.value) == f"class function scalars must be int or Fraction, got {z!r}"


def test_pair_sum_and_multiples_build_no_values_view():
    g = make_cyclic(6)
    rd = ram_data(g, 2, [(0, 3)] * 3, (1, 1))  # a fresh copy of the catalog's mixed C6
    ba, art = bisection(rd), artin_character(rd)
    chi = module_character(permutation_module(subgroup(g, (0, 2, 4)), 2))
    pair(ba, ba), pair(ba, art), pair(chi, ba)
    built = [ba + art, ba + ba, art + chi, ba * Fraction(1, 2), 3 * ba, chi * -1]
    for f in (ba, art, chi, *built):
        assert f._values is None


@pytest.mark.parametrize("rd", catalog(), ids=[rd.name for rd in catalog()])
def test_induce_matches_cyclonum_oracle(rd):
    rng = random.Random(rd.name)
    g = rd.group
    for elems in g.subgroups():
        h = subgroup(g, elems)
        hgrp = h.as_group()[0]
        for level in (1, 8):
            f = _class_function(hgrp, level, lambda: rng.choice(SAMPLE_RATIONALS))
            got = induce(f, h)
            want = induce_sum(f, h)
            assert got.level == want.level == level, (rd.name, elems)
            assert [v.coeffs for v in got.values] == [v.coeffs for v in want.values]


def test_rational_pairing_and_induction_make_no_field_multiplication(monkeypatch):
    g = make_cyclic(64)
    rd = ram_data(g, 3, [], (1, 1))
    ba = bisection(rd)
    assert ba.level == 64
    thirds = ClassFunction(g, [Fraction(s % 5 - 2, 3) for s in range(64)])
    chis = [regular_character(g), trivial_character(g), thirds]
    h = subgroup(g, range(0, 64, 4))
    f = restrict(ba, h)
    want_pairs = [pair_rational(ba, chi) for chi in chis]
    want_induced = induce_sum(f, h)
    calls = []
    real = CycloNum.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    monkeypatch.setattr(CycloNum, "__rmul__", counted)
    assert [pair(ba, chi).coeffs for chi in chis] == [w.coeffs for w in want_pairs]
    assert induce(f, h) == want_induced
    assert calls == []


def test_conjugate_rational_fixed():
    g = make_cyclic(2)
    f = ClassFunction(g, (1, -1))
    assert conjugate(f) == f


def test_conjugate_involution_on_bisection():
    rd = tame_c3()
    ba = bisection(rd)
    assert conjugate(conjugate(ba)) == ba
    z = CycloNum.zeta(3)
    assert conjugate(ba).values[1] * (z * z - 1) == 1


def test_induce_from_trivial_subgroup_is_regular():
    g = make_cyclic(4)
    h = subgroup(g, (0,))
    hgrp, _, _ = h.as_group()
    ind = induce(trivial_character(hgrp), h)
    assert ind == regular_character(g)


def test_induce_from_full_group_is_identity():
    g = make_cyclic(4)
    h = subgroup(g, range(4))
    hgrp, _, _ = h.as_group()
    f = ClassFunction(hgrp, (1, CycloNum.zeta(4), -1, -CycloNum.zeta(4)))
    ind = induce(f, h)
    assert [ind.values[s] for s in range(4)] == list(f.values)


def test_induce_sign_from_index_two():
    g = make_cyclic(4)
    h = subgroup(g, (0, 2))
    hgrp, _, _ = h.as_group()
    sign = ClassFunction(hgrp, (1, -1))
    ind = induce(sign, h)
    assert [v.rational_part()[1] for v in ind.values] == [2, 0, -2, 0]


def test_restrict_basics():
    g = make_cyclic(4)
    h = subgroup(g, (0, 2))
    reg = regular_character(g)
    res = restrict(reg, h)
    assert [v.rational_part()[1] for v in res.values] == [4, 0]
    one = trivial_character(g)
    assert restrict(one, h) == trivial_character(h.as_group()[0])


def test_frobenius_reciprocity_randomized():
    rng = random.Random(23)
    groups = [make_cyclic(6), make_symmetric(3), make_cyclic(12)]
    for g in groups:
        for elems in g.subgroups():
            h = subgroup(g, elems)
            hgrp, _, _ = h.as_group()

            def random_cf(grp):
                vals = [None] * grp.order
                for cls in conjugacy_classes(grp):
                    v = CycloNum.from_rational(
                        Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    ) + CycloNum.zeta(3) * rng.randint(-2, 2)
                    for s in cls:
                        vals[s] = v
                return ClassFunction(grp, vals)

            f = random_cf(hgrp)
            chi = random_cf(g)
            assert pair(induce(f, h), chi) == pair(f, restrict(chi, h))


# the character of a representation: the public CharModule constructor
# validates it, module_character reads it
def test_char_of_rep_regular_c2():
    g = make_cyclic(2)
    rep = {
        0: ((1, 0), (0, 1)),
        1: ((0, 1), (1, 0)),
    }
    m = CharModule("rep", g, 2, rep)
    assert m.rank == 2
    chi = module_character(m)
    assert [v.rational_part()[1] for v in chi.values] == [2, 0]
    assert chi.verified


def test_char_of_rep_cyclotomic_onedim():
    # actions are rational: a cyclotomic entry is refused with one InputError
    g = make_cyclic(3)
    z = CycloNum.zeta(3)
    rep = {0: ((CycloNum.from_rational(1),),), 1: ((z,),), 2: ((z * z,),)}
    with pytest.raises(InputError, match="matrix entries must be int or Fraction, got CycloNum"):
        CharModule("rep", g, 2, rep)


def test_char_of_rep_rational_faithful_c3():
    g = make_cyclic(3)
    m = ((0, -1), (1, -1))
    m2 = ((-1, 1), (-1, 0))
    rep = {0: ((1, 0), (0, 1)), 1: m, 2: m2}
    module = CharModule("rep", g, 2, rep)
    assert module.rank == 2
    chi = module_character(module)
    assert [v.rational_part()[1] for v in chi.values] == [2, -1, -1]


def test_char_of_rep_rejects_non_homomorphism():
    g = make_cyclic(3)
    rep = {0: ((1,),), 1: ((2,),), 2: ((3,),)}
    with pytest.raises(InputError):
        CharModule("rep", g, 2, rep)


def test_char_of_rep_block_sum_addition():
    g = make_cyclic(2)
    a = {0: ((1,),), 1: ((-1,),)}
    b = {0: ((1,),), 1: ((1,),)}
    summed = {
        0: ((1, 0), (0, 1)),
        1: ((-1, 0), (0, 1)),
    }
    modules = [CharModule("rep", g, 2, rep) for rep in (a, b, summed)]
    assert [m.rank for m in modules] == [1, 1, 2]
    chi_a, chi_b, chi_sum = (module_character(m) for m in modules)
    assert chi_sum == chi_a + chi_b


def dense_check_action(group, action):
    """Oracle for the CharModule constructor on a well-shaped p-integral action:
    dense products on every Cayley edge.

    Returns None when the action is a rational homomorphism, else the
    message the constructor must raise.
    """
    if action[0] != identity_matrix(len(action[0])):
        return "identity must act by the identity matrix"
    for m in action.values():
        for x in (x for row in m for x in row if x):
            if not isinstance(x, (int, Fraction)):
                return f"matrix entries must be int or Fraction, got {x!r}"
    for g in range(group.order):
        for s in group.generating_set():
            if mat_mul(action[g], action[s]) != action[group.mult(g, s)]:
                return f"action is not a homomorphism at ({g}, {s})"
    return None


def _perturbed(rng, action, delta):
    g = rng.randrange(len(action))
    d = len(action[g])
    i, j = rng.randrange(d), rng.randrange(d)
    rows = [list(row) for row in action[g]]
    rows[i][j] = rows[i][j] + delta
    return {**action, g: tuple(tuple(row) for row in rows)}


def _catalog_actions(rd):
    """Homomorphisms on a catalog group, and the same with one entry perturbed."""
    rng = random.Random(rd.name)
    grp, p = rd.group, rd.p
    modules = [regular_module(grp, p), random_module(rng, grp, p)]
    modules.append(random_unit_conjugate(rng, modules[-1]))
    good = [m.action for m in modules]
    # the regular action conjugated by diag(q, 1, ..., 1): entries q and 1/q,
    # whose denominators are prime to p
    q = next(q for q in (3, 5, 7) if q != p)
    u = tuple(tuple(q if i == j == 0 else int(i == j) for j in range(grp.order)) for i in range(grp.order))
    uinv = mat_inv(u)
    good.append({g: mat_mul(uinv, mat_mul(m, u)) for g, m in good[0].items()})
    dens = {x.denominator for m in good[-1].values() for row in m for x in row}
    assert dens != {1} and all(den % p for den in dens)
    bad = [_perturbed(rng, a, delta) for delta in (1, Fraction(1, q)) for a in good]
    return grp, p, good, bad


def _cyclotomic_actions():
    """Actions are rational: the cyclotomic C3 character and its perturbations are all refused."""
    g = make_cyclic(3)
    z = CycloNum.zeta(3)
    rep = {0: ((CycloNum.from_rational(1),),), 1: ((z,),), 2: ((z * z,),)}
    bad = [{**rep, 2: ((z,),)}, {**rep, 1: ((z * z,),)}, {**rep, 1: ((z * Fraction(1, 2),),)}]
    return g, 2, [], [rep, *bad]


@pytest.mark.parametrize(
    "actions",
    [*(functools.partial(_catalog_actions, rd) for rd in catalog()), _cyclotomic_actions],
    ids=[*(rd.name for rd in catalog()), "cyclotomic-C3"],
)
def test_check_action_matches_dense_oracle(actions):
    grp, p, good, bad = actions()
    for action in good:
        assert dense_check_action(grp, action) is None
        CharModule("action", grp, p, action)
    for action in bad:
        expected = dense_check_action(grp, action)
        assert expected is not None
        with pytest.raises(InputError) as excinfo:
            CharModule("action", grp, p, action)
        assert str(excinfo.value) == expected


def test_artin_conductor_examples():
    rd = tame_c3()
    z = CycloNum.zeta(3)
    faithful = ClassFunction(rd.group, (1, z, z * z), verified=True)
    assert artin_conductor(rd, faithful) == 1
    assert artin_conductor(rd, trivial_character(rd.group)) == 0
    rd2 = wild_c2()
    sign = ClassFunction(rd2.group, (1, -1), verified=True)
    assert artin_conductor(rd2, sign) == 2


def test_artin_conductor_integrality_enforced():
    rd = wild_c2()
    third = ClassFunction(rd.group, (Fraction(1, 3), 0), verified=True)
    with pytest.raises(CheckFailure):
        artin_conductor(rd, third)  # pairing gives 1/3, not a natural number
    negative = ClassFunction(rd.group, (0, 1), verified=True)
    with pytest.raises(CheckFailure):
        artin_conductor(rd, negative)  # pairing gives -1


def test_bisection_pairing_bisects_artin_conductor():
    from ramcond.catalog import random_module
    from ramcond.conductors import module_character

    rng = random.Random(41)
    for rd in catalog():
        ba = bisection(rd)
        chis = [
            regular_character(rd.group),
            trivial_character(rd.group),
            module_character(random_module(rng, rd.group, rd.p)),
        ]
        for chi in chis:
            total = pair(ba, chi) + pair(conjugate(ba), chi)
            assert total == artin_conductor(rd, chi), rd.name


def test_class_function_rejects_nonconstant_values():
    g = make_symmetric(3)
    vals = [0] * 6
    vals[1] = 1  # a 3-cycle gets a different value from its conjugate
    with pytest.raises(InputError):
        ClassFunction(g, vals)


def _same_values(got, want):
    return (got.group, got.level, got.verified, [v.coeffs for v in got.values]) == (
        want.group,
        want.level,
        want.verified,
        [v.coeffs for v in want.values],
    )


def _diagonal_conjugate(m, q):
    """``m`` conjugated by diag(q, 1, ..., 1): entries q and 1/q off the diagonal, the same traces."""

    def diagonal(first):
        d = m.rank
        rows = [[first if i == j == 0 else int(i == j) for j in range(d)] for i in range(d)]
        return read_matrix(rows)[0]

    u, uinv = diagonal(q), diagonal(Fraction(1, q))
    forms = {g: sparse_mul(uinv, sparse_mul(m.forms[g], u)) for g in range(m.group.order)}
    return CharModule._from_forms(f"{m.name}~q", m.group, m.p, forms)


def _catalog_modules(rng, group, p):
    """Permutation modules on every subgroup, a unit conjugate of each, and a
    conjugate of the regular module whose forms have a denominator prime to p."""
    perms = [permutation_module(subgroup(group, elems), p) for elems in group.subgroups()]
    scaled = _diagonal_conjugate(regular_module(group, p), next(q for q in (2, 3, 5) if q != p))
    assert group.order == 1 or {form[0] for form in scaled.forms.values()} != {1}
    return perms + [random_unit_conjugate(rng, m) for m in perms] + [scaled]


def _restrict_values(f, h):
    """``restrict(f, h)`` read valuewise, through the public constructor."""
    hgrp, _, from_sub = h.as_group()
    return ClassFunction(hgrp, [f.values[x] for x in from_sub])


@pytest.mark.parametrize("rd", catalog(), ids=[rd.name for rd in catalog()])
def test_built_class_functions_match_cyclonum_oracles(rd):
    """The integer-form builders give the values, pairings and inductions of the CycloNum path."""
    rng = random.Random(rd.name)
    g = rd.group
    subs = [subgroup(g, elems) for elems in g.subgroups()]
    for rd_x in [rd] + [restrict_ramdata(rd, h) for h in subs]:
        grp = rd_x.group
        ba, want_ba = bisection(rd_x), dense.bisection(rd_x)
        art, want_art = artin_character(rd_x), dense.artin_character(rd_x)
        assert _same_values(ba, want_ba) and ba.level == rd_x.n, rd_x.name
        assert _same_values(art, want_art), rd_x.name
        chis = []
        for m in _catalog_modules(rng, grp, rd_x.p):
            chi, want_chi = module_character(m), dense.trace_forms(grp, m.forms)
            assert _same_values(chi, want_chi), (rd_x.name, m)
            for f, want_f in ((ba, want_ba), (art, want_art)):
                assert pair(f, chi).coeffs == pair_rational(want_f, want_chi).coeffs
            chis.append((chi, want_chi))
        for h in (subgroup(grp, elems) for elems in grp.subgroups()):
            for f, want_f in [(ba, want_ba), (art, want_art)] + chis:
                got = induce(restrict(f, h), h)
                assert _same_values(got, induce_sum(_restrict_values(want_f, h), h)), (
                    rd_x.name,
                    h.elements,
                )


def test_pair_with_a_verified_rational_side_matches_the_value_oracle():
    # a verified level-1 side is read per rational class, on the sums held on the other side
    rng = random.Random(3131)
    rds = list(catalog()) + [random_ram_data(rng) for _ in range(200)]
    for rd in rds:
        grp, p = rd.group, rd.p
        modules = [random_module(rng, grp, p)]
        modules += [permutation_module(subgroup(grp, elems), p) for elems in grp.subgroups()[:6]]
        chis = [trivial_character(grp), regular_character(grp)] + [module_character(m) for m in modules]
        for f in (bisection(rd), artin_character(rd)):
            for chi in chis:
                want = dense.pair_by_values(f, chi)
                assert want.level == lcm(f.level, chi.level)
                for got in (pair(f, chi), pair(chi, f)):
                    assert (got.level, got.coeffs) == (want.level, want.coeffs), rd.name
            assert f._class_sums is not None


def test_verified_rational_values_must_be_constant_on_rational_classes():
    g = make_cyclic(3)
    with pytest.raises(InputError) as excinfo:
        ClassFunction(g, (0, 1, 2), verified=True)
    assert str(excinfo.value) == "verified values not constant on the rational class of 1"
    f = ClassFunction(g, (0, 1, 2))
    ba = bisection(tame_c3())
    want = dense.pair_by_values(ba, f)
    for got in (pair(ba, f), pair(f, ba)):
        assert (got.level, got.coeffs) == (want.level, want.coeffs)
    assert ba._class_sums is None and f._class_sums is None


def test_from_form_refuses_a_form_not_constant_on_a_class():
    g = make_symmetric(3)
    transpositions = [x for x in range(6) if g.element_order(x) == 2]
    rows = [(0,)] * 6
    rows[transpositions[-1]] = (1,)
    with pytest.raises(InputError) as public:
        ClassFunction(g, [row[0] for row in rows])
    with pytest.raises(InputError) as private:
        ClassFunction._from_form(g, 1, (1, tuple(rows)))
    want = f"values not constant on the conjugacy class of {transpositions[0]}"
    assert str(private.value) == str(public.value) == want


def test_conductors_build_no_values_view():
    # the pairings read integer forms only; a values view here means a CycloNum round trip
    g = make_cyclic(6)
    rd = ram_data(g, 2, [(0, 3)] * 3, (1, 1))  # a fresh copy of the catalog's mixed C6
    m = permutation_module(subgroup(g, (0, 2, 4)), 2)
    conductor(m, rd)
    artin_conductor(rd, module_character(m))
    for f in (bisection(rd), artin_character(rd), module_character(m)):
        assert f._values is None


def _views_equal(f, g):
    """Class function equality read valuewise on the ``CycloNum`` views."""
    return f.group == g.group and all(a == b for a, b in zip(f.values, g.values))


def _at_level(f, level):
    """``f`` with its values embedded at ``level``, through the public constructor."""
    return ClassFunction(f.group, [v.embed(level) for v in f.values])


def test_class_function_equality_matches_the_view_comparison():
    rng = random.Random(16)
    cross_level_equal = 0
    for rd in catalog():
        g = rd.group
        ba, art = bisection(rd), artin_character(rd)
        fs = [ba, conjugate(ba), art, ba + conjugate(ba), trivial_character(g)]
        fs += [module_character(random_module(rng, g, rd.p)), regular_character(g)]
        fs += [_at_level(f, f.level * k) for f in fs[:3] for k in (2, 3)]
        for f in fs:
            for h in fs:
                assert (f == h) == _views_equal(f, h), (rd.name, f, h)
                cross_level_equal += f.level != h.level and f == h
    # bA + conj(bA) at level n equals the Artin character at level 1
    assert cross_level_equal > 2 * len(catalog())
    c2, c3 = trivial_character(make_cyclic(2)), trivial_character(make_cyclic(3))
    assert c2 != c3 and not _views_equal(c2, c3)


def test_character_equality_builds_no_values_view(monkeypatch):
    g, p = make_cyclic(6), 5
    m = regular_module(g, p)
    sub = subgroup(g, (0, 2, 4))
    m_sub = regular_module(sub.as_group()[0], p)
    reads = []
    real = ClassFunction.values
    counted = property(lambda f: reads.append(f) or real.fget(f))
    monkeypatch.setattr(ClassFunction, "values", counted)
    assert is_isogenous(m, m)
    induced = weil_restriction(m_sub, sub)
    # the averaging idempotent, with 6 a 5-adic unit
    plus, minus = split_idempotent(m, [[Fraction(1, 6)] * 6] * 6)
    assert reads == []
    for module in (m, m_sub, induced, plus, minus):
        assert module_character(module)._values is None


def _character_modules(rng, group, p):
    """The modules of :func:`_catalog_modules`, with regular, diagonal-conjugate permutation,
    induced and split-summand modules."""
    subs = [subgroup(group, elems) for elems in group.subgroups()]
    modules = [regular_module(group, p), *_catalog_modules(rng, group, p)]
    # denominators prime to p on elements with fixed points, so traces over them
    q = next(q for q in (2, 3, 5) if q != p)
    modules += [_diagonal_conjugate(permutation_module(h, p), q) for h in subs if h.order < group.order]
    for h in subs:
        hgrp = h.as_group()[0]
        modules.append(weil_restriction(random_unit_conjugate(rng, random_module(rng, hgrp, p)), h))
    for k in (h for h in subs if h.order % p and h.is_normal()):
        m = random_unit_conjugate(rng, random_module(rng, group, p))
        modules.extend(split_idempotent(m, dense.averaging_idempotent(m, k.elements)))
    return modules


CHARACTER_GROUPS = {
    **{rd.name: (rd.group, rd.p) for rd in catalog()},
    "S4-p5": (make_symmetric(4), 5),
    "C8-p3": (make_cyclic(8), 3),
    "C12-p5": (make_cyclic(12), 5),
}


@pytest.mark.parametrize("name", CHARACTER_GROUPS)
def test_module_character_equals_the_per_element_trace(name):
    group, p = CHARACTER_GROUPS[name]
    rng = random.Random(name)
    modules = _character_modules(rng, group, p)
    for m in modules:
        assert _same_values(module_character(m), dense.trace_forms(group, m.forms)), (name, m)
    assert any(m.rank > 1 for m in modules)


def _valued(rng, grp, level, kind):
    """A class function at ``level`` whose coefficient columns take distinct, repeated or zero values.

    ``distinct`` gives each class its own value in every column, ``repeated``
    two values, and ``zero`` an all-zero even column and mostly zero odd ones.
    """
    classes = conjugacy_classes(grp)

    def value(i, j):
        if kind == "distinct":
            return Fraction((i + 1) * (-1) ** i, j + 1)
        if kind == "repeated":
            return rng.choice((-2, Fraction(3, 2)))
        return 0 if j % 2 == 0 else rng.choice((0, 0, 0, 5))

    vals = [None] * grp.order
    for i, cls in enumerate(classes):
        v = CycloNum(level, [value(i, j) for j in range(euler_phi(level))])
        for s in cls:
            vals[s] = v
    return ClassFunction(grp, vals)


@pytest.mark.parametrize("kind", ["distinct", "repeated", "zero"])
@pytest.mark.parametrize("levels", LEVEL_PAIRS, ids=[f"{a}-{b}" for a, b in LEVEL_PAIRS])
def test_pair_per_value_sums_match_the_value_oracle(levels, kind):
    rng = random.Random(f"{levels}{kind}")
    for grp in CATALOG_GROUPS + (make_symmetric(4), make_cyclic(12)):
        f = _class_function(grp, levels[0], lambda: rng.choice(SAMPLE_RATIONALS))
        g = _valued(rng, grp, levels[1], kind)
        for a, b in ((f, g), (g, f), (g, g)):
            got, want = pair(a, b), dense.pair_by_values(a, b)
            assert (got.level, got.coeffs) == (want.level, want.coeffs), (grp.name, levels, kind)
