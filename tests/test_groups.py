import random

import dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcond.catalog import catalog
from ramcond.conductors import regular_module
from ramcond.errors import InputError
from ramcond.groups import (
    FiniteGroup,
    Subgroup,
    _held_subgroup,
    conjugacy_classes,
    make_cyclic,
    make_product,
    make_symmetric,
    rational_classes,
    subgroup,
)


def test_cyclic_structure():
    g = make_cyclic(4)
    assert g.order == 4
    assert g.element_order(1) == 4
    assert g.mult(3, 2) == 1
    assert g.inv(1) == 3


def test_klein_four_orders():
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    assert v4.order == 4
    assert all(v4.element_order(x) == 2 for x in range(1, 4))


def test_symmetric_group_is_nonabelian():
    s3 = make_symmetric(3)
    assert s3.order == 6
    assert any(s3.mult(a, b) != s3.mult(b, a) for a in range(6) for b in range(6))
    assert sorted(s3.element_order(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]


def test_bad_tables_rejected():
    with pytest.raises(InputError):
        FiniteGroup([[0, 1], [1, 1]])  # not a permutation row
    with pytest.raises(InputError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not the identity


# a loop: identity and two-sided inverses, but (1 * 1) * 2 = 2 and 1 * (1 * 2) = 3
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 4, 2, 3], [2, 3, 0, 4, 1], [3, 4, 1, 0, 2], [4, 2, 3, 1, 0]]


def test_non_associative_loop_refused():
    assert dense.table_refusal(LOOP5) == "associativity fails at (1, 1, 2)"
    with pytest.raises(InputError, match=r"^associativity fails at \(1, 1, 2\)$"):
        FiniteGroup(LOOP5)


def _random_tables(rng, count):
    """Tables of order <= 6 with identity 0: uniform ones, and relabeled groups, half with one entry changed."""
    groups = [make_cyclic(n) for n in range(2, 7)] + [
        make_symmetric(3),
        make_product(make_cyclic(2), make_cyclic(2)),
        make_product(make_cyclic(2), make_cyclic(3)),
    ]
    for k in range(count):
        if k % 2:
            n = rng.randint(1, 6)
            table = [[a if b == 0 else b if a == 0 else rng.randrange(n) for b in range(n)] for a in range(n)]
        else:
            g = rng.choice(groups)
            n = g.order
            label = [0] + rng.sample(range(1, n), n - 1)
            back = {x: i for i, x in enumerate(label)}
            table = [[label[g.mult(back[a], back[b])] for b in range(n)] for a in range(n)]
            if n > 2 and k % 4:
                table[rng.randrange(1, n)][rng.randrange(1, n)] = rng.randrange(n)
        yield table


def test_light_test_accepts_exactly_the_groups():
    # Light's test checks the triples with b a generator only; it must accept
    # exactly the tables the full cube accepts.  Among the associativity
    # failures, the triple it names is a failing one, not always the least.
    accepted = refused = 0
    for table in _random_tables(random.Random(18), 3000):
        expected = dense.table_refusal(table)
        try:
            g = FiniteGroup(table)
        except InputError as exc:
            refused += 1
            message = str(exc)
            assert expected is not None, table
            if expected.startswith("associativity fails at"):
                assert message.startswith("associativity fails at ("), table
                a, b, c = map(int, message.removeprefix("associativity fails at (").rstrip(")").split(", "))
                assert table[table[a][b]][c] != table[a][table[b][c]], (table, message)
            else:
                assert message == expected, table
        else:
            accepted += 1
            assert expected is None, table
            assert g.table == tuple(map(tuple, table))
    assert accepted > 100 and refused > 100


def test_conjugacy_classes():
    assert conjugacy_classes(make_cyclic(4)) == ((0,), (1,), (2,), (3,))
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    assert conjugacy_classes(v4) == ((0,), (1,), (2,), (3,))
    s3 = make_symmetric(3)
    sizes = sorted(len(c) for c in conjugacy_classes(s3))
    assert sizes == [1, 2, 3]


def test_classes_partition_group():
    for g in (make_cyclic(6), make_symmetric(3)):
        classes = conjugacy_classes(g)
        flat = sorted(x for c in classes for x in c)
        assert flat == list(range(g.order))
        assert classes[0] == (0,)


def test_normal_subgroups_are_class_unions():
    s3 = make_symmetric(3)
    classes = conjugacy_classes(s3)
    normal = set()
    for elems in s3.subgroups():
        h = subgroup(s3, elems)
        if h.is_normal():
            normal.add(elems)
            covered = set()
            for c in classes:
                if c[0] in h.elements:
                    covered |= set(c)
            assert covered == set(h.elements)
    # the trivial group, A3 and S3; no (0, t) with t a transposition
    a3 = tuple(x for x in range(6) if s3.element_order(x) in (1, 3))
    assert normal == {(0,), a3, tuple(range(6))}


def test_subgroup_enumeration_counts():
    assert len(make_cyclic(12).subgroups()) == 6  # divisors of 12
    assert len(make_symmetric(3).subgroups()) == 6  # 1, A3, three C2s, S3
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    assert len(v4.subgroups()) == 5
    assert (0, 1) not in make_cyclic(4).subgroups()
    with pytest.raises(InputError):
        subgroup(make_cyclic(4), (0, 1))


@pytest.mark.parametrize(
    "group",
    [
        make_symmetric(3),
        make_cyclic(12),
        make_product(make_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2)),
    ],
    ids=["S3", "C12", "C2xC2xC2"],
)
def test_left_transversal_is_least_coset_member(group):
    for elems in group.subgroups():
        transversal, coset_of = subgroup(group, elems).left_transversal()
        least = [min(group.mult(x, s) for s in elems) for x in range(group.order)]
        assert transversal == tuple(sorted(set(least)))
        assert all(transversal[coset_of[x]] == least[x] for x in range(group.order))


def test_as_group_reindexes():
    g = make_cyclic(6)
    h = subgroup(g, (0, 2, 4))
    hgrp, to_sub, from_sub = h.as_group()
    assert hgrp.order == 3
    assert from_sub == (0, 2, 4)
    assert hgrp.mult(to_sub[2], to_sub[4]) == to_sub[0]


def test_as_group_equals_the_validated_group():
    # as_group trusts the parent's checks; the full validation must agree with it
    for group in {rd.group.name: rd.group for rd in catalog()}.values():
        for elems in group.subgroups():
            hgrp, _, _ = subgroup(group, elems).as_group()
            checked = FiniteGroup(hgrp.table, name=hgrp.name)
            assert hgrp == checked and hgrp.order == checked.order
            assert hgrp._inv == checked._inv, (group.name, elems)


def test_make_product_equals_the_validated_group():
    # make_product trusts its factors; the full validation must agree with it
    groups = {rd.group.name: rd.group for rd in catalog()}.values()
    for g in groups:
        for h in groups:
            prod = make_product(g, h)
            checked = FiniteGroup(prod.table, name=prod.name)
            assert prod == checked and prod.order == g.order * h.order
            assert prod._inv == checked._inv, prod.name


@given(st.integers(1, 10), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_product_group_law_valid(n, m):
    # the full validation accepts the product table and finds the same inverses
    g = make_product(make_cyclic(n), make_cyclic(m))
    assert g.order == n * m
    checked = FiniteGroup(g.table)
    assert g == checked and g._inv == checked._inv


def test_generating_set_is_held_on_the_group(monkeypatch):
    for rd in catalog():
        g = FiniteGroup(rd.group.table)
        gens = g.generating_set()
        monkeypatch.setattr(g, "closure", None)  # a second greedy pass would call it
        assert g.generating_set() is gens
        # candidates that contain the held set give it back without a pass
        assert g.generating_set((0, *gens)) is gens
        assert g.generating_set(range(g.order - 1, 0, -1)) is gens
        monkeypatch.undo()
        # other candidates neither read nor replace the memo
        assert g.generating_set((0,)) == ()
        assert g.generating_set() is gens


def test_element_orders_are_held_and_equal_the_power_loop():
    for name, group in GENERATING_GROUPS.items():
        orders = group._element_orders()
        assert group._element_orders() is orders
        assert orders == tuple(dense.element_order(group, x) for x in range(group.order)), name
        assert all(group.element_order(x) == orders[x] for x in range(group.order))


def _oracle_groups():
    c2, s3 = make_cyclic(2), make_symmetric(3)
    extra = {
        "S3": s3,
        "S4": make_symmetric(4),
        "S3xC2": make_product(s3, c2),
        "C2^4": make_product(make_product(c2, c2), make_product(c2, c2)),
        "C4xC4": make_product(make_cyclic(4), make_cyclic(4)),
        "C12xC5": make_product(make_cyclic(12), make_cyclic(5)),
        "C60": make_cyclic(60),
        "C64": make_cyclic(64),
    }
    return {**{f"catalog:{rd.group.name}": rd.group for rd in catalog()}, **extra}


ORACLE_GROUPS = _oracle_groups()


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_subgroups_and_generators_equal_the_closure_oracles(name):
    group = ORACLE_GROUPS[name]
    assert group.subgroups() == dense.subgroups(group)
    assert group.generating_set() == dense.generating_set(group)
    for x in range(group.order):
        assert group.closure((x,)) == dense.closure(group, (x,))
    for elems in group.subgroups():
        gens = group.generating_set(elems)
        assert gens == dense.generating_set(group, elems)
        assert group.closure(gens) == dense.closure(group, gens) == elems


def _generating_groups():
    c = make_cyclic
    c2 = c(2)
    powers = {"C2^1": c2}
    for k in range(2, 6):
        powers[f"C2^{k}"] = make_product(powers[f"C2^{k - 1}"], c2)
    extra = {
        "S3": make_symmetric(3),
        "S4": make_symmetric(4),
        "S5": make_symmetric(5),
        **powers,
        "C3xC8": make_product(c(3), c(8)),
        "C12xC5": make_product(c(12), c(5)),
        "C2xC3xC3": make_product(make_product(c2, c(3)), c(3)),
        "C3xV4": make_product(c(3), make_product(c2, c2)),
    }
    return {**{f"catalog:{rd.group.name}": rd.group for rd in catalog()}, **extra}


GENERATING_GROUPS = _generating_groups()


@pytest.mark.parametrize("name", GENERATING_GROUPS)
def test_generating_set_starts_from_the_largest_cyclic_subgroups(name):
    group = GENERATING_GROUPS[name]
    gens = group.generating_set()
    assert gens == dense.generating_set(group)
    assert dense.closure(group, gens) == tuple(range(group.order))
    for i, s in enumerate(gens):
        assert s not in dense.closure(group, gens[:i]), (name, gens)
    assert len(gens) <= len(dense.ascending_generating_set(group))
    if any(dense.element_order(group, x) == group.order for x in range(group.order)):
        assert len(gens) == 1, (name, gens)


def test_generating_set_examples():
    # the ascending greedy set was (1, 8), (1, 5), (1, 3, 9), (1, 2, 4) and (1, 2, 6, 24)
    expected = {"C3xC8": (9,), "C12xC5": (6,), "C2xC3xC3": (10, 12), "C3xV4": (5, 6), "S5": (27, 31)}
    for name, gens in expected.items():
        assert GENERATING_GROUPS[name].generating_set() == gens, name


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_conjugacy_classes_equal_the_conjugation_loop(name):
    group = ORACLE_GROUPS[name]
    assert conjugacy_classes(group) == dense.conjugacy_classes(group)


@pytest.mark.parametrize("name", ["S4", "S3xC2"])
def test_is_normal_equals_the_conjugation_loop(name):
    group = ORACLE_GROUPS[name]
    normal = [elems for elems in group.subgroups() if subgroup(group, elems).is_normal()]
    assert normal == [elems for elems in group.subgroups() if dense.is_normal(subgroup(group, elems))]
    assert 2 < len(normal) < len(group.subgroups())


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1.9], [1, 0.2]], "Cayley table entry (0, 1) is not an integer id: 1.9"),
        ([[0, 1], [True, 0]], "Cayley table entry (1, 0) is not an integer id: True"),
        ([[0, "1"], [1, 0]], "Cayley table entry (0, 1) is not an integer id: '1'"),
    ],
)
def test_table_entries_must_be_ints(table, message):
    with pytest.raises(InputError) as exc:
        FiniteGroup(table)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
def test_subgroup_elements_must_be_ints(bad):
    with pytest.raises(InputError) as exc:
        subgroup(make_cyclic(4), [0, bad])
    assert str(exc.value) == f"subgroup element {bad!r} is not an integer id"


def test_subgroup_is_held_per_element_set():
    g = make_cyclic(6)
    h = subgroup(g, (4, 0, 2, 2))
    assert subgroup(g, (0, 2, 4)) is h and h.elements == (0, 2, 4)
    assert _held_subgroup(g, (0, 2, 4)) is h
    # each group holds its own, and the constructor builds a fresh one
    other = make_cyclic(6)
    assert subgroup(other, (0, 2, 4)) is not h and subgroup(other, (0, 2, 4)) == h
    assert Subgroup(g, (0, 2, 4)) is not h and Subgroup(g, (0, 2, 4)) == h


def test_refused_element_set_is_not_held():
    g = make_cyclic(6)
    messages = []
    for _ in range(2):
        with pytest.raises(InputError) as exc:
            subgroup(g, (1, 0))
        messages.append(str(exc.value))
    assert messages == ["subgroup not closed under inverse at 1"] * 2
    assert (0, 1) not in g._held_subgroups


HELD_GROUPS = {
    **{f"catalog:{rd.group.name}": rd.group for rd in catalog()},
    "C2^5": GENERATING_GROUPS["C2^5"],
}


@pytest.mark.parametrize("name", HELD_GROUPS)
def test_held_subgroup_data_equals_a_fresh_subgroup(name):
    group = HELD_GROUPS[name]
    for elems in group.subgroups():
        held, fresh = subgroup(group, elems), Subgroup(group, elems)
        assert subgroup(group, elems) is held
        hgrp, to_sub, from_sub = held.as_group()
        fgrp, f_to_sub, f_from_sub = fresh.as_group()
        assert held.as_group()[0] is hgrp
        assert (hgrp.table, hgrp._inv, hgrp.name) == (fgrp.table, fgrp._inv, fgrp.name)
        assert (to_sub, from_sub) == (f_to_sub, f_from_sub)
        assert held.left_transversal() == fresh.left_transversal()
        assert held.is_normal() == fresh.is_normal() == dense.is_normal(fresh), (name, elems)
        gens = held.generating_set()
        assert held.generating_set() is gens
        assert gens == fresh.generating_set() == group.generating_set(elems)


def test_held_subgroup_id_map_is_read_only():
    g = make_cyclic(6)
    to_sub = subgroup(g, (0, 2, 4)).as_group()[1]
    with pytest.raises(TypeError):
        to_sub[2] = 99
    assert subgroup(g, (4, 2, 0)).as_group()[1] == {0: 0, 2: 1, 4: 2}


def test_regular_module_uses_the_held_trivial_subgroup():
    g = make_product(make_cyclic(2), make_cyclic(3))
    regular_module(g, 2)
    held = g._held_subgroups
    assert list(held) == [(0,)]
    # its left transversal was read, and is held for the next module
    assert held[(0,)]._transversal is not None and subgroup(g, (0,)) is held[(0,)]


def test_make_cyclic_equals_the_validated_group():
    for n in range(1, 65):
        g = make_cyclic(n)
        checked = FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), name=f"C{n}")
        assert (g.table, g.name) == (checked.table, checked.name)
        assert [g.inv(a) for a in range(n)] == [checked.inv(a) for a in range(n)], n
        assert g.generating_set() == checked.generating_set(), n


def _rational_groups():
    c2 = make_cyclic(2)
    powers = [c2]
    for _ in range(4):
        powers.append(make_product(powers[-1], c2))
    extra = {f"S{n}": make_symmetric(n) for n in (3, 4, 5)}
    extra.update({f"C2^{k}": g for k, g in enumerate(powers, 1)})
    extra["C3xC8"] = make_product(make_cyclic(3), make_cyclic(8))
    extra["C12xC5"] = make_product(make_cyclic(12), make_cyclic(5))
    return {**{f"catalog:{rd.group.name}": rd.group for rd in catalog()}, **extra}


RATIONAL_GROUPS = _rational_groups()


@pytest.mark.parametrize("name", RATIONAL_GROUPS)
def test_rational_classes_equal_the_power_and_conjugation_oracle(name):
    group = RATIONAL_GROUPS[name]
    classes = rational_classes(group)
    assert classes == dense.rational_classes(group)
    assert rational_classes(group) is classes


def test_rational_classes_examples():
    assert rational_classes(make_cyclic(3)) == ((0,), (1, 2))
    assert rational_classes(make_cyclic(8)) == ((0,), (1, 3, 5, 7), (2, 6), (4,))
    s3 = make_symmetric(3)
    assert rational_classes(s3) == conjugacy_classes(s3)
    # C2^k: every element is its own rational class
    assert rational_classes(RATIONAL_GROUPS["C2^3"]) == tuple((x,) for x in range(8))
