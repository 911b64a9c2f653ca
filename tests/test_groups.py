import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcond.catalog import catalog
from ramcond.errors import InputError
from ramcond.groups import (
    FiniteGroup,
    conjugacy_classes,
    make_cyclic,
    make_from_table,
    make_product,
    make_symmetric,
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
        make_from_table([[0, 1], [1, 1]])  # not a permutation row
    with pytest.raises(InputError):
        make_from_table([[1, 0], [0, 1]])  # 0 not the identity


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
        least = [min(group.mult(x, s) for s in elems) for x in group.elements()]
        assert transversal == tuple(sorted(set(least)))
        assert all(transversal[coset_of[x]] == least[x] for x in group.elements())


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
        monkeypatch.undo()
        # given candidates neither read nor replace the memo
        assert g.generating_set(range(g.order - 1, 0, -1)) == gens
        assert g.generating_set((0,)) == ()
        assert g.generating_set() is gens
