"""Finite groups as validated Cayley tables.

Element ids are 0..order-1 with 0 the identity; every downstream structure
(filtrations, tame identifications, class functions, module actions) is keyed
by these ids.  Checks and enumerations work from generators: associativity
by Light's test, conjugacy classes as orbits under conjugation by the
generators, and subgroups as joins of cyclic subgroups.  What depends only
on the group is computed once and held on it: its generating set, element
orders, conjugacy and rational classes (:func:`rational_classes`),
subgroups, the discrete logarithm to each generator of a cyclic group that
is asked for, and one :class:`Subgroup` per element set that :func:`subgroup`
is asked for.  The table itself is dense, so memory grows with the square
of the order.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from types import MappingProxyType

from .errors import InputError
from .exact import _check_int

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "make_cyclic",
    "make_product",
    "make_symmetric",
    "conjugacy_classes",
    "rational_classes",
    "subgroup",
]


class FiniteGroup:
    def __init__(self, table, name="G"):
        """A group on ``table``, whose rows are the products ``a * b`` by id.

        Entries must be ``int`` ids (not ``bool``, ``float`` or ``str``).  The
        identity and inverses are checked over the whole table, and
        associativity by Light's test: ``(ab)c == a(bc)`` for every ``a`` and
        ``c`` and every ``b`` in :meth:`generating_set`, which proves it for
        every ``b`` (see :meth:`closure`).  That set starts from the largest
        cyclic subgroups, so the test takes |G| rows per generator of a
        small set: one on a cyclic group.
        """
        table = tuple([
            _read_tuple(row, f"Cayley table row {a}", "ids")
            for a, row in enumerate(_read_tuple(table, "Cayley table", "rows"))
        ])
        n = len(table)
        if n == 0:
            raise InputError("empty Cayley table")
        if set(map(type, chain.from_iterable(table))) != {int}:
            for a, row in enumerate(table):
                for b, x in enumerate(row):
                    if type(x) is not int:
                        raise InputError(f"Cayley table entry ({a}, {b}) is not an integer id: {x!r}")
        ids = tuple(range(n))
        for row in table:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise InputError("Cayley table is not square over element ids")
        if table[0] != ids or tuple([row[0] for row in table]) != ids:
            raise InputError("element 0 must be a two-sided identity")
        inverses = [None] * n
        for a, row in enumerate(table):
            b = -1
            for _ in range(row.count(0)):  # each b with ab = 0, ascending
                b = row.index(0, b + 1)
                if table[b][a] != 0:
                    raise InputError(f"one-sided inverse at element {a}")
                inverses[a] = b
        if None in inverses:
            raise InputError("missing inverses in Cayley table")
        self._set(table, name, tuple(inverses))
        gens = self.generating_set()
        for a, row in enumerate(table):
            for b in gens:
                lhs = table[row[b]]  # (ab)c for every c
                rhs = tuple(map(row.__getitem__, table[b]))  # a(bc) for every c
                if lhs != rhs:
                    c = next(c for c in ids if lhs[c] != rhs[c])
                    raise InputError(f"associativity fails at ({a}, {b}, {c})")

    @classmethod
    def _from_checked(cls, table, name, inverses):
        """A group on a table known to be a group, with its inverses; nothing is re-checked.

        :meth:`Subgroup.as_group` builds its re-indexed group this way: the
        subgroup is checked closed, and associativity holds in the parent.
        So do :func:`make_cyclic`, whose table is addition mod n, and
        :func:`make_product`, from two groups.
        """
        self = object.__new__(cls)
        self._set(table, name, inverses)
        return self

    def _set(self, table, name, inverses):
        self.order = len(table)
        self.table = table
        self.name = name
        self._inv = inverses
        self._classes = None
        self._rational = None
        self._subgroups = None
        self._gens = None
        self._orders = None
        self._logs = {}  # generator id -> its discrete-log table, see _power_log()
        self._held_subgroups = {}  # sorted element ids -> the one Subgroup subgroup() gives on them

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def mult(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, t, s):
        """t s t^{-1}"""
        return self.table[self.table[t][s]][self._inv[t]]

    def element_order(self, a):
        return self._element_orders()[a]

    def _element_orders(self):
        """The order of every element, by id; computed once per group and held on it.

        One walk x, x^2, ... per cyclic subgroup <x> not yet met: it reaches
        0 at x^k, k = |<x>|, and x^i has order k / gcd(k, i), so every power
        is read off the walk.  So the cost is O(|<x>|) per cyclic subgroup.

        :meth:`generating_set` sorts by these orders before associativity is
        proved.  On a table that is no group a walk may miss 0; it stops after
        |G| steps, and the numbers it gives are only a sort key: the greedy
        rule, not the order it visits, makes the set generate.
        """
        if self._orders is None:
            table, n = self.table, self.order
            orders = [1] + [0] * (n - 1)
            for x in range(1, n):
                if orders[x]:
                    continue
                powers = [x]
                y = table[x][x]
                while y != 0 and len(powers) < n:
                    powers.append(y)
                    y = table[y][x]
                k = len(powers) + 1
                for i, y in enumerate(powers, 1):
                    if not orders[y]:
                        orders[y] = k // gcd(k, i)
            self._orders = tuple(orders)
        return self._orders

    def _power_log(self, s):
        """The exponent k in 0..|G|-1 with s^k = g, by element id g, for an s of order |G|.

        One walk s, s^2, ..., s^(|G|-1); computed once per generator and held
        on the group.
        """
        logs = self._logs.get(s)
        if logs is None:
            table = self.table
            exps = [0] * self.order
            x = s
            for k in range(1, self.order):
                exps[x] = k
                x = table[x][s]
            logs = self._logs[s] = tuple(exps)
        return logs

    def closure(self, gens):
        """The subgroup generated by ``gens``, as a sorted tuple of ids.

        It is the set of ids reached from 0 by multiplying on the right by
        generators.  That set is closed under right products by generators,
        so it is the submonoid the generators span, and in a finite group a
        submonoid is a subgroup (g^-1 is a power of g).

        :meth:`__init__` reaches this through :meth:`generating_set` before
        associativity is proved, and the proof (Light's test) still holds.
        Each id reached is a left-bracketed product ``(..((g1 g2) g3)..) gk``
        of generators.  The ids ``b`` with ``(ab)c == a(bc)`` for all ``a``
        and ``c`` are closed under products: if ``b`` and ``b'`` are such,
        ``(a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c)``.  So once
        every generator passes, every id reached passes; the greedy
        generating set reaches every id, so the whole table is associative.
        """
        table = self.table
        gens = tuple(gens)
        seen = {0}
        frontier = [0]
        while frontier:
            row = table[frontier.pop()]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def generating_set(self, candidates=None):
        """The greedy generating subset of ``candidates`` (default: every element).

        Candidates are visited by decreasing element order, ties by ascending
        id, and each is kept when it lies outside the closure of those kept
        before it; the set is returned in that order.  So a cyclic group gets
        one generator, and a product of cyclic groups starts from its largest
        cyclic subgroup.  The default is computed once per group and held on
        it.  Candidates that contain it give it back: the greedy pass over
        any superset of the default, in the same order, keeps the same
        elements, since each element it skips lies in the closure of the
        default members visited before it.
        """
        if self._gens is None:
            self._gens = self._greedy(range(1, self.order))
        if candidates is None or set(candidates).issuperset(self._gens):
            return self._gens
        return self._greedy(candidates)

    def _greedy(self, candidates):
        orders = self._element_orders()
        gens = []
        current = {0}
        for x in sorted(candidates, key=lambda x: (-orders[x], x)):
            if x not in current:
                gens.append(x)
                current = set(self.closure(gens))
                if len(current) == self.order:
                    break
        return tuple(gens)

    def subgroups(self):
        """All subgroups, as sorted element tuples ordered by (order, elements).

        A subgroup H is the join of the cyclic subgroups <h>, h in H, so a
        chain of joins with one cyclic subgroup at a time leads from {0} to
        H.  Each cyclic subgroup is computed once and one generator of it
        kept; every subgroup found is grown, by each kept ``x`` outside it,
        to the closure of its own generators and ``x``.
        """
        if self._subgroups is None:
            cyclic = {}
            for x in range(1, self.order):
                cyclic.setdefault(self.closure((x,)), x)
            found = {(0,): ()}  # subgroup -> the generators it was reached by
            frontier = [(0,)]
            while frontier:
                elems = frontier.pop()
                gens = found[elems]
                inside = set(elems)
                for x in cyclic.values():
                    if x in inside:
                        continue
                    bigger = self.closure(gens + (x,))
                    if bigger not in found:
                        found[bigger] = gens + (x,)
                        frontier.append(bigger)
            self._subgroups = tuple(sorted(found, key=lambda t: (len(t), t)))
        return self._subgroups

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def make_cyclic(n):
    """Cyclic group of order n; element 1 generates and ids are its powers.

    The table is addition mod n, a group with inverses (-i) mod n, so it is
    not re-checked.
    """
    _check_int(n, "cyclic group order")
    if n < 1:
        raise InputError("cyclic group order must be positive")
    table = tuple([tuple([(i + j) % n for j in range(n)]) for i in range(n)])
    return FiniteGroup._from_checked(table, f"C{n}", tuple([-i % n for i in range(n)]))


def make_product(g, h):
    """Direct product; id of (a, b) is a*|H| + b.

    The factors are groups, so their product is one and is not re-checked;
    the inverse of (a, b) is (a^-1, b^-1).
    """
    n, m = g.order, h.order
    table = []
    for a1 in range(n):
        for b1 in range(m):
            row = []
            for a2 in range(n):
                for b2 in range(m):
                    row.append(g.table[a1][a2] * m + h.table[b1][b2])
            table.append(tuple(row))
    inverses = tuple([g._inv[a] * m + h._inv[b] for a in range(n) for b in range(m)])
    return FiniteGroup._from_checked(tuple(table), f"{g.name}x{h.name}", inverses)


def make_symmetric(n):
    """Symmetric group on n letters with the identity first."""
    import itertools

    if type(n) is not int or n < 0:
        raise InputError(f"symmetric group degree must be a non-negative int, got {n!r}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple([
        tuple([index[tuple([p[q[i]] for i in range(n)])] for q in perms]) for p in perms
    ])
    return FiniteGroup(table, name=f"S{n}")


def conjugacy_classes(group):
    """Partition of element ids into conjugacy classes, sorted by least element.

    The class of s is its orbit under conjugation by the generators alone:
    conjugation by a product is the composite of the conjugations, and in a
    finite group every element is a product of generators.
    """
    if group._classes is None:
        gens = group.generating_set()
        seen = set()
        classes = []
        for s in range(group.order):
            if s in seen:
                continue
            orbit = {s}
            frontier = [s]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = group.conj(g, x)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        group._classes = tuple(classes)  # s is the least id of its class
    return group._classes


def rational_classes(group):
    """Partition of element ids into rational classes, sorted by least element.

    The rational class of s is the set of t conjugate to some s^k with
    gcd(k, ord s) = 1: the union of the conjugacy classes of those s^k.  Read
    from the held classes and element orders, one walk over the powers of
    each class's least element; computed once per group and held on it.  The
    relation is symmetric (s = (s^k)^k' for k k' = 1 mod ord s), so the
    class of the least element of each new class holds every class it meets,
    and the least ids of the rational classes ascend.
    """
    if group._rational is None:
        classes = conjugacy_classes(group)
        class_of = [0] * group.order
        for i, cls in enumerate(classes):
            for s in cls:
                class_of[s] = i
        orders, table = group._element_orders(), group.table
        placed = [False] * len(classes)
        rational = []
        for i, cls in enumerate(classes):
            if placed[i]:
                continue
            s, n = cls[0], orders[cls[0]]
            members = []
            x = s
            for k in range(1, n + 1):  # x = s^k
                j = class_of[x]
                if not placed[j] and gcd(k, n) == 1:
                    placed[j] = True
                    members.extend(classes[j])
                x = table[x][s]
            rational.append(tuple(sorted(members)))
        group._rational = tuple(rational)
    return group._rational


def _read_tuple(values, what, items):
    """``values`` read into a tuple; a value that is not iterable is refused naming ``what``."""
    try:
        it = iter(values)
    except TypeError:
        raise InputError(f"{what} must be an iterable of {items}, got {values!r}") from None
    return tuple(it)


def element_ids(values, what):
    """``values`` as a sorted tuple of distinct ids, each an ``int`` (a ``bool`` is not)."""
    values = _read_tuple(values, f"{what}s", "ids")
    for x in values:
        if type(x) is not int:
            raise InputError(f"{what} {x!r} is not an integer id")
    return tuple(sorted(set(values)))


class Subgroup:
    """A validated subgroup, with its cosets, normality, generators and re-indexed group on demand.

    :func:`subgroup` gives the one ``Subgroup`` held on its parent for an
    element set, so each of these is computed once per subgroup per group;
    the constructor builds a fresh one, checked the same way.
    """

    def __init__(self, parent, elements):
        self._set(parent, element_ids(elements, "subgroup element"))

    def _set(self, parent, elements):
        """Check the sorted distinct ids ``elements`` closed in ``parent`` and keep them."""
        if not elements or elements[0] != 0:
            raise InputError("subgroup must contain the identity 0")
        if any(x < 0 or x >= parent.order for x in elements):
            raise InputError("subgroup elements out of range")
        eset = set(elements)
        for a in elements:
            if parent.inv(a) not in eset:
                raise InputError(f"subgroup not closed under inverse at {a}")
            for b in elements:
                if parent.mult(a, b) not in eset:
                    raise InputError(f"subgroup not closed under product at ({a},{b})")
        self.parent = parent
        self.elements = elements
        self._as_group = None
        self._transversal = None
        self._normal = None
        self._gens = None

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.parent, self.elements))

    def is_normal(self):
        """Whether H is a union of conjugacy classes of its parent; computed once and held."""
        if self._normal is None:
            eset = set(self.elements)
            self._normal = all(
                eset.issuperset(c)
                for c in conjugacy_classes(self.parent)
                if not eset.isdisjoint(c)
            )
        return self._normal

    def generating_set(self):
        """The parent's greedy generating subset of the elements; computed once and held."""
        if self._gens is None:
            self._gens = self.parent.generating_set(self.elements)
        return self._gens

    def left_transversal(self):
        """(transversal, coset_of): the least member of each left coset x*H in
        increasing order, and the tuple mapping each element id to the index
        of its coset in the transversal."""
        if self._transversal is None:
            coset_of = [None] * self.parent.order
            transversal = []
            for x in range(self.parent.order):
                if coset_of[x] is None:
                    for s in self.elements:
                        coset_of[self.parent.mult(x, s)] = len(transversal)
                    transversal.append(x)
            self._transversal = (tuple(transversal), tuple(coset_of))
        return self._transversal

    def as_group(self):
        """(group, parent_id -> sub_id map, sub_id -> parent_id tuple).

        The map is a read-only view: the triple is held on this subgroup and
        shared by every caller.
        """
        if self._as_group is None:
            to_sub = MappingProxyType({x: i for i, x in enumerate(self.elements)})
            table = tuple([
                tuple([to_sub[self.parent.mult(a, b)] for b in self.elements])
                for a in self.elements
            ])
            inverses = tuple([to_sub[self.parent.inv(x)] for x in self.elements])
            grp = FiniteGroup._from_checked(
                table, f"{self.parent.name}|{self.elements}", inverses
            )
            self._as_group = (grp, to_sub, self.elements)
        return self._as_group

    def __repr__(self):
        return f"Subgroup({self.parent.name}, {self.elements})"


def subgroup(parent, elements):
    """The one :class:`Subgroup` of ``parent`` on ``elements``, held on the parent.

    The ids are read once into a sorted tuple of distinct ids, which keys the
    held subgroups, so ``(4, 0, 2, 2)`` and ``(0, 2, 4)`` give the same
    object.  The closure check runs on the first request only, and a
    refused set is not held: asking again refuses it again.  The held
    subgroups live and die with their parent; nothing is held elsewhere.
    """
    return _held_subgroup(parent, element_ids(elements, "subgroup element"))


def _held_subgroup(parent, key):
    """:func:`subgroup` on ``key``, a sorted tuple of distinct ``int`` ids, read by the caller."""
    held = parent._held_subgroups.get(key)
    if held is None:
        held = object.__new__(Subgroup)
        held._set(parent, key)
        parent._held_subgroups[key] = held
    return held

