"""Finite groups as validated Cayley tables.

Element ids are 0..order-1 with 0 the identity; every downstream structure
(filtrations, tame identifications, class functions, module actions) is keyed
by these ids.  Checks and enumerations work from generators: associativity
by Light's test, conjugacy classes as orbits under conjugation by the
generators, and subgroups as joins of cyclic subgroups.  The table itself is
dense, so memory grows with the square of the order.
"""

from __future__ import annotations

from itertools import chain

from .errors import InputError

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "make_cyclic",
    "make_product",
    "make_from_table",
    "make_symmetric",
    "conjugacy_classes",
    "subgroup",
]


class FiniteGroup:
    def __init__(self, table, name="G"):
        """A group on ``table``, whose rows are the products ``a * b`` by id.

        Entries must be ``int`` ids (not ``bool``, ``float`` or ``str``).  The
        identity and inverses are checked over the whole table, and
        associativity by Light's test: ``(ab)c == a(bc)`` for every ``a`` and
        ``c`` and every ``b`` in :meth:`generating_set`, which proves it for
        every ``b`` (see :meth:`closure`).
        """
        table = tuple([tuple(row) for row in table])
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
        So does :func:`make_product`, from two groups.
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
        self._subgroups = None
        self._gens = None

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
        x = a
        k = 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def elements(self):
        return range(self.order)

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

        Each candidate, in ascending order, is kept when it lies outside the
        closure of those kept before it.  The default is computed once per
        group and held on it.
        """
        if candidates is None and self._gens is not None:
            return self._gens
        gens = []
        current = {0}
        for x in range(1, self.order) if candidates is None else sorted(candidates):
            if x not in current:
                gens.append(x)
                current = set(self.closure(gens))
                if len(current) == self.order:
                    break
        gens = tuple(gens)
        if candidates is None:
            self._gens = gens
        return gens

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
    """Cyclic group of order n; element 1 generates and ids are its powers."""
    if n < 1:
        raise InputError("cyclic group order must be positive")
    table = tuple([tuple([(i + j) % n for j in range(n)]) for i in range(n)])
    return FiniteGroup(table, name=f"C{n}")


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


def make_from_table(table, name="G"):
    return FiniteGroup(table, name=name)


def make_symmetric(n):
    """Symmetric group on n letters with the identity first."""
    import itertools

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


def element_ids(values, what):
    """``values`` as a sorted tuple of distinct ids, each an ``int`` (a ``bool`` is not)."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise InputError(f"{what} {x!r} is not an integer id")
    return tuple(sorted(set(values)))


class Subgroup:
    """A validated subgroup, with a re-indexed group structure on demand."""

    def __init__(self, parent, elements):
        elements = element_ids(elements, "subgroup element")
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
        """Whether H is a union of conjugacy classes of its parent."""
        eset = set(self.elements)
        return all(
            eset.issuperset(c)
            for c in conjugacy_classes(self.parent)
            if not eset.isdisjoint(c)
        )

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
        """(group, parent_id -> sub_id map, sub_id -> parent_id tuple)."""
        if self._as_group is None:
            to_sub = {x: i for i, x in enumerate(self.elements)}
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
    return Subgroup(parent, elements)

