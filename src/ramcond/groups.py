"""Finite groups as validated Cayley tables.

Element ids are 0..order-1 with 0 the identity; every downstream structure
(filtrations, tame identifications, class functions, module actions) is keyed
by these ids.  The representation caps practical orders around a thousand;
the intended scale is a few dozen, where exhaustive checks are the point.
"""

from __future__ import annotations

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
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if n == 0:
            raise InputError("empty Cayley table")
        ids = range(n)
        for row in table:
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise InputError("Cayley table is not square over element ids")
        if any(table[0][i] != i or table[i][0] != i for i in ids):
            raise InputError("element 0 must be a two-sided identity")
        inverses = [None] * n
        for a in ids:
            for b in ids:
                if table[a][b] == 0:
                    if table[b][a] != 0:
                        raise InputError(f"one-sided inverse at element {a}")
                    inverses[a] = b
        if any(v is None for v in inverses):
            raise InputError("missing inverses in Cayley table")
        for a in ids:
            for b in ids:
                tab = table[a][b]
                for c in ids:
                    if table[tab][c] != table[a][table[b][c]]:
                        raise InputError(
                            f"associativity fails at ({a}, {b}, {c})"
                        )
        self._set(table, name, tuple(inverses))

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
        seen = {0}
        frontier = [0]
        gens = [g for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.table[x][g], self.table[g][x]):
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
        """All subgroups, as sorted element tuples, found by closure growth."""
        if self._subgroups is None:
            found = {(0,)}
            frontier = [(0,)]
            while frontier:
                elems = frontier.pop()
                for x in range(1, self.order):
                    if x in elems:
                        continue
                    bigger = self.closure(tuple(elems) + (x,))
                    if bigger not in found:
                        found.add(bigger)
                        frontier.append(bigger)
            self._subgroups = tuple(sorted(found, key=lambda t: (len(t), t)))
        return self._subgroups

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def make_cyclic(n):
    """Cyclic group of order n; element 1 generates and ids are its powers."""
    if n < 1:
        raise InputError("cyclic group order must be positive")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
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
    inverses = tuple(g._inv[a] * m + h._inv[b] for a in range(n) for b in range(m))
    return FiniteGroup._from_checked(tuple(table), f"{g.name}x{h.name}", inverses)


def make_from_table(table, name="G"):
    return FiniteGroup(table, name=name)


def make_symmetric(n):
    """Symmetric group on n letters with the identity first."""
    import itertools

    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(table, name=f"S{n}")


def conjugacy_classes(group):
    """Partition of element ids into conjugacy classes, sorted by least element."""
    if group._classes is None:
        seen = set()
        classes = []
        for s in range(group.order):
            if s in seen:
                continue
            orbit = {group.conj(t, s) for t in range(group.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        group._classes = tuple(sorted(classes, key=lambda c: c[0]))
    return group._classes


class Subgroup:
    """A validated subgroup, with a re-indexed group structure on demand."""

    def __init__(self, parent, elements):
        elements = tuple(sorted(set(int(x) for x in elements)))
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
        eset = set(self.elements)
        return all(
            self.parent.conj(t, s) in eset
            for t in range(self.parent.order)
            for s in self.elements
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
            table = tuple(
                tuple(to_sub[self.parent.mult(a, b)] for b in self.elements)
                for a in self.elements
            )
            inverses = tuple(to_sub[self.parent.inv(x)] for x in self.elements)
            grp = FiniteGroup._from_checked(
                table, f"{self.parent.name}|{self.elements}", inverses
            )
            self._as_group = (grp, to_sub, self.elements)
        return self._as_group

    def __repr__(self):
        return f"Subgroup({self.parent.name}, {self.elements})"


def subgroup(parent, elements):
    return Subgroup(parent, elements)

