"""Class-function algebra over cyclotomic fields.

Pairing, conjugation, induction, restriction and trace extraction from
matrix representations.  The pairing is (f, g) = |G|^-1 sum_s f(s) g(s^-1),
literally, with no complex-conjugation convention; this keeps pairings with
non-character class functions (like the Artin bisection) well defined.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CheckFailure, InputError
from .exact import CycloNum
from .groups import Subgroup, conjugacy_classes
from .linalg import mat_mul

__all__ = [
    "ClassFunction",
    "class_function",
    "trivial_character",
    "regular_character",
    "pair",
    "conjugate",
    "induce",
    "restrict",
    "char_of_rep",
    "artin_conductor",
]


def _as_cyclo(x):
    if isinstance(x, CycloNum):
        return x
    return CycloNum.from_rational(Fraction(x))


class ClassFunction:
    """A cyclotomic-valued function on a group, constant on conjugacy classes."""

    __slots__ = ("group", "values", "level", "verified")

    def __init__(self, group, values, verified=False):
        values = tuple(_as_cyclo(v) for v in values)
        if len(values) != group.order:
            raise InputError("class function needs one value per group element")
        level = 1
        for v in values:
            level = lcm(level, v.level)
        values = tuple(v.embed(level) for v in values)
        for cls in conjugacy_classes(group):
            v0 = values[cls[0]]
            for s in cls[1:]:
                if values[s] != v0:
                    raise InputError(
                        f"values not constant on the conjugacy class of {cls[0]}"
                    )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "verified", bool(verified))

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    def __call__(self, s):
        return self.values[s]

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.group == other.group and all(
            a == b for a, b in zip(self.values, other.values)
        )

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, ClassFunction):
            if other.group != self.group:
                raise InputError("class function group mismatch")
            other = other.values
        else:
            raise InputError("can only add class functions")
        return ClassFunction(
            self.group, tuple(a + b for a, b in zip(self.values, other))
        )

    def __sub__(self, other):
        return self.__add__(other * Fraction(-1))

    def __mul__(self, scalar):
        return ClassFunction(self.group, tuple(v * scalar for v in self.values))

    __rmul__ = __mul__

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {[str(v) for v in self.values]})"


def class_function(group, values, verified=False):
    return ClassFunction(group, values, verified=verified)


def trivial_character(group):
    return ClassFunction(group, (1,) * group.order, verified=True)


def regular_character(group):
    values = [0] * group.order
    values[0] = group.order
    return ClassFunction(group, values, verified=True)


def pair(f, g):
    """The natural pairing |G|^-1 sum_s f(s) g(s^-1); symmetric and bilinear.

    When either argument is rational (level 1), the pairing is
    |G|^-1 sum_s q(s^-1) * v(s) with q the rational and v the other
    function's coefficient vectors: a rational combination of coefficient
    vectors, with no field multiplication and no reduction.
    """
    if f.group != g.group:
        raise InputError("pairing across different groups")
    grp = f.group
    if f.level == 1:
        f, g = g, f
    if g.level == 1:
        acc = [Fraction(0)] * len(f.values[0].coeffs)
        for s in range(grp.order):
            q = g.values[grp.inv(s)].coeffs[0]
            if q:
                for i, c in enumerate(f.values[s].coeffs):
                    acc[i] += q * c
        return CycloNum(f.level, tuple(c / grp.order for c in acc))
    acc = CycloNum.from_rational(0)
    for s in range(grp.order):
        acc = acc + f.values[s] * g.values[grp.inv(s)]
    return acc * Fraction(1, grp.order)


def conjugate(f):
    """Apply zeta -> zeta^-1 valuewise."""
    return ClassFunction(f.group, tuple(v.conjugate() for v in f.values))


def induce(f, sub):
    """Induce a class function from a subgroup: the standard averaged formula.

    ``f`` lives on ``sub.as_group()``; the result lives on the parent.
    (Ind f)(s) = |H|^-1 * sum over t in G with t s t^-1 in H of f(t s t^-1).
    """
    if not isinstance(sub, Subgroup):
        raise InputError("induce needs a Subgroup")
    grp = sub.parent
    hgrp, to_sub, _ = sub.as_group()
    if f.group != hgrp:
        raise InputError("class function does not live on the given subgroup")
    values = []
    for s in range(grp.order):
        acc = CycloNum.from_rational(0)
        for t in range(grp.order):
            c = grp.conj(t, s)
            if c in to_sub:
                acc = acc + f.values[to_sub[c]]
        values.append(acc * Fraction(1, sub.order))
    return ClassFunction(grp, values)


def restrict(f, sub):
    """Valuewise restriction to a subgroup, re-indexed on sub.as_group()."""
    if not isinstance(sub, Subgroup):
        raise InputError("restrict needs a Subgroup")
    if f.group != sub.parent:
        raise InputError("class function does not live on the parent group")
    hgrp, _, from_sub = sub.as_group()
    return ClassFunction(hgrp, tuple(f.values[x] for x in from_sub))


def _validate_rep(group, rep):
    """Homomorphism check; testing against a generating set suffices."""
    if set(rep) != set(range(group.order)):
        raise InputError("representation must map every group element")
    dims = {len(rep[g]) for g in rep}
    if len(dims) != 1:
        raise InputError("representation matrices must share one dimension")
    (d,) = dims
    for g in rep:
        if any(len(row) != d for row in rep[g]):
            raise InputError("representation matrices must be square")
    if d == 0:
        return
    ident = tuple(
        tuple(
            _as_cyclo(1) if i == j else _as_cyclo(0) for j in range(d)
        )
        for i in range(d)
    )
    def mat_eq(a, b):
        return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    if not mat_eq(rep[0], ident):
        raise InputError("identity element must act by the identity matrix")
    gens = group.generating_set()
    for g in range(group.order):
        for s in gens:
            if not mat_eq(mat_mul(rep[g], rep[s]), rep[group.mult(g, s)]):
                raise InputError(
                    f"representation is not a homomorphism at ({g}, {s})"
                )


def char_of_rep(group, rep, validate=True):
    """Trace character of a matrix representation (entries rational or cyclotomic)."""
    rep = {g: tuple(tuple(_as_cyclo(x) for x in row) for row in m) for g, m in rep.items()}
    if validate:
        _validate_rep(group, rep)
    values = []
    for g in range(group.order):
        m = rep[g]
        if not m:
            values.append(_as_cyclo(0))
            continue
        t = m[0][0]
        for i in range(1, len(m)):
            t = t + m[i][i]
        values.append(t)
    return ClassFunction(group, values, verified=True)


def artin_conductor(rd, chi):
    """Pairing of the Artin character with chi; integral for genuine characters."""
    from .ramification import artin_character

    if chi.group != rd.group:
        raise InputError("character lives on a different group")
    value = pair(artin_character(rd), chi)
    if chi.verified:
        ok, q = value.rational_part()
        if not ok or q < 0 or q.denominator != 1:
            raise CheckFailure(
                f"Artin conductor of a verified character must be a natural number, got {value}"
            )
    return value
