"""Class-function algebra over cyclotomic fields.

Pairing, induction, restriction and trace extraction from matrix
representations.  The pairing is (f, g) = |G|^-1 sum_s f(s) g(s^-1),
literally, with no complex-conjugation convention; this keeps pairings with
non-character class functions (like the Artin bisection) well defined.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CheckFailure, InputError
from .exact import CycloNum, _fold
from .groups import Subgroup, conjugacy_classes, rational_classes
from .linalg import identity_form, sparse_mul

__all__ = [
    "ClassFunction",
    "trivial_character",
    "regular_character",
    "pair",
    "induce",
    "restrict",
    "check_forms",
    "trace_forms",
    "artin_conductor",
]

_ZERO = Fraction(0)


def _form_at(f, level):
    """The form of ``f`` at a multiple ``level`` of its level, as ``CycloNum.embed`` embeds."""
    den, rows = f._form
    if level == f.level:
        return den, rows
    step = level // f.level
    return den, [_fold(level, ((i * step, c) for i, c in enumerate(row))) for row in rows]


class ClassFunction:
    """A cyclotomic-valued function on a group, constant on conjugacy classes.

    All values live at one level.  The stored representation is the integer
    form ``_form = (den, rows)``: ``rows[s]`` lists the integer numerators of
    the value at s in the power basis over the common denominator ``den``,
    which need not be in lowest terms.  :func:`pair`, :func:`induce`,
    :func:`restrict`, ``==``, ``+`` and scalar ``*`` work on the form.
    ``values``, the ``CycloNum`` tuple, is a view built from the form on
    first read.

    The public constructor reads values and keeps them as the view; the
    package's builders hand over forms through :meth:`_from_form`.  Both run
    the same conjugacy-class check, on the rows: since they share ``den``,
    rows are equal exactly when values are.  When every class is a singleton
    (an abelian group) the check compares nothing and is skipped.  Class
    functions are immutable, so neither form nor view can go stale.

    ``verified`` marks a character: at level 1 its values are constant on
    each rational class, which :func:`pair` reads per class.  The builders
    prove it (see :func:`trace_forms`); the public constructor checks it.
    """

    __slots__ = ("group", "level", "verified", "_form", "_values", "_class_sums")

    def __init__(self, group, values, verified=False):
        values = tuple([
            v if isinstance(v, CycloNum) else CycloNum.from_rational(v) for v in values
        ])
        if len(values) != group.order:
            raise InputError("class function needs one value per group element")
        level = lcm(*[v.level for v in values])
        values = tuple([v.embed(level) for v in values])
        den = lcm(*[c.denominator for v in values for c in v.coeffs])
        rows = tuple([
            tuple([c.numerator * (den // c.denominator) for c in v.coeffs]) for v in values
        ])
        self._set(group, level, (den, rows), verified, values)
        if verified and level == 1:
            for cls in rational_classes(group):
                if any(rows[s] != rows[cls[0]] for s in cls):
                    raise InputError(f"verified values not constant on the rational class of {cls[0]}")

    @classmethod
    def _from_form(cls, group, level, form, verified=False):
        """A class function at ``level`` with the integer form ``(den, rows)``.

        Each row is a tuple of ``euler_phi(level)`` integers.  The builders of
        this package make the form; it is kept, not copied, and checked on
        conjugacy classes only: a builder passing ``verified`` proves the rest.
        """
        self = object.__new__(cls)
        self._set(group, level, form, verified, None)
        return self

    def _set(self, group, level, form, verified, values):
        rows = form[1]
        classes = conjugacy_classes(group)
        if len(classes) < group.order:
            for cls in classes:
                r0 = rows[cls[0]]
                for s in cls[1:]:
                    if rows[s] != r0:
                        raise InputError(
                            f"values not constant on the conjugacy class of {cls[0]}"
                        )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "verified", bool(verified))
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_class_sums", None)  # memo of _rational_pairing()

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    @property
    def values(self):
        """The values as ``CycloNum``, built from ``_form`` on first read."""
        if self._values is None:
            object.__setattr__(self, "_values", tuple([self(s) for s in range(self.group.order)]))
        return self._values

    def __call__(self, s):
        """The value at s, read from its row of the form."""
        den, rows = self._form
        return CycloNum(self.level, tuple([Fraction(x, den) for x in rows[s]]))

    def __eq__(self, other):
        """Equal values, read on the forms: rows at the lcm level, cross-multiplied."""
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if self.group != other.group:
            return False
        level = lcm(self.level, other.level)
        (den_a, rows_a), (den_b, rows_b) = _form_at(self, level), _form_at(other, level)
        return all(
            x * den_b == y * den_a for a, b in zip(rows_a, rows_b) for x, y in zip(a, b)
        )

    __hash__ = None

    def __add__(self, other):
        """The valuewise sum: rows at the lcm level, added over the lcm of the denominators."""
        if not isinstance(other, ClassFunction):
            raise InputError("can only add class functions")
        if other.group != self.group:
            raise InputError("class function group mismatch")
        level = lcm(self.level, other.level)
        (den_a, rows_a), (den_b, rows_b) = _form_at(self, level), _form_at(other, level)
        den = lcm(den_a, den_b)
        ka, kb = den // den_a, den // den_b
        rows = tuple([
            tuple([x * ka + y * kb for x, y in zip(a, b)]) for a, b in zip(rows_a, rows_b)
        ])
        return ClassFunction._from_form(self.group, level, (den, rows))

    def __mul__(self, scalar):
        """The valuewise product with an ``int`` or ``Fraction`` scalar, read on the form."""
        if type(scalar) not in (int, Fraction):
            raise InputError(f"class function scalars must be int or Fraction, got {scalar!r}")
        q = Fraction(scalar)
        den, rows = self._form
        rows = tuple([tuple([x * q.numerator for x in row]) for row in rows])
        return ClassFunction._from_form(self.group, self.level, (den * q.denominator, rows))

    __rmul__ = __mul__

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {[str(v) for v in self.values]})"


def _check_class_function(*fs):
    """Refuse an argument that is not a :class:`ClassFunction` before any of its fields is read."""
    for f in fs:
        if not isinstance(f, ClassFunction):
            raise InputError(f"class function must be a ClassFunction, got {f!r}")


def trivial_character(group):
    return ClassFunction._from_form(group, 1, (1, ((1,),) * group.order), verified=True)


def regular_character(group):
    rows = ((group.order,),) + ((0,),) * (group.order - 1)
    return ClassFunction._from_form(group, 1, (1, rows), verified=True)


def pair(f, g):
    """The natural pairing |G|^-1 sum_s f(s) g(s^-1); symmetric and bilinear.

    Both sides are read in their integer forms at m = lcm of the levels,
    g being the one with fewer coefficients.  For each coefficient index j
    of g, v_j = sum_s g_j(s^-1) * f(s) is an integer vector, and its entry
    i is the coefficient of zeta_m^(i*m/f.level + j*m/g.level).  Grouping
    the s by the value q = g_j(s^-1),

        v_j = sum over the distinct q != 0 of  q * sum_{s : g_j(s^-1) = q} f(s),

    so f's rows are summed per value, the additions in C (``sum`` over
    ``zip``), and each sum is multiplied once per coefficient.  A character
    takes few values, so a rational g costs one row sum per value.  One
    fold reduces all v_j over ``den_f * den_g * |G|``; the zero
    coefficients of the result share one ``Fraction(0)``.

    A side verified at level 1 is read per rational class instead
    (:func:`_rational_pairing`): the same v_0, which the fold leaves as is.
    """
    _check_class_function(f, g)
    if f.group != g.group:
        raise InputError("pairing across different groups")
    if f.verified and f.level == 1:
        f, g = g, f
    if g.verified and g.level == 1:
        v, den = _rational_pairing(f, g)
        return CycloNum(f.level, tuple([Fraction(a, den) if a else _ZERO for a in v]))
    grp = f.group
    if len(f._form[1][0]) < len(g._form[1][0]):
        f, g = g, f
    (den_f, rows_f), (den_g, rows_g) = f._form, g._form
    vectors = []
    # column j lists g_j(s^-1) over s
    for column in zip(*[rows_g[grp.inv(s)] for s in range(grp.order)]):
        by_value = {}
        for q, row_f in zip(column, rows_f):
            if q:
                by_value.setdefault(q, []).append(row_f)
        v = [0] * len(rows_f[0])
        for q, rows in by_value.items():
            v = [a + q * sum(c) for a, c in zip(v, zip(*rows))]
        vectors.append(v)
    m = lcm(f.level, g.level)
    step_f, step_g = m // f.level, m // g.level
    terms = ((i * step_f + j * step_g, a) for j, v in enumerate(vectors) for i, a in enumerate(v))
    acc = _fold(m, terms)
    den = den_f * den_g * grp.order
    return CycloNum(m, tuple([Fraction(a, den) if a else _ZERO for a in acc]))


def _rational_pairing(f, chi):
    """(v, den): the pairing of ``f`` with ``chi``, verified at level 1, as v / den.

    chi is constant on each rational class C, which is closed under
    inversion (s^-1 = s^(ord s - 1)), so |G| (f, chi) = sum_C chi(C) S_C,
    S_C the sum of f's rows over C, held on ``f``.  v is that integer
    vector in f's power basis, over den = den_f * den_chi * |G|.
    """
    classes = rational_classes(f.group)
    (den_f, rows), (den_chi, chi_rows) = f._form, chi._form
    if f._class_sums is None:
        sums = tuple([tuple(map(sum, zip(*[rows[s] for s in cls]))) for cls in classes])
        object.__setattr__(f, "_class_sums", sums)
    v = [0] * len(rows[0])
    for cls, sums in zip(classes, f._class_sums):
        q = chi_rows[cls[0]][0]
        if q:
            v = [a + q * x for a, x in zip(v, sums)]
    return v, den_f * den_chi * f.group.order


def induce(f, sub):
    """Induce a class function from a subgroup: the standard averaged formula.

    ``f`` lives on ``sub.as_group()``; the result lives on the parent.
    (Ind f)(s) = |H|^-1 * sum over t in G with t s t^-1 in H of f(t s t^-1).
    The sum adds the integer rows of ``f``'s form, each conjugate weighted by
    the number of t that give it, over the denominator ``den * |H|``.
    """
    _check_class_function(f)
    if not isinstance(sub, Subgroup):
        raise InputError("induce needs a Subgroup")
    grp = sub.parent
    hgrp, to_sub, _ = sub.as_group()
    if f.group != hgrp:
        raise InputError("class function does not live on the given subgroup")
    den, rows = f._form
    out = []
    for s in range(grp.order):
        counts = {}
        for t in range(grp.order):
            c = grp.conj(t, s)
            if c in to_sub:
                counts[c] = counts.get(c, 0) + 1
        acc = [0] * len(rows[0])
        for c, k in counts.items():
            acc = [a + k * x for a, x in zip(acc, rows[to_sub[c]])]
        out.append(tuple(acc))
    return ClassFunction._from_form(grp, f.level, (den * sub.order, tuple(out)))


def restrict(f, sub):
    """Valuewise restriction to a subgroup: the rows re-indexed on sub.as_group()."""
    _check_class_function(f)
    if not isinstance(sub, Subgroup):
        raise InputError("restrict needs a Subgroup")
    if f.group != sub.parent:
        raise InputError("class function does not live on the parent group")
    hgrp, _, from_sub = sub.as_group()
    den, rows = f._form
    return ClassFunction._from_form(hgrp, f.level, (den, tuple([rows[x] for x in from_sub])))


def check_forms(group, forms):
    """Complete an action from its generators' forms and check it, on one Cayley walk.

    ``forms`` maps the identity, which must act by the identity matrix, and
    a generating set, or more elements, to the
    :func:`~ramcond.linalg.read_matrix` forms of square matrices of one
    rank.  S is the greedy generating subset of the given elements
    (:meth:`~ramcond.groups.FiniteGroup.generating_set`), which starts from
    the largest cyclic subgroups, so |S| is one on a cyclic group.  The walk
    visits the given elements in ascending order, then the new ones as
    found, and takes each edge g -> g*s (s in S) once, at O(nonzeros): it
    stores F(g) F(s) as F(g*s) when g*s is new and compares it when g*s is
    known.  Every element is a word over S, so F(1) = 1 and these edges
    prove F a homomorphism; every element is the target of an edge, so
    every given form is compared.  The walk misses an element exactly when
    the given elements do not generate.  Returns every element's form in
    ascending order.

    Given exactly the identity and an s of order |G|, with A = F(s), S is
    (s,) and the walk is 1 -> s -> s^2 -> ... -> s^|G| = 1: it stores A^k
    at s^k and makes one comparison, A^|G| against F(1).  So it accepts
    exactly when F(1) = 1 and A^|G| = 1, the relations of the presentation
    G = <s | s^|G|>; :class:`~ramcond.conductors.CharModule` checks those two
    by halving and runs this walk only when its forms are read.
    """
    d = len(forms[0][1])
    if forms[0] != identity_form(d):
        raise InputError("identity must act by the identity matrix")
    gens = group.generating_set(forms)
    out = dict(forms)
    walk = sorted(forms)
    for g in walk:
        form, row = out[g], group.table[g]
        for s in gens:
            h = row[s]
            product = sparse_mul(form, out[s])
            known = out.get(h)
            if known is None:
                out[h] = product
                walk.append(h)
            elif product != known:
                raise InputError(f"action is not a homomorphism at ({g}, {s})")
    if len(out) != group.order:
        raise InputError("given generators do not generate the group")
    return dict(sorted(out.items()))


def trace_forms(group, form_at):
    """Trace character of an action over Q given by the forms of its matrices.

    ``form_at`` maps an element id to the form of its matrix; it is read at
    the least element of each rational class
    (:func:`~ramcond.groups.rational_classes`) only.  There the trace is an
    integer sum of diagonal numerators, copied across the class, all over
    the lcm of those elements' form denominators.  This is exact for any
    action that :func:`check_forms` accepted, and only such actions reach
    it: M is a homomorphism, so M(s) has finite order n = ord s and its
    eigenvalues l_i are n-th roots of unity.  For gcd(k, n) = 1 let sigma_k
    fix Q and send zeta_n to zeta_n^k; then tr M(s^k) = sum l_i^k =
    sigma_k(tr M(s)), and sigma_k fixes tr M(s), which is rational.
    Conjugate elements have equal traces too, so the trace is constant on
    each rational class.
    """
    classes = rational_classes(group)
    reps = [form_at(cls[0]) for cls in classes]
    den = lcm(*[d for d, _ in reps])
    rows = [None] * group.order
    for cls, (d, form_rows) in zip(classes, reps):
        row = (sum(r.get(i, 0) for i, r in enumerate(form_rows)) * (den // d),)
        for s in cls:
            rows[s] = row
    return ClassFunction._from_form(group, 1, (den, tuple(rows)), verified=True)


def artin_conductor(rd, chi):
    """Pairing of the Artin character with chi; integral for genuine characters."""
    from .ramification import artin_character

    _check_class_function(chi)
    art = artin_character(rd)  # refuses an rd that is not a RamData
    if chi.group != rd.group:
        raise InputError("character lives on a different group")
    value = pair(art, chi)
    if chi.verified:
        ok, q = value.rational_part()
        if not ok or q < 0 or q.denominator != 1:
            raise CheckFailure(
                f"Artin conductor of a verified character must be a natural number, got {value}"
            )
    return value
