"""Invariant suites behind the ``verify`` command.

Each suite returns a list of (name, ok, detail) records; the CLI aggregates
them into pass/fail counts and an exit code.  Suites cover: the bisection
identity, the tame values bA(s) * (omega(s) - 1) = 1 and the discriminant
link, the restriction identity, Frobenius reciprocity, induction consistency
of conductors, isogeny invariance, the series laws and dilatation
monotonicity.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .catalog import catalog, random_module, random_ram_data, random_unit_conjugate
from .characters import ClassFunction, induce, pair, regular_character, restrict
from .conductors import (
    conductor,
    conductor_via_induction,
    is_isogenous,
    regular_module,
    trivial_module,
)
from .errors import CheckFailure
from .exact import CycloNum
from .groups import conjugacy_classes, subgroup
from .ramification import (
    artin_character,
    bisection,
    disc_valuation,
    restrict_ramdata,
)
from .series import (
    MixedSeries,
    SeriesRingSpec,
    dilatation_member,
    endo_apply,
    endo_to_scalar,
    gauss_valuation,
    is_distinguished,
    mult_endo,
    weierstrass_divide,
)

__all__ = [
    "bisection_mismatch",
    "suite_bisection",
    "suite_restriction",
    "suite_frobenius",
    "suite_induction",
    "suite_isogeny",
    "suite_series",
    "suite_dilatation",
    "run_catalog_suites",
    "run_random_bisection",
]


def _record(results, name, ok, detail=""):
    results.append((name, bool(ok), detail))


def _first_mismatch(pairs):
    """The first (s, lhs, rhs) with lhs != rhs, else None."""
    return next(((s, lhs, rhs) for s, lhs, rhs in pairs if lhs != rhs), None)


def _record_mismatch(results, name, mismatch):
    """Record a pass, or a failure witnessed by the mismatch (s, lhs, rhs)."""
    detail = "" if mismatch is None else "s={}: lhs={}, rhs={}".format(*mismatch)
    _record(results, name, mismatch is None, detail)


def bisection_mismatch(rd):
    """The first (s, bA(s) + conj(bA(s)), a(s)) whose sides differ, else None."""
    ba, a = bisection(rd), artin_character(rd)
    return _first_mismatch(
        (s, ba.values[s] + ba.values[s].conjugate(), a.values[s]) for s in range(rd.group.order)
    )


def check_bisection(rd, results):
    _record_mismatch(results, f"bisection[{rd.name}]", bisection_mismatch(rd))
    ba, a = bisection(rd), artin_character(rd)
    # bA(s) * (omega(s) - 1) == 1 on tame s: field multiplication only, so it
    # does not rely on the closed form that computed bA
    mismatch = _first_mismatch(
        (s, ba.values[s] * (CycloNum.zeta(rd.n, rd.omega_exp[s]) - 1), 1)
        for s in range(rd.group.order)
        if rd.breaks[s] == 1
    )
    _record_mismatch(results, f"tame-value-identity[{rd.name}]", mismatch)
    total = sum((v.rational_part()[1] for v in a.values), Fraction(0))
    _record(results, f"artin-sum-zero[{rd.name}]", total == 0, str(total))
    v = disc_valuation(rd, subgroup(rd.group, (0,)))
    _record(
        results,
        f"identity-disc-link[{rd.name}]",
        ba.values[0] == Fraction(v, 2),
        f"bA(e)={ba.values[0]}, v(disc)={v}",
    )
    for cls in conjugacy_classes(rd.group):
        if cls == (0,):
            continue
        vals = {rd.breaks[s] for s in cls}
        if len(vals) != 1:
            _record(results, f"break-class-constancy[{rd.name}]", False, str(cls))
            return
    _record(results, f"break-class-constancy[{rd.name}]", True)


def suite_bisection():
    results = []
    for rd in catalog():
        check_bisection(rd, results)
    return results


def suite_restriction():
    results = []
    for rd in catalog():
        for elems in rd.group.subgroups():
            h = subgroup(rd.group, elems)
            lhs = restrict(bisection(rd), h)
            sub_rd = restrict_ramdata(rd, h)
            rhs = bisection(sub_rd) + Fraction(disc_valuation(rd, h), 2) * regular_character(sub_rd.group)
            _record(
                results,
                f"restriction[{rd.name}|{elems}]",
                lhs == rhs,
            )
    return results


def suite_frobenius():
    rng = random.Random(12)
    results = []
    for rd in catalog():
        g = rd.group

        def random_cf(grp):
            vals = [None] * grp.order
            for cls in conjugacy_classes(grp):
                v = CycloNum.from_rational(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                ) + CycloNum.zeta(3) * rng.randint(-2, 2)
                for s in cls:
                    vals[s] = v
            return ClassFunction(grp, vals)

        for elems in g.subgroups():
            h = subgroup(g, elems)
            hgrp, _, _ = h.as_group()
            for _ in range(2):
                f = random_cf(hgrp)
                chi = random_cf(g)
                ok = pair(induce(f, h), chi) == pair(f, restrict(chi, h))
                _record(results, f"frobenius[{rd.name}|{elems}]", ok)
    return results


def suite_induction():
    results = []
    for rd in catalog():
        for elems in rd.group.subgroups():
            h = subgroup(rd.group, elems)
            hgrp, _, _ = h.as_group()
            for m in (trivial_module(hgrp, rd.p), regular_module(hgrp, rd.p)):
                name = f"induction[{rd.name}|{elems}|{m.name}]"
                try:
                    conductor_via_induction(m, h, rd)
                except CheckFailure as exc:
                    _record(results, name, False, str(exc))
                else:
                    _record(results, name, True)
    return results


def suite_isogeny():
    rng = random.Random(29)
    results = []
    cases = catalog()
    for i in range(10):
        rd = cases[rng.randrange(len(cases))]
        m = random_module(rng, rd.group, rd.p)
        m2 = random_unit_conjugate(rng, m)
        ok = is_isogenous(m, m2) and conductor(m, rd).value == conductor(m2, rd).value
        _record(results, f"isogeny[{i}|{rd.name}]", ok)
    return results


def _random_series(rng, ring, max_terms=4, max_degree=None, min_val=-3):
    if max_degree is None:
        max_degree = ring.degree_cap // 2
    nvars = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            expo = tuple([rng.randint(0, max_degree) for _ in range(nvars)])
            if sum(expo) <= max_degree:
                break
        coeff = Fraction(rng.choice([n for n in range(-9, 10) if n])) * Fraction(
            ring.p
        ) ** rng.randint(min_val, 3)
        terms[expo] = coeff
    return MixedSeries(ring, terms)


def suite_series():
    rng = random.Random(31)
    results = []
    for p in (2, 3):
        ring = SeriesRingSpec(p, s_vars=("S",), t_vars=("T",))
        ok = True
        for _ in range(50):
            f = _random_series(rng, ring)
            g = _random_series(rng, ring)
            if f.is_zero() or g.is_zero():
                continue
            if gauss_valuation(f * g) != gauss_valuation(f) + gauss_valuation(g):
                ok = False
                break
        _record(results, f"gauss-multiplicative[p={p}]", ok)

        endo_ring = SeriesRingSpec(p, s_vars=("T",))
        scalars = [Fraction(r) for r in range(-3, 4)]
        scalars.append(Fraction(1, 3) if p == 2 else Fraction(1, 2))
        ok = True
        for r in scalars:
            for s in scalars:
                if endo_apply(r, mult_endo(s, endo_ring)) != mult_endo(r * s, endo_ring):
                    ok = False
        _record(results, f"endo-composition[p={p}]", ok)

        two_ring = SeriesRingSpec(p, s_vars=("X", "Y"), degree_cap=10)
        x = MixedSeries.variable(two_ring, "X")
        y = MixedSeries.variable(two_ring, "Y")
        fxy = x + y + x * y
        ok = True
        for r in (2, -1):
            rx, ry = endo_apply(r, x), endo_apply(r, y)
            if endo_apply(r, fxy) != rx + ry + rx * ry:
                ok = False
        _record(results, f"endo-group-law[p={p}]", ok)

        ok = True
        scalar_pairs = [(3, 5), (2, -1), (-3, -2)]
        for r, s in scalar_pairs:
            composed = endo_apply(r, mult_endo(s, endo_ring))
            if endo_to_scalar(composed) != Fraction(r * s):
                ok = False
        _record(results, f"endo-scalar-roundtrip[p={p}]", ok)

    # Weierstrass reconstruction on randomized pairs over Z_2[[S, Z]]
    wring = SeriesRingSpec(2, s_vars=("S", "Z"), degree_cap=12)
    zvar = MixedSeries.variable(wring, "Z")
    svar = MixedSeries.variable(wring, "S")
    ok = True
    for i in range(50):
        n = rng.randint(1, 3)
        f = zvar**n * rng.choice([1, 3, -1, 5])
        for j in range(n):
            # low terms must reduce to zero: p-divisible or S-divisible
            pick = rng.randint(0, 2)
            if pick == 0:
                f = f + zvar**j * 2 * rng.randint(-3, 3)
            elif pick == 1:
                f = f + zvar**j * svar * rng.randint(-3, 3)
        f = f + zvar ** (n + rng.randint(1, 2)) * rng.randint(-2, 2)
        dist, order = is_distinguished(f, "Z")
        if not dist or order != n:
            continue
        g = _random_series(rng, wring, max_terms=5, min_val=0)
        q, r, certified = weierstrass_divide(g, f, "Z", val_bound=32)
        if r.coeffs and max(e[1] for e in r.coeffs) >= n:
            ok = False
            break
        defect = g - q * f - r
        if not (defect.is_zero() or gauss_valuation(defect) >= certified):
            ok = False
            break
        q2, r2, _ = weierstrass_divide(g, f, "Z", val_bound=32)
        if q2 != q or r2 != r:
            ok = False
            break
    _record(results, "weierstrass-reconstruction[p=2]", ok)

    oracle_ring = SeriesRingSpec(2, s_vars=("Z",))
    z = MixedSeries.variable(oracle_ring, "Z")
    q, r, certified = weierstrass_divide(z**3, z * z - 2, "Z")
    _record(
        results,
        "weierstrass-oracle[Z^3,Z^2-2]",
        q == z and r == 2 * z and certified > 32,
        f"q={q}, r={r}",
    )
    return results


def suite_dilatation():
    rng = random.Random(37)
    results = []
    ring = SeriesRingSpec(2, s_vars=("S",), degree_cap=12)
    ok = True
    for _ in range(100):
        f = _random_series(rng, ring, max_terms=4, max_degree=8, min_val=-4)
        memberships = [dilatation_member(f, n) for n in range(6)]
        for n in range(5):
            if memberships[n + 1] and not memberships[n]:
                ok = False
    _record(results, "dilatation-monotone", ok)
    f = MixedSeries(ring, {(2,): Fraction(1, 4)})
    _record(
        results,
        "dilatation-oracle[(S/2)^2]",
        dilatation_member(f, 0) and not dilatation_member(f, 1),
    )
    return results


def run_catalog_suites():
    """Every suite over the built-in catalog; the verify --catalog payload."""
    results = []
    results += suite_bisection()
    results += suite_restriction()
    results += suite_frobenius()
    results += suite_induction()
    results += suite_isogeny()
    results += suite_series()
    results += suite_dilatation()
    return results


def run_random_bisection(seed, count):
    """Bisection identity over randomized structurally valid chains."""
    rng = random.Random(seed)
    results = []
    for i in range(count):
        rd = random_ram_data(rng)
        sub = []
        check_bisection(rd, sub)
        failed = [f"{name}: {detail}" for name, ok, detail in sub if not ok]
        _record(results, f"random-bisection[{i}|{rd.name}]", not failed, "; ".join(failed))
    return results
