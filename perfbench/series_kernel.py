"""Workload series-kernel: the truncated p-adic power series kernel alone.

Random series over Z_p, p in {2, 3}, with degree caps 8, 12 and 16.  Each
case runs one of: a product in Z_p[[S]]<T> with gauss_valuation of the
factors and the product; weierstrass_divide in Z_p[[S, Z]] by a random
Z-distinguished divisor; the composition endo_apply(r, mult_endo(s)) in
Z_p[[T]] with endo_to_scalar; dilatation_member for n = 0..5 in
Z_p[[S1, S2]]; or a symmetric_descent for C2 or C3 acting by substitution.
Only the series layer works here, so changes to exact, linalg or conductors
are predicted to leave this workload unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Case, require

# (kind, p, degree cap, size parameter).  For wdiv the size parameter is the
# Z-order of the divisor, negative when its low terms are p-divisible (the
# division then stops at the valuation bound) rather than S-divisible (the
# division is exact).  Random series contents make the cost of a slot vary
# with the seed, so the pool holds every slot four times or more.  Kinds
# interleave so that any prefix of the table covers all of them.
SLOTS = (
    ("product", 2, 8, 16), ("wdiv", 3, 8, 2), ("endo", 2, 8, 0), ("dilate", 2, 8, 30),
    ("swap", 2, 12, 2), ("product", 3, 12, 20), ("wdiv", 2, 16, 1), ("endo", 3, 12, 0),
    ("dilate", 3, 12, 40), ("rotate", 3, 8, 3), ("product", 2, 16, 24), ("wdiv", 3, 16, 1),
    ("endo", 2, 16, 0), ("dilate", 2, 16, 50), ("inverse", 2, 16, 2), ("product", 3, 16, 20),
    ("wdiv", 2, 16, 1), ("endo", 3, 16, 0), ("dilate", 3, 16, 40), ("swap", 3, 16, 2),
    ("product", 2, 12, 24), ("wdiv", 3, 8, -1), ("wdiv", 2, 12, 1), ("dilate", 2, 12, 40),
    ("inverse", 3, 12, 2),
)
SIZE = 105


def _coeff(rng, p, lo, hi):
    return Fraction(rng.choice([n for n in range(-9, 10) if n])) * Fraction(p) ** rng.randint(lo, hi)


def _random_series(rc, rng, ring, terms, max_degree, lo=-3, hi=3):
    nvars = len(ring.variables)
    coeffs = {}
    while len(coeffs) < terms:
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(nvars)] += 1
        coeffs[tuple(expo)] = _coeff(rng, ring.p, lo, hi)
    return rc.MixedSeries(ring, coeffs)


def _sign(rng):
    return rng.choice((1, -1))


def _p_adic_integer(rng, p, den):
    return Fraction(rng.choice([n for n in range(-7, 8) if n]), den)


def _case(rc, rng, kind, p, cap, size):
    spec = {"p": p, "cap": cap}
    args = {}
    if kind == "product":
        ring = rc.SeriesRingSpec(p, s_vars=("S",), t_vars=("T",), degree_cap=cap)
        deg = (3 * cap + 3) // 4
        args["f"] = _random_series(rc, rng, ring, size, deg)
        args["g"] = _random_series(rc, rng, ring, size, deg)
    elif kind == "wdiv":
        # Division cost depends on the supports and on how the coefficient
        # sizes grow, so supports and valuations are fixed per slot and the
        # seed draws signs only.
        ring = rc.SeriesRingSpec(p, s_vars=("S", "Z"), degree_cap=cap)
        z = rc.MixedSeries.variable(ring, "Z")
        s = rc.MixedSeries.variable(ring, "S")
        n = abs(size)
        low = p if size < 0 else s
        f = (z**n + z ** (n + 1) * _sign(rng) + s * z**n * _sign(rng)) * _sign(rng)
        for j in range(n):  # low terms vanish modulo (p, S)
            f = f + z**j * low * _sign(rng)
        args["f"], args["z"], args["n"] = f, "Z", n
        support = random.Random(f"{kind}/{p}/{cap}/{size}")
        g = {}
        while len(g) < 6:
            expo = (support.randint(0, cap // 4), support.randint(0, cap // 2))
            g[expo] = _sign(rng) * Fraction(p) ** support.randint(0, 2)
        args["g"] = rc.MixedSeries(ring, g)
    elif kind == "endo":
        ring = rc.SeriesRingSpec(p, s_vars=("T",), degree_cap=cap)
        args["ring"] = ring
        # the denominators, prime to p, are fixed per slot: they set the
        # size of the binomial coefficients and so the cost
        args["r"] = _p_adic_integer(rng, p, 1)
        args["s"] = _p_adic_integer(rng, p, 5 if p == 2 else 2)
    elif kind == "dilate":
        ring = rc.SeriesRingSpec(p, s_vars=("S1", "S2"), degree_cap=cap)
        args["f"] = _random_series(rc, rng, ring, size, cap, lo=-4, hi=2)
    else:
        names = ("X", "Y", "Z")[:size] if kind != "inverse" else ("X",)
        ring = rc.SeriesRingSpec(p, s_vars=names, degree_cap=cap)
        var = {v: rc.MixedSeries.variable(ring, v) for v in names}
        if kind == "inverse":  # [-1](X) = (1 + X)^-1 - 1, an involution
            inv = rc.MixedSeries(ring, {(k,): (-1) ** k for k in range(1, cap + 1)})
            images = [var, {"X": inv}]
        else:
            order = 2 if kind == "swap" else 3
            perm = list(names)
            images = []
            for _ in range(order):
                images.append({v: var[w] for v, w in zip(names, perm)})
                perm = perm[1:] + perm[:1]
        args["group"] = rc.make_cyclic(len(images))
        args["action"] = dict(enumerate(images))
        args["names"] = names
    for key in ("f", "g", "r", "s"):
        if key in args:
            spec[key] = str(args[key])
    tags = {"degree_cap": cap, "p": p}
    return Case(kind, spec, tags, args)


def generate(rc, rng, size=SIZE, workdir=None):
    return [_case(rc, rng, *SLOTS[i % len(SLOTS)]) for i in range(size)]


def run(rc, case):
    a = case.args
    if case.kind == "product":
        h = a["f"] * a["g"]
        return (h, rc.gauss_valuation(a["f"]), rc.gauss_valuation(a["g"]), rc.gauss_valuation(h))
    if case.kind == "wdiv":
        return tuple(rc.weierstrass_divide(a["g"], a["f"], a["z"]))
    if case.kind == "endo":
        e = rc.endo_apply(a["r"], rc.mult_endo(a["s"], a["ring"]))
        return (e, rc.endo_to_scalar(e))
    if case.kind == "dilate":
        return tuple(rc.dilatation_member(a["f"], n) for n in range(6))
    out = rc.symmetric_descent(a["group"], a["action"])
    return tuple((name, tuple(out[name])) for name in a["names"])


def _valuation(c, p):
    v, num, den = 0, abs(c.numerator), c.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _min_valuation(coeffs, p):
    return min(_valuation(c, p) for c in coeffs.values())


def check(rc, case, out):
    a = case.args
    if case.kind == "product":
        h, vf, vg, vh = out
        f, g = a["f"], a["g"]
        p, cap = f.ring.p, f.ring.degree_cap
        full = {}
        for e1, c1 in f.coeffs.items():
            for e2, c2 in g.coeffs.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                full[e] = full.get(e, 0) + c1 * c2
        full = {e: c for e, c in full.items() if c}
        truncated = {e: c for e, c in full.items() if sum(e) <= cap}
        require(h.coeffs == truncated, "product differs from the schoolbook convolution")
        require(vf == _min_valuation(f.coeffs, p) and vg == _min_valuation(g.coeffs, p),
                "gauss_valuation of a factor")
        require(_min_valuation(full, p) == vf + vg, "Gauss valuation is not multiplicative")
        require(vh == _min_valuation(truncated, p), f"gauss_valuation of the product {vh}")
    elif case.kind == "wdiv":
        q, r, certified = out
        f, g, n = a["f"], a["g"], a["n"]
        require(rc.is_distinguished(f, "Z") == (True, n), "divisor not distinguished of order n")
        zi = f.ring.index_of("Z")
        require(all(e[zi] < n for e in r.coeffs), f"deg_Z r >= {n}")
        defect = g - q * f - r
        require(defect.is_zero() or rc.gauss_valuation(defect) >= certified,
                f"Weierstrass defect below the certified valuation {certified}")
    elif case.kind == "endo":
        e, scalar = out
        rs = a["r"] * a["s"]
        require(e == rc.mult_endo(rs, a["ring"]), "[r] o [s] != [rs]")
        require(scalar == rs, f"endo_to_scalar gave {scalar}, expected {rs}")
    elif case.kind == "dilate":
        f = a["f"]
        for n, member in enumerate(out):
            expected = all(
                _valuation(c, f.ring.p) >= -(sum(e) // (n + 1)) for e, c in f.coeffs.items()
            )
            require(member == expected, f"dilatation membership at n={n}")
        require(all(x or not y for x, y in zip(out, out[1:])), "membership not monotone")
    else:
        action = a["action"]
        for name, outputs in out:
            require(len(outputs) == len(action), "one generator per group element")
            for u in outputs:
                for gid in action:
                    require(rc.substitute(u, action[gid]) == u, f"generator for {name} not invariant")
        if case.kind != "inverse":
            ring = out[0][1][0].ring
            names = a["names"]
            k = len(names)
            # elementary symmetric polynomials of the orbit of one variable
            for name, outputs in out:
                for degree, u in enumerate(outputs, start=1):
                    expected = {}
                    for mask in range(1 << k):
                        if bin(mask).count("1") == degree:
                            expected[tuple((mask >> i) & 1 for i in range(k))] = Fraction(1)
                    if len(action) < k or degree > k:
                        continue
                    require(u == rc.MixedSeries(ring, expected), f"e_{degree} for {name}")
