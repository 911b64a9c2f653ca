"""Acceptance gate: one test per shipped criterion, exact tolerances, timed.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL`` line, so a
verbose run doubles as the acceptance report.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dense import mat_mul

from ramcond.catalog import catalog, random_module, random_ram_data, random_unit_conjugate
from ramcond.characters import regular_character, restrict
from ramcond.cli import main
from ramcond.conductors import (
    adapt_lattice,
    adapt_lattice_pair,
    check_adapted_basis,
    conductor,
    is_isogenous,
    module_from_generators,
    regular_module,
    trivial_module,
    weil_restriction,
)
from ramcond.groups import make_cyclic, make_product, subgroup
from ramcond.linalg import lattice_contains
from ramcond.ramification import (
    artin_character,
    bisection,
    disc_valuation,
    ram_data,
    restrict_ramdata,
)
from ramcond.series import (
    MixedSeries,
    SeriesRingSpec,
    dilatation_member,
    endo_apply,
    gauss_valuation,
    is_distinguished,
    mult_endo,
    weierstrass_divide,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def required_catalog_shapes():
    names = {rd.name for rd in catalog()}
    for n in (2, 3, 4, 5, 6, 7):
        assert any(f"tame-C{n}-" in name for name in names)
    assert "wild-C2-p2" in names and "wild-C3-p3" in names
    assert "mixed-C6-p2" in names
    assert "klein-four-p2" in names


def test_criterion_1_bisection_identity():
    with criterion(1, "bisection-identity"):
        start = time.perf_counter()
        required_catalog_shapes()
        fixtures = list(catalog())
        assert len(fixtures) >= 12
        rng = random.Random(2024)
        cases = fixtures + [random_ram_data(rng) for _ in range(200)]
        for rd in cases:
            ba = bisection(rd)
            a = artin_character(rd)
            for s in range(rd.group.order):
                assert ba.values[s] + ba.values[s].conjugate() == a.values[s], rd.name
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_identity_value_disc_link():
    with criterion(2, "identity-value-disc-link"):
        for rd in catalog():
            ba = bisection(rd)
            v = disc_valuation(rd, subgroup(rd.group, (0,)))
            assert ba.values[0] == Fraction(v, 2), rd.name
            total = sum(
                (x.rational_part()[1] for x in artin_character(rd).values), Fraction(0)
            )
            assert total == 0, rd.name


def test_criterion_3_conductor_oracles():
    with criterion(3, "conductor-oracles"):
        tame = ram_data(make_cyclic(3), 2, [], (1, 1))
        assert conductor(regular_module(tame.group, 2), tame).value == 1
        assert conductor(trivial_module(tame.group, 2), tame).value == 0
        faithful = module_from_generators(
            "faithful", tame.group, 2, {1: ((0, -1), (1, -1))}
        )
        assert conductor(faithful, tame).value == 1

        wild = ram_data(make_cyclic(2), 2, [range(2)], None)
        sign = module_from_generators("sign", wild.group, 2, {1: ((-1,),)})
        assert conductor(sign, wild).value == 1
        from ramcond.characters import artin_conductor
        from ramcond.conductors import module_character

        assert artin_conductor(wild, module_character(sign)) == 2


def test_criterion_4_induction_formula_consistency():
    with criterion(4, "induction-consistency"):
        for rd in catalog():
            for elems in rd.group.subgroups():
                h = subgroup(rd.group, elems)
                hgrp, _, _ = h.as_group()
                for m in (trivial_module(hgrp, rd.p), regular_module(hgrp, rd.p)):
                    direct = conductor(weil_restriction(m, h), rd)
                    inner = conductor(m, restrict_ramdata(rd, h))
                    v = disc_valuation(rd, h)
                    formula = inner.value + Fraction(v * m.rank, 2)
                    assert direct.value == formula, (rd.name, elems, m.name)
                    if len(elems) == 1 and m.rank == 1 and m.name.startswith("trivial"):
                        # H = {e}: the Weil restriction of the unit torus
                        assert inner.value == 0
                        assert direct.value == Fraction(v, 2)


def test_criterion_5_restriction_identity():
    with criterion(5, "restriction-identity"):
        for rd in catalog():
            for elems in rd.group.subgroups():
                h = subgroup(rd.group, elems)
                lhs = restrict(bisection(rd), h)
                sub_rd = restrict_ramdata(rd, h)
                rhs = bisection(sub_rd) + Fraction(
                    disc_valuation(rd, h), 2
                ) * regular_character(sub_rd.group)
                assert lhs == rhs, (rd.name, elems)


def test_criterion_6_isogeny_invariance():
    with criterion(6, "isogeny-invariance"):
        rng = random.Random(50)
        fixtures = list(catalog())
        done = 0
        while done < 50:
            rd = fixtures[rng.randrange(len(fixtures))]
            m = random_module(rng, rd.group, rd.p)
            m2 = random_unit_conjugate(rng, m)
            assert is_isogenous(m, m2)
            assert conductor(m, rd).value == conductor(m2, rd).value
            done += 1


def test_criterion_7_series_laws():
    with criterion(7, "series-laws"):
        start = time.perf_counter()
        rng = random.Random(77)
        for p in (2, 3):
            ring = SeriesRingSpec(p, s_vars=("S",), t_vars=("T",), degree_cap=16)

            def sparse(max_degree=8, min_val=-3, ring=ring):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    while True:
                        expo = tuple(
                            rng.randint(0, max_degree)
                            for _ in range(len(ring.variables))
                        )
                        if sum(expo) <= max_degree:
                            break
                    terms[expo] = Fraction(
                        rng.choice([n for n in range(-9, 10) if n])
                    ) * Fraction(ring.p) ** rng.randint(min_val, 3)
                return MixedSeries(ring, terms)

            for _ in range(50):
                f, g = sparse(), sparse()
                assert gauss_valuation(f * g) == gauss_valuation(f) + gauss_valuation(g)

            endo_ring = SeriesRingSpec(p, s_vars=("T",), degree_cap=16)
            scalars = [Fraction(k) for k in range(-3, 4)]
            scalars.append(Fraction(1, 3) if p == 2 else Fraction(1, 2))
            for r in scalars:
                for s in scalars:
                    lhs = endo_apply(r, mult_endo(s, endo_ring))
                    assert lhs == mult_endo(r * s, endo_ring), (p, r, s)

            two = SeriesRingSpec(p, s_vars=("X", "Y"), degree_cap=10)
            x, y = MixedSeries.variable(two, "X"), MixedSeries.variable(two, "Y")
            fxy = x + y + x * y
            for r in (2, -1):
                rx, ry = endo_apply(r, x), endo_apply(r, y)
                assert endo_apply(r, fxy) == rx + ry + rx * ry

        wring = SeriesRingSpec(2, s_vars=("S", "Z"), degree_cap=12)
        z = MixedSeries.variable(wring, "Z")
        s = MixedSeries.variable(wring, "S")
        done = 0
        while done < 50:
            n = rng.randint(1, 3)
            f = z**n * rng.choice([1, 3, -1, 5])
            for j in range(n):
                if rng.random() < 0.5:
                    f = f + z**j * 2 * rng.randint(-3, 3)
                else:
                    f = f + z**j * s * rng.randint(-3, 3)
            f = f + z ** (n + rng.randint(1, 2)) * rng.randint(-2, 2)
            dist, order = is_distinguished(f, "Z")
            if not dist or order != n:
                continue
            terms = {}
            for _ in range(rng.randint(1, 5)):
                expo = (rng.randint(0, 4), rng.randint(0, 5))
                terms[expo] = Fraction(rng.randint(-9, 9)) * 2 ** rng.randint(0, 3)
            g = MixedSeries(wring, terms)
            q, r, certified = weierstrass_divide(g, f, "Z", val_bound=32)
            if r.coeffs:
                assert max(e[1] for e in r.coeffs) < n
            defect = g - q * f - r
            assert defect.is_zero() or gauss_valuation(defect) >= certified
            assert certified == float("inf") or certified >= 32
            done += 1

        oracle = SeriesRingSpec(2, s_vars=("Z",), degree_cap=16)
        zz = MixedSeries.variable(oracle, "Z")
        q, r, certified = weierstrass_divide(zz**3, zz * zz - 2, "Z")
        assert q == zz and r == 2 * zz and certified == float("inf")

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_dilatation_monotonicity():
    with criterion(8, "dilatation-monotonicity"):
        rng = random.Random(88)
        ring = SeriesRingSpec(2, s_vars=("S",), degree_cap=12)
        for _ in range(100):
            terms = {
                (rng.randint(0, 10),): Fraction(rng.randint(1, 9))
                * Fraction(2) ** rng.randint(-4, 2)
                for _ in range(rng.randint(1, 4))
            }
            f = MixedSeries(ring, terms)
            member = [dilatation_member(f, n) for n in range(6)]
            for n in range(5):
                if member[n + 1]:
                    assert member[n]
        oracle = MixedSeries(ring, {(2,): Fraction(1, 4)})
        assert dilatation_member(oracle, 0)
        assert not dilatation_member(oracle, 1)


def _averaging_idempotent(module, elems):
    d = module.rank
    acc = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    for s in elems:
        m = module.action[s]
        acc = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(acc, m)
        )
    k = Fraction(1, len(elems))
    return tuple(tuple(k * x for x in row) for row in acc)


def test_criterion_9_lattice_adaptation():
    with criterion(9, "lattice-adaptation"):
        # the cyclic-2 / p = 3 fixture
        g2 = make_cyclic(2)
        reg = regular_module(g2, 3)
        e = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        basis = adapt_lattice(reg, e)
        assert check_adapted_basis(reg, e, basis)
        assert check_adapted_basis(reg, e, ((2, 2), (2, -2)))

        rng = random.Random(99)
        groups = [(make_cyclic(2), 3), (make_cyclic(3), 2), (make_product(make_cyclic(2), make_cyclic(2)), 3)]
        done = 0
        while done < 20:
            grp, p = groups[rng.randrange(len(groups))]
            m = random_module(rng, grp, p, max_rank=4)
            m = random_unit_conjugate(rng, m)
            if not m.is_integral() or m.rank == 0:
                continue
            subs = [s for s in grp.subgroups() if len(s) % p != 0]
            elems = subs[rng.randrange(len(subs))]
            e = _averaging_idempotent(m, elems)
            basis = adapt_lattice(m, e)
            assert check_adapted_basis(m, e, basis)
            done += 1

        # nested variant: invariants of the whole group inside the invariants
        # of a subgroup
        m = regular_module(make_cyclic(2), 3)
        e_outer = _averaging_idempotent(m, (0,))  # identity idempotent
        e_inner = _averaging_idempotent(m, (0, 1))
        assert mat_mul(e_inner, e_outer) == mat_mul(e_outer, e_inner)
        b_inner, b_outer = adapt_lattice_pair(m, e_inner, e_outer)
        for v in b_inner:
            assert lattice_contains(b_outer, v)


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def run_json(capsys, *argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None), out


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "cli-contract"):
        # criteria 1-2 numbers via bisect
        code, rep, raw1 = run_json(capsys, "bisect", scenario_path("tame_cyclic3.json"))
        assert code == 0
        rows = rep["tables"]["bisection"]
        assert [r["artin"] for r in rows] == ["2", "-1", "-1"]
        assert rows[0]["bA"] == "1"

        code, rep, _ = run_json(capsys, "bisect", scenario_path("wild_cyclic2.json"))
        assert code == 0
        assert [r["bA"] for r in rep["tables"]["bisection"]] == ["1", "-1"]

        # criterion 3 numbers via conduct
        code, rep, _ = run_json(capsys, "conduct", scenario_path("tame_cyclic3.json"))
        assert code == 0
        by_name = {r["module"]: r for r in rep["tables"]["conductors"]}
        assert by_name["regular"]["conductor"] == "1"
        assert by_name["trivial"]["conductor"] == "0"
        assert by_name["faithful2"]["conductor"] == "1"

        code, rep, _ = run_json(capsys, "conduct", scenario_path("wild_cyclic2.json"))
        assert code == 0
        by_name = {r["module"]: r for r in rep["tables"]["conductors"]}
        assert by_name["sign"]["conductor"] == "1"
        assert by_name["sign"]["artin_conductor"] == "2"

        # criterion 4 numbers via weil
        for name, expected in (
            ("tame_cyclic3.json", [("unit", "1", "1", 2)]),
            (
                "c4_tower.json",
                [("unit", "1", "1", 2), ("halfsign", "3", "3", 2), ("unit", "4", "4", 8)],
            ),
        ):
            code, rep, _ = run_json(capsys, "weil", scenario_path(name))
            assert code == 0
            got = [
                (r["module"], r["direct"], r["induction"], r["disc_valuation"])
                for r in rep["tables"]["weil"]
            ]
            assert got == expected

        # bit-exact reproduction: re-running on the canonical echo is identical
        for name in ("tame_cyclic3.json", "wild_cyclic2.json", "c4_tower.json"):
            code, rep, raw = run_json(capsys, "conduct", scenario_path(name))
            assert code == 0
            echo = tmp_path / "echo.json"
            echo.write_text(json.dumps(rep["scenario"]), encoding="utf-8")
            code2, _, raw2 = run_json(capsys, "conduct", str(echo))
            assert code2 == 0 and raw == raw2

        # exit code contract: 2 on invalid input
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["conduct", str(bad)]) == 2
        capsys.readouterr()

        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(
            json.dumps(
                {
                    "prime": 2,
                    "group": {"cyclic": 4},
                    "filtration": [[0, 2], [0, 1, 2, 3]],
                    "omega": None,
                }
            ),
            encoding="utf-8",
        )
        assert main(["bisect", str(corrupt)]) == 2
        capsys.readouterr()

        # exit code contract: 1 on a consistency assertion failure
        flaky = tmp_path / "halfway.json"
        flaky.write_text(
            json.dumps(
                {
                    "prime": 2,
                    "group": {"product": [{"cyclic": 2}, {"cyclic": 2}]},
                    "filtration": [[0, 1, 2, 3], [0, 1]],
                    "omega": None,
                    "weil": [
                        {
                            "module": {"name": "unit", "kind": "trivial", "rank": 1},
                            "subgroup": [0, 2],
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main(["weil", str(flaky)]) == 1
        capsys.readouterr()
