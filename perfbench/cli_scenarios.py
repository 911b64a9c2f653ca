"""Workload cli-scenarios: short in-process calls of the command line front end.

Small scenario files are generated from the seed and written once at set-up,
next to the three shipped scenarios.  Each case is one
``ramcond.cli.main(["--json", command, file])`` with standard output
captured in memory, for ``bisect``, ``conduct``, ``weil`` and
``series run``.  Per-call parsing, strict validation, the canonical echo
with its digest and report emission are a large share of each call, so this
is the workload that measures the ``scenario`` and ``cli`` layers.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

from harness import REPO_ROOT, Case, require

SHIPPED = ("c4_tower.json", "tame_cyclic3.json", "wild_cyclic2.json")
# Every command builds every module of its scenario, so the generated files
# keep modules small: these are the short calls a user makes by hand.
MAX_REGULAR = 6


def _companion(d, rc):
    """Companion matrix of the d-th cyclotomic polynomial: a Q-irreducible action."""
    poly = rc.cyclotomic_polynomial(d)
    k = len(poly) - 1
    rows = [[0] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = 1
    for i in range(k):
        rows[i][k - 1] = -poly[i]
    return [[str(x) for x in row] for row in rows]


def _identity(k):
    return [[str(int(i == j)) for j in range(k)] for i in range(k)]


def _unit(rng, n):
    return rng.choice([e for e in range(1, n) if gcd(e, n) == 1]) if n > 1 else 0


def _series_requests(rng):
    a, b, c = (rng.choice([1, 2, 3, 5, 7]) for _ in range(3))
    k = rng.randint(-3, 2)
    return [
        {"op": "gauss", "expr": f"p^{k}*S^2 + {a}*S*T - {b}*p*T^3 + {c}"},
        {"op": "wdiv", "g": f"Z^{rng.randint(3, 5)} + {a}*S*Z", "f": f"Z^2 - {b}*S*Z + {c}*S", "z": "Z"},
        {"op": "endo", "scalars": [str(rng.randint(-3, 4)), str(rng.randint(2, 5))]},
        {"op": "dilate", "expr": f"p^-{rng.randint(1, 3)}*S^{rng.randint(2, 6)} + {a}*S", "n": rng.randint(0, 3)},
    ]


def _shape_cyclic_tame(rc, rng, n, divisors, index):
    p = rng.choice([q for q in (2, 3, 5, 7) if n % q])
    modules = [{"name": "trivial", "kind": "trivial", "rank": rng.randint(1, 2)}]
    if n <= MAX_REGULAR:
        modules.append({"name": "regular", "kind": "regular"})
    for d in divisors:
        modules.append({"name": f"phi{d}", "kind": "matrices", "matrices": {"1": _companion(d, rc)}})
    sub = list(range(0, n, index))
    return {
        "prime": p, "group": {"cyclic": n}, "filtration": [],
        "omega": {"generator": 1, "exponent": _unit(rng, n)},
        "modules": modules,
        "weil": [{"module": {"name": "unit", "kind": "trivial", "rank": 1}, "subgroup": sub}],
    }


def _shape_cyclic_wild(rc, rng, p, k, jumps, divisors):
    n = p**k
    chain = []
    prev = 0
    for i, jump in enumerate(jumps):
        chain += [list(range(0, n, p**i))] * (jump - prev)
        prev = jump
    modules = [{"name": "regular", "kind": "regular"}] if n <= MAX_REGULAR else []
    for d in divisors:
        modules.append({"name": f"phi{d}", "kind": "matrices", "matrices": {"1": _companion(d, rc)}})
    sub = list(range(0, n, p ** (k - 1))) if k > 1 else [0]
    weil = [{"module": {"name": "unit", "kind": "trivial", "rank": 1}, "subgroup": sub}]
    if k > 1:
        gen = str(p ** (k - 1))
        weil.append({"module": {"name": "twist", "kind": "matrices",
                                "matrices": {gen: _companion(p, rc)}}, "subgroup": sub})
    return {"prime": p, "group": {"cyclic": n}, "filtration": chain, "omega": None,
            "modules": modules, "weil": weil}


def _shape_mixed(rc, rng, n, p):
    # ids a*p + b of C_n x C_p; the wild break is stretched to a multiple of n
    wild = list(range(p))
    chain = [wild] * (n * rng.randint(1, 2))
    tame_gen = str(p)
    modules = [
        {"name": "trivial", "kind": "trivial", "rank": 1},
        {"name": "tame", "kind": "matrices",
         "matrices": {"1": _identity(len(_companion(n, rc))), tame_gen: _companion(n, rc)}},
        {"name": "wild", "kind": "matrices",
         "matrices": {"1": _companion(p, rc), tame_gen: _identity(p - 1)}},
    ]
    if n * p <= MAX_REGULAR:
        modules.append({"name": "regular", "kind": "regular"})
    return {
        "prime": p, "group": {"product": [{"cyclic": n}, {"cyclic": p}]},
        "filtration": chain, "omega": {"generator": p, "exponent": _unit(rng, n)},
        "modules": modules,
        "weil": [{"module": {"name": "unit", "kind": "trivial", "rank": 1}, "subgroup": wild}],
    }


SHAPES = (
    lambda rc, rng: _shape_cyclic_tame(rc, rng, 5, [5], 5),
    lambda rc, rng: _shape_cyclic_tame(rc, rng, 8, [8, 4], 4),
    lambda rc, rng: _shape_cyclic_tame(rc, rng, 12, [12, 6], 3),
    lambda rc, rng: _shape_cyclic_tame(rc, rng, 7, [7], 7),
    lambda rc, rng: _shape_cyclic_wild(rc, rng, 2, 1, [rng.randint(1, 3)], [2]),
    lambda rc, rng: _shape_cyclic_wild(rc, rng, 2, 2, [1, 3], [4, 2]),
    lambda rc, rng: _shape_cyclic_wild(rc, rng, 3, 1, [rng.randint(1, 2)], [3]),
    lambda rc, rng: _shape_cyclic_wild(rc, rng, 3, 2, [1, 4], [9, 3]),
    lambda rc, rng: _shape_mixed(rc, rng, 3, 2),
    lambda rc, rng: _shape_mixed(rc, rng, 5, 2),
)
COMMANDS = ("bisect", "conduct", "weil", "series")
COPIES = 3  # generated files per shape
SIZE = 105


def _argv(command, path):
    cmd = ["series", "run"] if command == "series" else [command]
    return ["--json", *cmd, str(path)]


def generate(rc, rng, size=SIZE, workdir=None):
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for name in SHIPPED:
        path = REPO_ROOT / "scenarios" / name
        files.append((path, json.loads(path.read_text(encoding="utf-8"))))
    for i, shape in enumerate(SHAPES * COPIES):
        scenario = shape(rc, rng)
        if i % 2 == 0:
            scenario["series"] = _series_requests(rng)
            scenario["precision"] = {"degree_cap": rng.choice([8, 10, 12])}
        path = workdir / f"scenario{i:02d}.json"
        path.write_text(json.dumps(scenario, indent=2), encoding="utf-8")
        files.append((path, scenario))
    slots = [(path, scenario, cmd) for path, scenario in files for cmd in COMMANDS
             if cmd != "series" or scenario.get("series")]
    cases = []
    for i in range(size):
        path, scenario, cmd = slots[i % len(slots)]
        group = scenario["group"]
        tags = {"command": cmd, "group": json.dumps(group, sort_keys=True),
                "modules": len(scenario.get("modules", []))}
        cases.append(Case(cmd, {"file": path.name, "scenario": scenario}, tags,
                          {"argv": _argv(cmd, path), "path": path}))
    return cases


def run(rc, case):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = rc.cli.main(case.args["argv"])
    return (code, sink.getvalue())


def check(rc, case, out):
    code, text = out
    require(code == 0, f"exit code {code}")
    report = json.loads(text)
    require(report["scenario_digest"] == rc.scenario.scenario_digest(report["scenario"]),
            "scenario_digest does not match the echoed scenario")
    require(all(c["status"] == "pass" for c in report["checks"]), "a reported check failed")
    sc = rc.scenario.load_scenario(case.args["path"])
    rd = sc.ramdata
    if case.kind == "bisect":
        rows = report["tables"]["bisection"]
        require(len(rows) == sc.group.order, "one bisection row per element")
        art = rc.artin_character(rd)
        for row in rows:
            ok, value = art.values[row["element"]].rational_part()
            require(ok and row["artin"] == str(value), f"Artin value at {row['element']}")
    elif case.kind == "conduct":
        rows = {row["module"]: row for row in report["tables"]["conductors"]}
        require(set(rows) == set(sc.modules), "one row per module")
        for name, module in sc.modules.items():
            c = rc.conductor(module, rd).value
            chi = rc.module_character(module)
            ok, artin = rc.artin_conductor(rd, chi).rational_part()
            require(rows[name]["conductor"] == str(c), f"conductor of {name}")
            require(ok and rows[name]["artin_conductor"] == str(artin), f"Artin conductor of {name}")
            require(c == artin / 2, f"Chai-Yu fails for {name}")
    elif case.kind == "weil":
        rows = report["tables"]["weil"]
        require(len(rows) == len(sc.weil), "one row per Weil request")
        for row, (module, sub, _) in zip(rows, sc.weil):
            value = rc.conductor_via_induction(module, sub, rd).value
            require(row["direct"] == str(value) == row["induction"] and row["match"],
                    f"induction formula row for {row['module']}")
    else:
        rows = report["tables"]["series"]
        require(len(rows) == len(sc.series), "one row per series request")
        for row, req in zip(rows, sc.series):
            if req["op"] == "gauss":
                f = rc.scenario.parse_series_expression(req["expr"], sc.prime, sc.degree_cap)
                require(row["valuation"] == rc.gauss_valuation(f), "gauss valuation")
            elif req["op"] == "endo":
                product = Fraction(1)
                for s in req["scalars"]:
                    product *= Fraction(s)
                require(row["scalar"] == str(product), "endomorphism composition scalar")
