"""Batch front end: scenario ingestion, computation commands, invariant runner.

Exit codes: 0 success, 1 assertion/property failure, 2 invalid input.
Reports are deterministic; with --json they include the canonical scenario
echo and its digest, so re-running on the echo reproduces the report byte
for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .characters import artin_conductor, pair
from .conductors import conductor, induction_formula, module_character
from .errors import CheckFailure, InputError
from .exact import CycloNum
from .groups import conjugacy_classes
from .ramification import artin_character, bisection, i_gamma
from .scenario import SERIES_OPS, load_scenario, read_series_request, scenario_digest
from .series import DEFAULT_DEGREE_CAP, SeriesRingSpec, mult_endo
from .verify import bisection_mismatch, run_catalog_suites, run_random_bisection


# display decimals come from double precision; more digits show only noise
MAX_DECIMAL_DIGITS = 100
# one randomized bisection check takes about 2.3 ms, so 10,000 about 23 s (a
# `verify --random 42 10000` process, 2-vCPU machine, Python 3.11.7)
RANDOM_CHECKS_BOUND = 10_000


def _decimal(value, digits):
    z = value.approx() if isinstance(value, CycloNum) else complex(float(value))
    return f"{z.real:.{digits}f}{z.imag:+.{digits}f}i"


def _exact(value):
    if isinstance(value, CycloNum):
        ok, q = value.rational_part()
        return str(q) if ok else str(value)
    return str(value)


def _report(command, scenario=None):
    report = {"tool_version": __version__, "command": command}
    if scenario is not None:
        report["scenario"] = scenario.canonical
        report["scenario_digest"] = scenario_digest(scenario.canonical)
    report["tables"] = {}
    report["checks"] = []
    return report


def _headers(table):
    """Column names of a table in first-seen order."""
    return list(dict.fromkeys(key for row in table for key in row))


def _emit(report, args):
    tables = [t for t in report["tables"].values() if t]
    fh = None
    if args.csv and tables:  # opened before anything prints, so a refusal prints nothing
        try:
            fh = open(args.csv, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write CSV file {args.csv}: {exc.strerror}") from None
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        for name, table in report["tables"].items():
            if not table:
                continue
            print(f"[{name}]")
            headers = _headers(table)
            widths = [
                max(len(h), *[len(str(row.get(h, ""))) for row in table])
                for h in headers
            ]
            print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for row in table:
                print(
                    "  "
                    + "  ".join(
                        str(row.get(h, "")).ljust(w) for h, w in zip(headers, widths)
                    )
                )
        for check in report["checks"]:
            status = "pass" if check["status"] == "pass" else "FAIL"
            extra = ""
            if check.get("lhs") is not None:
                extra = f"  lhs={check['lhs']}"
                if check.get("rhs") is not None:
                    extra += f" rhs={check['rhs']}"
            print(f"check {check['name']}: {status}{extra}")
    if fh is not None:
        with fh:
            writer = csv.DictWriter(fh, fieldnames=_headers(tables[0]), restval="")
            writer.writeheader()
            for row in tables[0]:
                writer.writerow(row)


def _check(report, name, ok, lhs=None, rhs=None):
    report["checks"].append(
        {
            "name": name,
            "status": "pass" if ok else "fail",
            "lhs": lhs,
            "rhs": rhs,
        }
    )
    return ok


def cmd_bisect(args):
    scenario = load_scenario(args.file)
    rd = scenario.ramdata
    report = _report("bisect", scenario)
    ba = bisection(rd)
    a = artin_character(rd)
    class_of = {}
    for cls in conjugacy_classes(rd.group):
        for s in cls:
            class_of[s] = cls[0]
    rows = []
    for s in range(rd.group.order):
        rows.append(
            {
                "element": s,
                "class": class_of[s],
                "i_gamma": i_gamma(rd, s) if s else None,
                "artin": _exact(a.values[s]),
                "bA": _exact(ba.values[s]),
                "bA_decimal": _decimal(ba.values[s], args.decimal_digits),
                "provenance": "bisection",
            }
        )
    report["tables"]["bisection"] = rows
    mismatch = bisection_mismatch(rd)  # at the least failing element, if any
    _check(report, "bisection-identity-at-identity", mismatch is None or mismatch[0] != 0)
    _check(report, "bisection-identity", mismatch is None)
    _emit(report, args)
    return 0 if mismatch is None else 1


def cmd_conduct(args):
    scenario = load_scenario(args.file)
    rd = scenario.ramdata
    report = _report("conduct", scenario)
    rows = []
    failed = False
    for name, module in scenario.modules.items():
        chi = module_character(module)
        try:
            value = lhs = str(conductor(module, rd).value)  # the rational pairing (bA, chi)
            ok = True
        except CheckFailure as exc:
            value = f"invalid ({exc})"
            lhs = _exact(pair(bisection(rd), chi))
            ok = False
            failed = True
        artin = artin_conductor(rd, chi)
        rows.append(
            {
                "module": name,
                "rank": module.rank,
                "conductor": value,
                "artin_conductor": _exact(artin),
                "provenance": "pairing",
            }
        )
        _check(report, f"conductor-rational[{name}]", ok, lhs=lhs)
    report["tables"]["conductors"] = rows
    _emit(report, args)
    return 1 if failed else 0


def cmd_weil(args):
    scenario = load_scenario(args.file)
    rd = scenario.ramdata
    report = _report("weil", scenario)
    rows = []
    all_ok = True
    for module, sub, name in scenario.weil:
        direct, formula, v = induction_formula(module, sub, rd)
        ok = direct == formula
        all_ok = all_ok and ok
        rows.append(
            {
                "module": name,
                "subgroup": ",".join(map(str, sub.elements)),
                "rank": module.rank,
                "disc_valuation": v,
                "direct": str(direct),
                "induction": str(formula),
                "match": ok,
                "provenance": "pairing/induction",
            }
        )
        _check(
            report,
            f"induction-consistency[{name}|{','.join(map(str, sub.elements))}]",
            ok,
            lhs=str(direct),
            rhs=str(formula),
        )
    report["tables"]["weil"] = rows
    _emit(report, args)
    return 0 if all_ok else 1


def _int_arg(flag, text, minimum=None, maximum=None):
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"{flag} needs an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise InputError(f"{flag} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InputError(f"{flag} must be at most {maximum}, got {value}")
    return value


def cmd_verify(args):
    report = _report("verify")
    results = []
    if args.random:
        seed, count = args.random
        results += run_random_bisection(
            _int_arg("--random SEED", seed),
            _int_arg("--random N", count, minimum=1, maximum=RANDOM_CHECKS_BOUND),
        )
    if args.catalog or not args.random:
        results = run_catalog_suites() + results
    passed = sum(1 for _, ok, _ in results if ok)
    failed = len(results) - passed
    for name, ok, detail in results:
        if not ok:
            _check(report, name, False, lhs=detail or None)
    report["tables"]["summary"] = [
        {"checks": len(results), "passed": passed, "failed": failed}
    ]
    _emit(report, args)
    if not args.json:
        print(f"verify: {passed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _endo_eval_rows(scalars, p, degree_cap):
    ring = SeriesRingSpec(p, s_vars=("T",), degree_cap=degree_cap)
    return [
        {
            "op": "endo-eval",
            "scalar": str(r),
            "series": str(mult_endo(r, ring)),
            "provenance": "formal-multiplicative-group",
        }
        for r in scalars
    ]


def cmd_series(args):
    if args.sub == "run":
        scenario = load_scenario(args.file)
        report = _report("series", scenario)
        rows = [
            SERIES_OPS[req["op"]].row(req, scenario.prime, scenario.degree_cap)
            for req in scenario.series
        ]
    else:
        report = _report("series")
        op = SERIES_OPS[args.sub]
        raw = {key: getattr(args, key) for key in (*op.required, *op.optional)}
        req = read_series_request({"op": args.sub, **raw})
        if args.sub == "endo" and args.mode == "eval":
            rows = _endo_eval_rows(req["scalars"], args.p, args.degree_cap)
        elif args.sub == "wdiv":
            rows = [op.row(req, args.p, args.degree_cap, val_bound=args.val_bound)]
        else:
            rows = [op.row(req, args.p, args.degree_cap)]
    report["tables"]["series"] = rows
    _emit(report, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are InputErrors, which :func:`main` reports on one line; subparsers share it."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(
        prog="ramcond",
        description="Exact ramification invariants and base change conductors.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--decimal-digits", type=int, default=6, help="digits for display decimals"
    )
    parser.add_argument(
        "--degree-cap", type=int, default=DEFAULT_DEGREE_CAP, help="series truncation degree"
    )
    parser.add_argument("--csv", help="write the first table as CSV to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("bisect", cmd_bisect), ("conduct", cmd_conduct), ("weil", cmd_weil)):
        p = sub.add_parser(name, help=f"run {name} on a scenario file")
        p.add_argument("file")
        p.set_defaults(fn=fn)

    pv = sub.add_parser("verify", help="run the invariant suites")
    pv.add_argument("--catalog", action="store_true", help="run the built-in catalog")
    pv.add_argument(
        "--random",
        nargs=2,
        metavar=("SEED", "N"),
        help="run N randomized bisection checks",
    )
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("series", help="series kernel operations")
    ss = ps.add_subparsers(dest="sub", required=True)
    g = ss.add_parser("gauss")
    g.add_argument("expr")
    g.add_argument("--p", type=int, required=True)
    w = ss.add_parser("wdiv")
    w.add_argument("--g", required=True)
    w.add_argument("--f", required=True)
    w.add_argument("--z", default="Z")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--val-bound", type=int, default=32, dest="val_bound")
    e = ss.add_parser("endo")
    e.add_argument("mode", choices=["compose", "eval"])
    e.add_argument("scalars", nargs="+")
    e.add_argument("--p", type=int, required=True)
    d = ss.add_parser("dilate")
    d.add_argument("expr")
    d.add_argument("n", type=int)
    d.add_argument("--p", type=int, required=True)
    r = ss.add_parser("run")
    r.add_argument("file")
    for q in (g, w, e, d, r):
        q.set_defaults(fn=cmd_series)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if not 0 <= args.decimal_digits <= MAX_DECIMAL_DIGITS:
            raise InputError(
                f"--decimal-digits must be between 0 and {MAX_DECIMAL_DIGITS}, "
                f"got {args.decimal_digits}"
            )
        return args.fn(args)
    except SystemExit as exc:  # --help; a usage error is an InputError
        return 2 if exc.code not in (0, None) else 0
    except InputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
