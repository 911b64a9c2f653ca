import contextlib
import io
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcond.cli import main
from ramcond.conductors import induction_formula
from ramcond.scenario import load_scenario, parse_series_expression
from ramcond.series import NESTING_BOUND

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out) if out else None, out


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def test_bisect_tame_cyclic3(capsys):
    code, report, _ = run_json(capsys, "bisect", scenario_path("tame_cyclic3.json"))
    assert code == 0
    rows = report["tables"]["bisection"]
    assert [r["artin"] for r in rows] == ["2", "-1", "-1"]
    assert rows[0]["bA"] == "1"
    assert rows[1]["bA"] == "-2/3 - 1/3*ζ_3"
    assert rows[2]["bA"] == "-1/3 + 1/3*ζ_3"
    assert rows[1]["i_gamma"] == 1
    assert all(c["status"] == "pass" for c in report["checks"])


def test_bisect_wild_cyclic2(capsys):
    code, report, _ = run_json(capsys, "bisect", scenario_path("wild_cyclic2.json"))
    assert code == 0
    rows = report["tables"]["bisection"]
    assert [r["bA"] for r in rows] == ["1", "-1"]
    assert [r["artin"] for r in rows] == ["2", "-2"]



@pytest.mark.parametrize("wrong_at, statuses", [(0, ["fail", "fail"]), (2, ["pass", "fail"])])
def test_bisect_identity_checks_name_the_identity_once(capsys, monkeypatch, wrong_at, statuses):
    from ramcond import cli, verify
    from ramcond.characters import ClassFunction
    from ramcond.ramification import bisection

    def wrong(rd):
        values = list(bisection(rd).values)
        values[wrong_at] = values[wrong_at] + 1
        return ClassFunction(rd.group, values)

    monkeypatch.setattr(cli, "bisection", wrong)
    monkeypatch.setattr(verify, "bisection", wrong)
    code, report, _ = run_json(capsys, "bisect", scenario_path("c4_tower.json"))
    assert code == 1
    checks = {c["name"]: c["status"] for c in report["checks"]}
    assert [checks["bisection-identity-at-identity"], checks["bisection-identity"]] == statuses

def test_conduct_tame_cyclic3(capsys):
    code, report, _ = run_json(capsys, "conduct", scenario_path("tame_cyclic3.json"))
    assert code == 0
    rows = {r["module"]: r for r in report["tables"]["conductors"]}
    assert rows["regular"]["conductor"] == "1"
    assert rows["trivial"]["conductor"] == "0"
    assert rows["faithful2"]["conductor"] == "1"
    assert rows["regular"]["artin_conductor"] == "2"
    assert rows["faithful2"]["artin_conductor"] == "2"


def test_conduct_wild_cyclic2(capsys):
    code, report, _ = run_json(capsys, "conduct", scenario_path("wild_cyclic2.json"))
    assert code == 0
    rows = {r["module"]: r for r in report["tables"]["conductors"]}
    assert rows["sign"]["conductor"] == "1"
    assert rows["sign"]["artin_conductor"] == "2"
    assert rows["trivial"]["conductor"] == "0"


def test_conduct_c4_tower(capsys):
    code, report, _ = run_json(capsys, "conduct", scenario_path("c4_tower.json"))
    assert code == 0
    rows = {r["module"]: r for r in report["tables"]["conductors"]}
    assert rows["regular"]["conductor"] == "4"
    assert rows["trivial"]["conductor"] == "0"
    assert rows["rotation"]["conductor"] == "3"
    assert rows["regular"]["artin_conductor"] == "8"
    assert rows["rotation"]["artin_conductor"] == "6"


def test_conduct_failure_reports_the_pairing_as_its_lhs(capsys, monkeypatch):
    """A refused conductor's check shows the pairing (bA, chi), which is the
    conductor value every passing check shows."""
    from ramcond import cli
    from ramcond.errors import CheckFailure

    def refuse(module, rd):
        raise CheckFailure("forced")

    _, passing, _ = run_json(capsys, "conduct", scenario_path("c4_tower.json"))
    monkeypatch.setattr(cli, "conductor", refuse)
    code, report, _ = run_json(capsys, "conduct", scenario_path("c4_tower.json"))
    assert code == 1
    assert {r["conductor"] for r in report["tables"]["conductors"]} == {"invalid (forced)"}
    assert [c["status"] for c in report["checks"]] == ["fail"] * 3
    assert [c["lhs"] for c in report["checks"]] == [r["conductor"] for r in passing["tables"]["conductors"]]


def test_weil_reports(capsys):
    code, report, _ = run_json(capsys, "weil", scenario_path("tame_cyclic3.json"))
    assert code == 0
    (row,) = report["tables"]["weil"]
    assert row["direct"] == "1" and row["induction"] == "1"
    assert row["disc_valuation"] == 2 and row["match"] is True

    code, report, _ = run_json(capsys, "weil", scenario_path("c4_tower.json"))
    assert code == 0
    rows = report["tables"]["weil"]
    assert [(r["module"], r["direct"], r["induction"]) for r in rows] == [
        ("unit", "1", "1"),
        ("halfsign", "3", "3"),
        ("unit", "4", "4"),
    ]


def test_series_subcommands(capsys):
    code, report, _ = run_json(capsys, "series", "gauss", "p^-2*S + 3*T", "--p", "3")
    assert code == 0
    assert report["tables"]["series"][0]["valuation"] == -2

    code, report, _ = run_json(
        capsys, "series", "wdiv", "--g", "Z^3", "--f", "Z^2-2", "--p", "2"
    )
    assert code == 0
    row = report["tables"]["series"][0]
    assert row["q"] == "Z" and row["r"] == "2*Z"

    code, report, _ = run_json(capsys, "series", "endo", "compose", "2", "3", "--p", "2")
    assert code == 0
    assert report["tables"]["series"][0]["scalar"] == "6"

    code, report, _ = run_json(capsys, "series", "dilate", "p^-2*S^2", "0", "--p", "2")
    assert code == 0
    assert report["tables"]["series"][0]["member"] is True

    code, report, _ = run_json(capsys, "series", "dilate", "p^-2*S^2", "1", "--p", "2")
    assert code == 0
    assert report["tables"]["series"][0]["member"] is False


def test_s_exact_division_is_exact_whatever_the_valuation_bound(capsys):
    """The divisor Z + S has no pure Z-term below Z, so the division is one
    triangular solve: the quotient is exact even at --val-bound 1, with the
    q and r that the successive approximation found before it stopped."""
    argv = ["series", "wdiv", "--g", "3^5*Z^2", "--f", "Z+S", "--p", "3", "--val-bound", "1"]
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    (row,) = report["tables"]["series"]
    assert row["q"] == "243*Z - 243*S" and row["r"] == "243*S^2"
    assert row["certified_valuation"] == "exact"
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1].split() == [
        "wdiv", "243*Z", "-", "243*S", "243*S^2", "exact", "weierstrass-division"
    ]


def nested(depth):
    return "(" * depth + "S" + ")" * depth


# digits are ASCII only: "²" and "٢" are digits to str.isdigit; parentheses
# nest at most NESTING_BOUND deep
@pytest.mark.parametrize(
    "expr",
    [
        "p^-2*(S",
        "2²",
        "٢*T",
        pytest.param(nested(NESTING_BOUND + 1), id="nested-past-the-budget"),
        pytest.param(nested(250), id="nested-250"),
    ],
)
def test_series_malformed_expression_exit_2(capsys, expr):
    code = main(["series", "gauss", expr, "--p", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["wdiv", "--g", nested(250), "--f", "Z^2-2", "--p", "2"],
        ["dilate", nested(250), "0", "--p", "2"],
    ],
)
def test_series_subcommands_refuse_deep_nesting(capsys, argv):
    assert main(["series", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid input: parentheses nest deeper than {NESTING_BOUND} in series expression\n"


def test_series_run_refuses_deep_nesting(tmp_path, capsys):
    doc = load_json("c4_tower.json")
    doc["series"][0]["expr"] = nested(250)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["series", "run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_nesting_at_the_budget_and_long_sign_runs_parse(capsys):
    code, report, _ = run_json(capsys, "series", "gauss", nested(NESTING_BOUND), "--p", "3")
    assert code == 0 and report["tables"]["series"][0]["valuation"] == 0
    code, report, _ = run_json(capsys, "series", "gauss", "S+" + "-" * 1500 + "S", "--p", "3")
    assert code == 0 and report["tables"]["series"][0]["valuation"] == 0
    s = parse_series_expression("S", 3)
    assert parse_series_expression(nested(NESTING_BOUND), 3) == s
    assert parse_series_expression("S+" + "-" * 1500 + "S", 3) == s + s
    assert parse_series_expression("S+" + "-" * 1501 + "S", 3) == s - s
    assert parse_series_expression("-" * 1501 + "S^2", 3) == -(s * s)


def test_verify_catalog(capsys):
    code, report, _ = run_json(capsys, "verify", "--catalog")
    assert code == 0
    (summary,) = report["tables"]["summary"]
    assert summary["failed"] == 0
    assert summary["passed"] == summary["checks"] > 200


def test_verify_random(capsys):
    code, report, _ = run_json(capsys, "verify", "--random", "42", "25")
    assert code == 0
    (summary,) = report["tables"]["summary"]
    assert summary["checks"] == 25 and summary["failed"] == 0


def test_invalid_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "prime": 2,
                "group": {"cyclic": 3},
                "filtration": [[0, 1, 2]],
                "omega": {"generator": 1, "exponent": 1},
            }
        )
    )
    assert main(["bisect", str(bad)]) == 2

    not_json = tmp_path / "nope.json"
    not_json.write_text("this is not json")
    assert main(["conduct", str(not_json)]) == 2

    unknown_key = tmp_path / "extra.json"
    unknown_key.write_text(
        json.dumps(
            {
                "prime": 2,
                "group": {"cyclic": 2},
                "filtration": [],
                "omega": {"generator": 1, "exponent": 1},
                "surprise": 1,
            }
        )
    )
    assert main(["bisect", str(unknown_key)]) == 2


@pytest.mark.parametrize(
    "raw",
    [b'{"prime": "\xff"}', b"[" * 100000 + b"]" * 100000],
    ids=["not-utf8", "deep-nesting"],
)
def test_unreadable_scenario_exit_2(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert main(["series", "run", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid input:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--random", "x", "3"],
        ["verify", "--random", "1", "-5"],
        ["verify", "--random", "1", "0"],
        ["--decimal-digits", "-3", "bisect", os.path.join(SCENARIOS, "tame_cyclic3.json")],
        # beyond the prime budget: refused before any trial division
        ["series", "gauss", "S", "--p", "1000000000000000000000000000057"],
        # beyond the series budgets: degree cap 1..32, valuation bound 1..256
        ["--degree-cap", "100000", "series", "endo", "eval", "3", "--p", "2"],
        ["--degree-cap", "33", "series", "gauss", "S", "--p", "2"],
        ["series", "wdiv", "--g", "Z^3", "--f", "2+Z+Z^2", "--p", "2", "--val-bound", "3000"],
        ["series", "wdiv", "--g", "Z^3", "--f", "2+Z+Z^2", "--p", "2", "--val-bound", "-5"],
        # beyond the exponent budget -256..256: refused before any power is taken
        ["series", "gauss", "p^100000*S", "--p", "3"],
        ["series", "gauss", "2^10000000000*S", "--p", "3"],
        ["series", "wdiv", "--g", "p^-257*Z^3", "--f", "2+Z+Z^2", "--p", "2"],
        # beyond Python's 4,300-digit limit for int()
        ["series", "gauss", "p^" + "9" * 5000 + "*S", "--p", "3"],
        # beyond the budget of 10,000 randomized checks: refused before any runs
        ["verify", "--random", "1", "10001"],
    ],
)
def test_bad_flag_values_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid input:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "gauss", "S", "--p", "foo"],
        ["--decimal-digits", "x", "bisect", "F"],
        ["bisect"],
        ["nosuch"],
        ["verify", "--random", "1"],
    ],
)
def test_usage_errors_exit_2_on_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid input:")
    assert captured.err.count("\n") == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ramcond")


def load_json(name):
    with open(scenario_path(name), encoding="utf-8") as fh:
        return json.load(fh)


class JsonLiteral:
    """A JSON value given as its text, for what ``json.dumps`` cannot write.

    Python refuses to convert an int of more than 4,300 digits to a string.
    """

    PLACEHOLDER = "@json-literal@"

    def __init__(self, text):
        self.text = text


@pytest.mark.parametrize(
    "key, value",
    [
        ("series", [{"op": "dilate", "expr": "S", "n": "3"}]),
        ("series", [{"op": "endo", "scalars": []}]),
        ("series", [{"op": "gauss", "expr": 5}]),
        ("series", [{"op": "endo", "scalars": "23"}]),
        ("series", [{"op": "dilate", "expr": "S", "n": 1.5}]),
        ("series", [{"op": "dilate", "expr": "S", "n": True}]),
        ("series", [{"op": "endo", "scalars": [True]}]),
        ("series", [{"op": "gauss", "expr": "S", "r": "1"}]),
        ("series", [{"op": "gauss", "expr": "S", "s": "1"}]),
        ("series", [{"op": ["gauss"], "expr": "S"}]),
        ("omega", {"generator": 1, "exponent": 1.7}),
        ("omega", {"generator": 1, "exponent": True}),
        ("omega", {"generator": 1, "exponent": "x"}),
        ("omega", {"cosets": {"0": 0, "a": 1, "2": 2}}),
        ("omega", {"generator": 3, "exponent": 1}),
        ("modules", [{"name": "m", "kind": "matrices", "matrices": {"x": [["1"]]}}]),
        ("filtration", [[0, 1.5]]),
        ("weil", [{"module": {"name": "u", "kind": "trivial"}, "subgroup": [0.9]}]),
        ("group", {"product": [{"cyclic": True}, {"cyclic": 3}]}),
        ("modules", [{"name": "t", "kind": "trivial", "rank": True}]),
        ("group", {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1.0]]}),
        ("precision", {"degree_cap": True}),
        ("precision", {"adapt": 8}),
        ("filtration", [["0", "1"]]),
        ("weil", [{"module": {"name": "u", "kind": "trivial"}, "subgroup": 0}]),
        ("group", {"table": "x"}),
        # element-id keys must be canonical ASCII: no space, sign, Arabic-Indic digit or zero pad
        *(
            ("modules", [{"name": "m", "kind": "matrices", "matrices": {k: [["0", "-1"], ["1", "-1"]]}}])
            for k in (" 1", "+1", "١", "01")
        ),
        *(("omega", {"cosets": {k: 0, "1": 1, "2": 2}}) for k in (" 0", "+0", "٠")),
        # each matrix is a list of rows, keyed by an element id of the group
        *(
            ("modules", [{"name": "m", "kind": "matrices", "matrices": mats}])
            for mats in ({"1": 5}, {"1": [5]}, {"7": [["1"]]}, {"1": "1"}, {"-1": [["1"]]})
        ),
        # beyond the prime budget: refused before any trial division
        ("prime", 1000000000000000000000000000057),
        # beyond the degree budget, with no series request to build a ring
        ("precision", {"degree_cap": 100000}),
        ("precision", {"degree_cap": 33}),
        # generator matrices must be square
        *(
            ("modules", [{"name": "m", "kind": "matrices", "matrices": {"1": mat}}])
            for mat in ([["1", "0"]], [["1"], ["0"]])
        ),
        # a matrix given for the identity must be the identity matrix
        ("modules", [{"name": "m", "kind": "matrices", "matrices": {"0": [["-1"]], "1": [["1"]]}}]),
        # an integer beyond Python's 4,300-digit limit for int()
        ("prime", JsonLiteral("9" * 5000)),
        # beyond the group order budget 128: refused before a table of that order is built
        ("group", {"cyclic": 5000}),
        ("group", {"cyclic": 129}),
        ("group", {"product": [{"cyclic": 2}, {"cyclic": 8}, {"cyclic": 9}]}),
        ("group", {"table": [[(i + j) % 129 for j in range(129)] for i in range(129)]}),
        # beyond the trivial rank budget 16
        ("modules", [{"name": "t", "kind": "trivial", "rank": 17}]),
        ("weil", [{"module": {"name": "u", "kind": "trivial", "rank": 10**6}, "subgroup": [0]}]),
        # beyond the product budget of 7 factors, even of order 1
        ("group", {"product": [{"cyclic": 3}] + [{"cyclic": 1}] * 7}),
        # exponent notation, and one past the endo budgets of 8 scalars and 16 digits
        ("series", [{"op": "endo", "scalars": ["1e100000000"]}]),
        ("modules", [{"name": "m", "kind": "matrices", "matrices": {"1": [["1E0"]]}}]),
        ("series", [{"op": "endo", "scalars": ["3"] * 9}]),
        ("series", [{"op": "endo", "scalars": ["1/" + "3" * 17]}]),
        # a rational has one spelling: no digit separators, no non-ASCII digits
        *(
            ("modules", [{"name": "m", "kind": "matrices", "matrices": {"1": mat}}])
            for mat in ([["0", "-1"], ["0_1", "-1"]], [["0", "-1"], ["١", "-1"]])
        ),
        ("series", [{"op": "endo", "scalars": ["1_0"]}]),
        ("series", [{"op": "endo", "scalars": ["٣"]}]),
    ],
)
def test_malformed_scenario_field_exit_2(tmp_path, capsys, key, value):
    # a wild filtration needs a wild base; every other field fits the tame one
    base = "wild_cyclic2.json" if key == "filtration" else "tame_cyclic3.json"
    bad = tmp_path / "bad.json"
    if isinstance(value, JsonLiteral):
        text = json.dumps({**load_json(base), key: JsonLiteral.PLACEHOLDER})
        bad.write_text(text.replace(json.dumps(JsonLiteral.PLACEHOLDER), value.text))
    else:
        bad.write_text(json.dumps({**load_json(base), key: value}))
    assert main(["series", "run", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid input:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "mode, scalars",
    [
        # exponent notation: the reader would build 10**100000000
        ("eval", ["1e100000000"]),
        ("compose", ["2", "3E2"]),
        # one past the endo budgets: 9 scalars, or 17 digits above or below the bar
        ("compose", ["3"] * 9),
        ("eval", ["1" + "0" * 16]),
        ("eval", ["1/" + "3" * 17]),
        ("eval", ["9" * 1000]),
        # spellings Fraction takes but a rational string does not have
        ("compose", ["1_0", "٣"]),
        ("eval", ["+3"]),
        ("eval", [" 3"]),
    ],
)
def test_series_endo_refusals_exit_2(capsys, mode, scalars):
    code = main(["--degree-cap", "32", "series", "endo", mode, *scalars, "--p", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid input:") and captured.err.count("\n") == 1


def test_series_endo_at_the_budget(capsys):
    top = "9" * 16
    r = f"{top}/{int(top) - 2}"
    code, report, _ = run_json(capsys, "--degree-cap", "32", "series", "endo", "eval", r, "--p", "2")
    assert code == 0
    assert report["tables"]["series"][0]["series"].endswith("*T^32")
    scalars = ["3"] * 7 + [top]
    code, report, _ = run_json(capsys, "series", "endo", "compose", *scalars, "--p", "2")
    assert code == 0
    assert report["tables"]["series"][0]["scalar"] == str(3**7 * int(top))


def _subcommand_argv(req, p, degree_cap):
    op = req["op"]
    if op == "gauss":
        args = [req["expr"]]
    elif op == "wdiv":
        args = ["--g", req["g"], "--f", req["f"], "--z", req.get("z", "Z")]
    elif op == "endo":
        args = ["compose", *req["scalars"]]
    else:
        args = [req["expr"], str(req["n"])]
    return ["--degree-cap", str(degree_cap), "series", op, *args, "--p", str(p)]


def test_series_run_rows_match_subcommands(capsys):
    spec = load_json("c4_tower.json")
    code, report, _ = run_json(capsys, "series", "run", scenario_path("c4_tower.json"))
    assert code == 0
    rows = report["tables"]["series"]
    assert len(rows) == len(spec["series"]) == 4
    for req, row in zip(spec["series"], rows):
        argv = _subcommand_argv(req, spec["prime"], spec["precision"]["degree_cap"])
        code, sub_report, _ = run_json(capsys, *argv)
        assert code == 0
        assert sub_report["tables"]["series"] == [row]


@pytest.mark.parametrize(
    "name", ["tame_cyclic3.json", "wild_cyclic2.json", "c4_tower.json"]
)
def test_weil_table_reads_induction_formula(capsys, name):
    code, report, _ = run_json(capsys, "weil", scenario_path(name))
    assert code == 0
    scenario = load_scenario(scenario_path(name))
    rows = report["tables"]["weil"]
    assert len(rows) == len(scenario.weil)
    for row, (module, sub, _) in zip(rows, scenario.weil):
        direct, formula, v = induction_formula(module, sub, scenario.ramdata)
        assert row["direct"] == str(direct)
        assert row["induction"] == str(formula)
        assert row["disc_valuation"] == v
        assert row["match"] == (direct == formula)


def test_missing_file_exit_2(capsys):
    assert main(["bisect", "/nonexistent/path.json"]) == 2


@pytest.mark.parametrize(
    "name", ["tame_cyclic3.json", "wild_cyclic2.json", "c4_tower.json"]
)
@pytest.mark.parametrize("command", ["bisect", "conduct", "weil"])
def test_report_roundtrip_byte_exact(tmp_path, capsys, name, command):
    code, report, raw = run_json(capsys, command, scenario_path(name))
    assert code == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(report["scenario"]), encoding="utf-8")
    code2, report2, raw2 = run_json(capsys, command, str(echo))
    assert code2 == 0
    assert raw == raw2
    assert report["scenario_digest"] == report2["scenario_digest"]


def test_csv_export(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["conduct", scenario_path("tame_cyclic3.json")]) == 0
    plain = capsys.readouterr()
    code = main(["--csv", str(out), "conduct", scenario_path("tame_cyclic3.json")])
    assert capsys.readouterr() == plain  # the report is the one printed without --csv
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("module,rank,conductor")
    assert len(lines) == 4


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
def test_csv_export_to_an_unwritable_path_exit_2(tmp_path, capsys, target):
    path = tmp_path / target
    code = main(["--csv", str(path), "bisect", scenario_path("c4_tower.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid input: cannot write CSV file {path}: ")
    assert captured.err.count("\n") == 1


def test_degree_cap_flag(capsys):
    code, report, _ = run_json(
        capsys, "--degree-cap", "16", "series", "gauss", "T^20", "--p", "2"
    )
    assert code == 0
    assert report["tables"]["series"][0]["valuation"] == "inf"  # beyond the window
    code, report, _ = run_json(
        capsys, "--degree-cap", "24", "series", "gauss", "T^20", "--p", "2"
    )
    assert code == 0
    assert report["tables"]["series"][0]["valuation"] == 0


def test_decimal_digits_flag(capsys):
    code, report, _ = run_json(
        capsys, "--decimal-digits", "3", "bisect", scenario_path("tame_cyclic3.json")
    )
    assert code == 0
    assert report["tables"]["bisection"][1]["bA_decimal"] == "-0.500-0.289i"


# The fuzz pool: JSON values of every kind, at sizes the scenario budgets must refuse.
FUZZ_POOL = [
    None, True, False,
    0, 1, -1, 2, 3, 7, 64, 10**6, 10**30, -(10**30),
    0.0, 0.5, 1.0, -2.5, 1e300,
    "", "0", "1/2", "x", "ζ_3", "\x00", "p^-9999*S", "Z^3", "9" * 400, nested(250),
    [], [[]], [0], [0, 1], [[0, 1], [1, 0]], [None, "1"], [[[[0]]]],
    {}, {"": None}, {"cyclic": 3}, {"1": [["1"]]}, {"a": {"b": [{}]}},
]
FUZZ_STRINGS = [value for value in FUZZ_POOL if isinstance(value, str)]
SCENARIO_DOCS = [load_json(name) for name in sorted(os.listdir(SCENARIOS))]


def _node_paths(node, path=()):
    """Paths (key and index tuples) of every node below the root."""
    items = ()
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = doc.copy()
    doc[path[0]] = _replace(doc[path[0]], path[1:], value)
    return doc


# Hypothesis raises the recursion limit while a test runs; the fuzzed calls
# run at the limit a ramcond process has, read here at import.
PROCESS_RECURSION_LIMIT = sys.getrecursionlimit()
SHIPPED_STRINGS = [
    (doc, path)
    for doc in SCENARIO_DOCS
    for path in _node_paths(doc)
    if isinstance(_node_at(doc, path), str)
]
COMMANDS = ["bisect", "conduct", "weil", "series"]


@st.composite
def mutated_scenarios(draw):
    """(doc, command): a shipped scenario with one or two nodes replaced, and a command to run.

    The first node is a string node drawn over every shipped scenario, the
    second any node of the result.  A string node gets a pool string, so the
    values aimed at expressions, rationals and names reach them; any other
    node gets any pool value.  Only ``series run`` parses the series
    requests, so a changed series section runs it; otherwise the command is
    drawn.
    """
    doc, path = draw(st.sampled_from(SHIPPED_STRINGS))
    touched = set()
    for k in range(draw(st.integers(1, 2))):
        if k:
            path = draw(st.sampled_from(list(_node_paths(doc))))
        pool = FUZZ_STRINGS if isinstance(_node_at(doc, path), str) else FUZZ_POOL
        doc = _replace(doc, path, draw(st.sampled_from(pool)))
        touched.add(path[0])
    return doc, "series" if "series" in touched else draw(st.sampled_from(COMMANDS))


@given(mutated_scenarios(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fuzzed_scenarios_keep_the_exit_contract(tmp_path_factory, mutated, as_json):
    doc, command = mutated
    path = tmp_path_factory.getbasetemp() / "fuzzed-scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--json"] * as_json + (["series", "run"] if command == "series" else [command])
    out, err = io.StringIO(), io.StringIO()
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(PROCESS_RECURSION_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
    finally:
        sys.setrecursionlimit(raised)
    assert code in (0, 1, 2), (doc, argv)
    if code == 2:
        assert out.getvalue() == "", (doc, argv)
        assert err.getvalue().startswith("error: invalid input:"), (doc, argv)
        assert err.getvalue().count("\n") == 1, (doc, argv)
