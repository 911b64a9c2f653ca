from fractions import Fraction

import pytest

from ramcond.errors import InputError
from ramcond.scenario import (
    GROUP_ORDER_BOUND,
    TRIVIAL_RANK_BOUND,
    parse_rational,
    parse_scenario,
    parse_series_expression,
    scenario_digest,
)
from ramcond.series import gauss_valuation


def minimal(**extra):
    base = {
        "prime": 2,
        "group": {"cyclic": 3},
        "filtration": [],
        "omega": {"generator": 1, "exponent": 1},
    }
    base.update(extra)
    return base


def test_parse_rational_forms():
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("7") == 7
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("−2/5") == Fraction(-2, 5)  # unicode minus tolerated
    # one spelling per rational: Fraction takes most of these, the reader none
    for text in ("1.5x", "1_0", "٣", "+7", " 7", "7\n", ".5", "5.", "1/-2", "1e5"):
        with pytest.raises(InputError):
            parse_rational(text)
    with pytest.raises(InputError):
        parse_rational(1.5)


def test_scenario_minimal_roundtrip():
    sc = parse_scenario(minimal())
    assert sc.prime == 2
    assert sc.group.order == 3
    assert sc.ramdata.n == 3
    assert sc.canonical["group"] == {"cyclic": 3}
    assert scenario_digest(sc.canonical).startswith("sha256:")


def test_scenario_rejects_unknown_keys():
    with pytest.raises(InputError):
        parse_scenario(minimal(surprise=1))
    with pytest.raises(InputError):
        parse_scenario(minimal(modules=[{"name": "m", "kind": "regular", "junk": 0}]))


def test_scenario_size_budgets_admit_their_bounds():
    # one past each bound exits 2: see tests/test_cli.py::test_malformed_scenario_field_exit_2
    trivial = {"name": "t", "kind": "trivial", "rank": TRIVIAL_RANK_BOUND}
    sc = parse_scenario(minimal(prime=3, group={"cyclic": GROUP_ORDER_BOUND}, modules=[trivial]))
    assert sc.group.order == GROUP_ORDER_BOUND
    assert sc.modules["t"].rank == TRIVIAL_RANK_BOUND
    factors = [{"cyclic": 2}] * 7  # (C2)^7, one wild step at p = 2
    wild = [list(range(GROUP_ORDER_BOUND))]
    sc = parse_scenario(minimal(group={"product": factors}, filtration=wild, omega=None))
    assert sc.group.order == GROUP_ORDER_BOUND


def test_scenario_product_group_and_modules():
    sc = parse_scenario(
        minimal(
            group={"product": [{"cyclic": 2}, {"cyclic": 2}]},
            filtration=[[0, 1, 2, 3]],
            omega=None,
            modules=[
                {"name": "reg", "kind": "regular"},
                {"name": "t2", "kind": "trivial", "rank": 2},
                {"name": "m", "kind": "matrices", "matrices": {"1": [["-1"]], "2": [["1"]]}},
            ],
        )
    )
    assert set(sc.modules) == {"reg", "t2", "m"}
    assert sc.modules["reg"].rank == 4
    assert sc.modules["t2"].rank == 2
    assert sc.modules["m"].action[1] == ((Fraction(-1),),)


def test_scenario_duplicate_module_names_rejected():
    with pytest.raises(InputError):
        parse_scenario(
            minimal(
                modules=[
                    {"name": "m", "kind": "regular"},
                    {"name": "m", "kind": "trivial", "rank": 1},
                ]
            )
        )


def test_scenario_weil_module_lives_on_subgroup():
    sc = parse_scenario(
        minimal(
            weil=[{"module": {"name": "u", "kind": "trivial", "rank": 1}, "subgroup": [0]}]
        )
    )
    (module, sub, name) = sc.weil[0]
    assert name == "u"
    assert sub.order == 1
    assert module.group.order == 1


def test_scenario_omega_as_coset_map():
    sc = parse_scenario(
        minimal(omega={"cosets": {"0": 0, "1": 2, "2": 1}})
    )
    assert sc.ramdata.omega_exp == (0, 2, 1)
    with pytest.raises(InputError):
        parse_scenario(minimal(omega={"cosets": {"0": 0, "1": 1, "2": 1}}))


def test_scenario_explicit_table_group():
    sc = parse_scenario(
        {
            "prime": 3,
            "group": {"table": [[0, 1], [1, 0]]},
            "filtration": [],
            "omega": {"generator": 1, "exponent": 1},
        }
    )
    assert sc.group.order == 2
    assert sc.ramdata.n == 2


def test_scenario_weil_matrices_keyed_by_parent_ids():
    sc = parse_scenario(
        {
            "prime": 2,
            "group": {"cyclic": 4},
            "filtration": [[0, 1, 2, 3], [0, 2], [0, 2]],
            "omega": None,
            "weil": [
                {
                    "module": {
                        "name": "s",
                        "kind": "matrices",
                        "matrices": {"2": [["-1"]]},
                    },
                    "subgroup": [0, 2],
                }
            ],
        }
    )
    (module, sub, _) = sc.weil[0]
    assert module.action[1] == ((Fraction(-1),),)  # parent id 2 is sub id 1
    with pytest.raises(InputError):
        parse_scenario(
            {
                "prime": 2,
                "group": {"cyclic": 4},
                "filtration": [[0, 1, 2, 3], [0, 2], [0, 2]],
                "omega": None,
                "weil": [
                    {
                        "module": {
                            "name": "s",
                            "kind": "matrices",
                            "matrices": {"1": [["-1"]]},  # 1 is outside {0, 2}
                        },
                        "subgroup": [0, 2],
                    }
                ],
            }
        )


def test_scenario_omega_rejects_mixed_forms():
    with pytest.raises(InputError):
        parse_scenario(
            minimal(omega={"cosets": {"0": 0, "1": 1, "2": 2}, "generator": 1})
        )
    with pytest.raises(InputError):
        parse_scenario(minimal(omega={"generator": 1}))  # missing exponent


def test_expression_precedence_and_valuation():
    f = parse_series_expression("p^-2*S + 3*T", 3)
    assert gauss_valuation(f) == -2
    g = parse_series_expression("(1 + S)*(1 - S)", 5, degree_cap=8)
    h = parse_series_expression("1 - S^2", 5, degree_cap=8)
    assert g == h


def test_expression_unary_minus_and_powers():
    f = parse_series_expression("-S^2", 2)
    g = parse_series_expression("0 - S*S", 2, ring=f.ring)
    assert f == g
    const = parse_series_expression("2^-3", 2)
    assert const.constant_term() == Fraction(1, 8)


def test_expression_errors():
    with pytest.raises(InputError):
        parse_series_expression("S +", 2)
    with pytest.raises(InputError):
        parse_series_expression("(S", 2)
    with pytest.raises(InputError):
        parse_series_expression("S^-1", 2)  # negative power of a non-constant
    with pytest.raises(InputError):
        parse_series_expression("S $ T", 2)


def test_expression_exponent_budget():
    assert gauss_valuation(parse_series_expression("p^256*S", 3)) == 256
    assert gauss_valuation(parse_series_expression("p^-256*S", 3)) == -256
    for text in ("p^257*S", "p^-257*S", "2^10000000000*S", "S^100000"):
        with pytest.raises(InputError) as excinfo:
            parse_series_expression(text, 3)
        assert str(excinfo.value).startswith("exponent must lie in -256..256, got ")


def test_t_block_convention():
    f = parse_series_expression("S*T + T2", 2)
    assert f.ring.t_vars == ("T", "T2")
    assert f.ring.s_vars == ("S",)
