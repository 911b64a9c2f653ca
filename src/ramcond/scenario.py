"""Scenario files: strict JSON schema, canonicalization and a tiny series grammar.

All rationals travel as strings ("-1/3") so no floats ever enter the exact
pipeline.  Unknown keys are rejected.  The canonical form of a scenario is
what reports echo and what the scenario digest is computed over, so that
re-ingesting an echoed scenario reproduces reports byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import inf
from typing import Callable, NamedTuple

from .conductors import module_from_generators, regular_module, trivial_module
from .errors import InputError
from .groups import FiniteGroup, make_cyclic, make_product, subgroup
from .ramification import ram_data
from .series import (
    DEFAULT_DEGREE_CAP,
    EXPONENT_BOUND,
    NESTING_BOUND,
    MixedSeries,
    SeriesRingSpec,
    dilatation_member,
    endo_apply,
    endo_to_scalar,
    gauss_valuation,
    mult_endo,
    weierstrass_divide,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "scenario_digest",
    "parse_rational",
    "parse_series_expression",
    "SeriesOp",
    "SERIES_OPS",
    "read_series_request",
]


# Size budgets.  A Cayley table of order 128 is built and validated in at
# most about 15 ms: C2^7, whose greedy generating set is the longest, takes
# that long, and C128 about 5 ms.  A trivial module of rank 16 induced from
# the trivial subgroup of such a group has rank 2048; with its conductors it
# takes about 1 s.  Seven
# factors of order 2 already reach order 128, and factors of order 1 add
# nothing to the order, so a product takes at most log2(128) = 7 factors.
GROUP_ORDER_BOUND = 128
PRODUCT_FACTOR_BOUND = 7
TRIVIAL_RANK_BOUND = 16
# An endo request takes at most 8 scalars of at most 16 digits over 16 digits:
# at cap 32, eight equal such fractions compose in about 0.8 s, and [r](T) has
# coefficients of at most 32 * 17 + 36 digits, which Python prints.
SCALAR_COUNT_BOUND = 8
SCALAR_DIGITS_BOUND = 16


def _check_order(n, where):
    if n > GROUP_ORDER_BOUND:
        raise InputError(f"{where}: group order must be at most {GROUP_ORDER_BOUND}, got {n}")


# The accepted spellings of a rational: "7", "-1/3" and "0.25", ASCII digits
# only, with "-" or U+2212 as the minus sign.  Fraction alone also takes
# "1_0", "+7", " 7", "٣" and "1e5", which would give one rational several
# spellings (and "1e100000000" an unbounded integer).
_RATIONAL_FORM = re.compile(r"[-−]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_rational(text):
    """Parse an exact rational written as "7", "-1/3" or "0.25"; any other spelling is refused."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"rationals must be strings, got {text!r}")
    if not _RATIONAL_FORM.fullmatch(text):
        raise InputError(f'bad rational {text!r}: write it as "7", "-1/3" or "0.25"')
    try:
        return Fraction(text.replace("−", "-"))
    except (ValueError, ZeroDivisionError) as exc:  # beyond the int digit limit, or "1/0"
        raise InputError(f"bad rational {text!r}: {exc}") from None


def _read_int(value, where):
    """An integer field; bools and floats are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} must be an integer, got {value!r}")
    return value


def _read_ids(value, where):
    """A list of element ids, each a JSON integer."""
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list of element ids")
    return [_read_int(x, f"{where} entry") for x in value]


def _read_id_key(key, where):
    """An element id written as a JSON object key, spelled canonically: "3", not "03"."""
    try:
        value = int(key)
    except (TypeError, ValueError):
        value = None
    if value is None or not key.isascii() or str(value) != key:
        raise InputError(f"{where}: key {key!r} is not an element id")
    return value


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InputError(f"{where}: missing keys {sorted(missing)}")


def _parse_group(spec):
    _require_keys(spec, {"cyclic", "product", "table"}, set(), "group")
    if len(spec) != 1:
        raise InputError("group: give exactly one of cyclic | product | table")
    if "cyclic" in spec:
        n = _read_int(spec["cyclic"], "group.cyclic")
        if n < 1:
            raise InputError("group.cyclic must be a positive integer")
        _check_order(n, "group.cyclic")
        return make_cyclic(n)
    if "product" in spec:
        factors = spec["product"]
        if not isinstance(factors, list) or len(factors) < 2:
            raise InputError("group.product needs at least two factors")
        if len(factors) > PRODUCT_FACTOR_BOUND:
            raise InputError(
                f"group.product takes at most {PRODUCT_FACTOR_BOUND} factors, got {len(factors)}"
            )
        grp = _parse_group(factors[0])
        for sub in factors[1:]:
            factor = _parse_group(sub)
            _check_order(grp.order * factor.order, "group.product")
            grp = make_product(grp, factor)
        return grp
    table = spec["table"]
    if not isinstance(table, list):
        raise InputError("group.table must be a list of rows")
    _check_order(len(table), "group.table")
    rows = [_read_ids(row, "group.table row") for row in table]
    return FiniteGroup(rows, name="table")


class Scenario:
    """A parsed, validated scenario plus its canonical JSON form."""

    def __init__(self, prime, group, ramdata, modules, weil, series, precision, canonical):
        self.prime = prime
        self.group = group
        self.ramdata = ramdata
        self.modules = modules  # name -> CharModule
        self.weil = weil  # list of (module-on-subgroup, Subgroup, spec-name)
        self.series = series  # list of request dicts
        self.precision = precision
        self.canonical = canonical

    @property
    def degree_cap(self):
        return self.precision.get("degree_cap", DEFAULT_DEGREE_CAP)


_TOP_KEYS = {"prime", "group", "filtration", "omega", "modules", "weil", "series", "precision"}


def parse_scenario(obj):
    _require_keys(obj, _TOP_KEYS, {"prime", "group", "filtration", "omega"}, "scenario")
    prime = _read_int(obj["prime"], "prime")
    group = _parse_group(obj["group"])

    filtration = obj["filtration"]
    if not isinstance(filtration, list):
        raise InputError("filtration must be a list of element-id lists")
    filtration = [_read_ids(step, "filtration step") for step in filtration]

    omega_spec = obj["omega"]
    omega = None
    if omega_spec is not None:
        _require_keys(omega_spec, {"generator", "exponent", "cosets"}, set(), "omega")
        if "cosets" in omega_spec:
            if set(omega_spec) != {"cosets"}:
                raise InputError("omega: cosets excludes generator/exponent")
            cosets = omega_spec["cosets"]
            if not isinstance(cosets, dict):
                raise InputError("omega.cosets must map element ids to exponents")
            omega = {
                _read_id_key(k, "omega.cosets"): _read_int(v, f"omega.cosets[{k}]")
                for k, v in cosets.items()
            }
        else:
            if set(omega_spec) != {"generator", "exponent"}:
                raise InputError("omega needs both generator and exponent")
            omega = (
                _read_int(omega_spec["generator"], "omega.generator"),
                _read_int(omega_spec["exponent"], "omega.exponent"),
            )

    rd = ram_data(group, prime, filtration, omega, name="scenario")

    precision = obj.get("precision", {})
    _require_keys(precision, {"degree_cap"}, set(), "precision")
    if "degree_cap" in precision:  # the ring spec holds the degree budget
        cap = _read_int(precision["degree_cap"], "precision.degree_cap")
        SeriesRingSpec(prime, degree_cap=cap)

    modules = {}
    module_specs = obj.get("modules", [])
    if not isinstance(module_specs, list):
        raise InputError("modules must be a list")
    for spec in module_specs:
        name, module = _parse_module(spec, group, prime, "modules[]")
        if name in modules:
            raise InputError(f"duplicate module name {name!r}")
        modules[name] = module

    weil = []
    weil_specs = obj.get("weil", [])
    if not isinstance(weil_specs, list):
        raise InputError("weil must be a list")
    for spec in weil_specs:
        _require_keys(spec, {"module", "subgroup"}, {"module", "subgroup"}, "weil[]")
        sub = subgroup(group, _read_ids(spec["subgroup"], "weil[].subgroup"))
        hgrp, to_sub, _ = sub.as_group()
        name, module = _parse_module(
            spec["module"], hgrp, prime, "weil[].module", id_map=to_sub
        )
        weil.append((module, sub, name))

    series = obj.get("series", [])
    if not isinstance(series, list):
        raise InputError("series must be a list")
    series = [read_series_request(req) for req in series]

    canonical = _canonical_form(obj)
    return Scenario(prime, group, rd, modules, weil, series, precision, canonical)


def _parse_module(spec, group, prime, where, id_map=None):
    _require_keys(spec, {"name", "kind", "rank", "matrices"}, {"name", "kind"}, where)
    name = spec["name"]
    kind = spec["kind"]
    if not isinstance(name, str) or not name:
        raise InputError(f"{where}: module name must be a nonempty string")
    if kind == "regular":
        return name, regular_module(group, prime, name=name)
    if kind == "trivial":
        rank = _read_int(spec.get("rank", 1), f"{where}: trivial rank")
        if rank < 0:
            raise InputError(f"{where}: trivial rank must be a natural number")
        if rank > TRIVIAL_RANK_BOUND:
            raise InputError(f"{where}: trivial rank must be at most {TRIVIAL_RANK_BOUND}, got {rank}")
        return name, trivial_module(group, prime, rank=rank, name=name)
    if kind == "matrices":
        mats = spec.get("matrices")
        if not isinstance(mats, dict) or not mats:
            raise InputError(f"{where}: matrices must map generator ids to matrices")
        gen_action = {}
        for key, matrix in mats.items():
            gid = _read_id_key(key, f"{where}.matrices")
            if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
                raise InputError(f"{where}: matrix of generator {key} must be a list of rows")
            if id_map is not None:
                if gid not in id_map:
                    raise InputError(f"{where}: generator {gid} outside the subgroup")
                gid = id_map[gid]
            gen_action[gid] = tuple([
                tuple([parse_rational(x) for x in row]) for row in matrix
            ])
        module = module_from_generators(name, group, prime, gen_action)
        return name, module
    raise InputError(f"{where}: unknown module kind {kind!r}")


def _read_str(value, where):
    if not isinstance(value, str):
        raise InputError(f"{where} must be a string, got {value!r}")
    return value


def _read_scalars(value, where):
    if not isinstance(value, list) or not value:
        raise InputError(f"{where} must be a nonempty list of rationals")
    if len(value) > SCALAR_COUNT_BOUND:
        raise InputError(f"{where}: at most {SCALAR_COUNT_BOUND} scalars, got {len(value)}")
    scalars = [parse_rational(x) for x in value]
    limit = 10**SCALAR_DIGITS_BOUND
    if any(abs(r.numerator) >= limit or r.denominator >= limit for r in scalars):
        raise InputError(
            f"{where}: numerators and denominators must have at most {SCALAR_DIGITS_BOUND} digits"
        )
    return scalars


def _gauss_row(req, p, degree_cap):
    v = gauss_valuation(parse_series_expression(req["expr"], p, degree_cap))
    return {
        "op": "gauss",
        "input": req["expr"],
        "valuation": "inf" if v == inf else v,
        "provenance": "gauss-norm",
    }


def _wdiv_row(req, p, degree_cap, **options):
    f = parse_series_expression(req["f"], p, degree_cap)
    g = parse_series_expression(req["g"], p, degree_cap, ring=f.ring)
    q, r, certified = weierstrass_divide(g, f, req["z"], **options)
    return {
        "op": "wdiv",
        "q": str(q),
        "r": str(r),
        "certified_valuation": "exact" if certified == inf else certified,
        "provenance": "weierstrass-division",
    }


def _endo_row(req, p, degree_cap):
    scalars = req["scalars"]
    ring = SeriesRingSpec(p, s_vars=("T",), degree_cap=degree_cap)
    series = mult_endo(scalars[-1], ring)
    for r in reversed(scalars[:-1]):
        series = endo_apply(r, series)
    return {
        "op": "endo-compose",
        "scalars": "*".join(map(str, scalars)),
        "scalar": str(endo_to_scalar(series)),
        "provenance": "formal-multiplicative-group",
    }


def _dilate_row(req, p, degree_cap):
    f = parse_series_expression(req["expr"], p, degree_cap)
    return {
        "op": "dilate",
        "input": req["expr"],
        "n": req["n"],
        "member": dilatation_member(f, req["n"]),
        "provenance": "dilatation-lattice",
    }


class SeriesOp(NamedTuple):
    """A series operation: its request keys with their readers, and its row.

    ``required`` maps key -> reader and ``optional`` maps key -> (reader,
    default).  ``row(request, p, degree_cap)`` is the report row of a request
    read by :func:`read_series_request`; the command line also passes
    ``val_bound`` to wdiv.
    """

    required: dict
    optional: dict
    row: Callable


SERIES_OPS = {
    "gauss": SeriesOp({"expr": _read_str}, {}, _gauss_row),
    "wdiv": SeriesOp(
        {"g": _read_str, "f": _read_str}, {"z": (_read_str, "Z")}, _wdiv_row
    ),
    "endo": SeriesOp({"scalars": _read_scalars}, {}, _endo_row),
    "dilate": SeriesOp({"expr": _read_str, "n": _read_int}, {}, _dilate_row),
}


def read_series_request(req):
    """Validate a series request against its op's keys and read every field."""
    if not isinstance(req, dict):
        raise InputError("series[] must be an object")
    op = req.get("op")
    if not isinstance(op, str) or op not in SERIES_OPS:
        raise InputError(f"series[].op must be one of {sorted(SERIES_OPS)}")
    spec = SERIES_OPS[op]
    where = f"series {op} request"
    _require_keys(req, {"op", *spec.required, *spec.optional}, spec.required, where)
    out = {"op": op}
    for key, reader in spec.required.items():
        out[key] = reader(req[key], f"{where}: {key}")
    for key, (reader, default) in spec.optional.items():
        out[key] = reader(req[key], f"{where}: {key}") if key in req else default
    return out


def _canonical_form(obj):
    """Normalized plain-dict scenario; stable under re-parsing."""
    out = {
        "prime": obj["prime"],
        "group": obj["group"],
        "filtration": obj["filtration"],
        "omega": obj["omega"],
    }
    for key in ("modules", "weil", "series", "precision"):
        if key in obj and obj[key] not in ({}, []):
            out[key] = obj[key]
    return out


def scenario_digest(canonical):
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"scenario is not UTF-8: {exc}") from None
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise InputError("scenario has an integer literal that is too long") from None
    except RecursionError:
        raise InputError("scenario nests too deeply") from None
    return parse_scenario(obj)


# ---------------------------------------------------------------------------
# series expression grammar: integers, p, variables, + - * ^, parentheses


class _Tokens:
    def __init__(self, text):
        self.items = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":  # ASCII only: str.isdigit also accepts "²" and "٢"
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                try:
                    value = int(text[i:j])
                except ValueError:  # beyond Python's limit on int digits
                    raise InputError(
                        f"integer literal of {j - i} digits in series expression is too long"
                    ) from None
                self.items.append(("int", value))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j]))
                i = j
                continue
            if ch in "+-*^()":
                self.items.append((ch, ch))
                i += 1
                continue
            raise InputError(f"bad character {ch!r} in series expression")
        self.pos = 0

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def next(self):
        item = self.items[self.pos]
        self.pos += 1
        return item


def _collect_names(text):
    names = []
    for kind, value in _Tokens(text).items:
        if kind == "name" and value != "p" and value not in names:
            names.append(value)
    return sorted(names)


def parse_series_expression(text, p, degree_cap=DEFAULT_DEGREE_CAP, ring=None):
    """Evaluate the small series grammar into a MixedSeries.

    Variables whose names start with ``T`` form the power-bounded block;
    everything else is formal.  ``p`` names the base prime inside the
    expression (e.g. ``p^-2*S``).
    """
    if ring is None:
        names = _collect_names(text)
        t_vars = tuple([n for n in names if n.upper().startswith("T")])
        s_vars = tuple([n for n in names if not n.upper().startswith("T")])
        ring = SeriesRingSpec(p, s_vars=s_vars, t_vars=t_vars, degree_cap=degree_cap)
    toks = _Tokens(text)
    depth = 0

    def parse_expr():
        node = parse_term()
        while toks.peek() in ("+", "-"):
            op, _ = toks.next()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_unary()
        while toks.peek() == "*":
            toks.next()
            node = node * parse_unary()
        return node

    def parse_unary():
        negate = False
        while toks.peek() == "-":  # a run of signs, read without recursing per sign
            toks.next()
            negate = not negate
        node = parse_power()
        return -node if negate else node

    def parse_power():
        base = parse_atom()
        if toks.peek() != "^":
            return base
        toks.next()
        sign = 1
        if toks.peek() == "-":
            toks.next()
            sign = -1
        kind, value = toks.next()
        if kind != "int":
            raise InputError("exponent must be an integer")
        k = sign * value
        if abs(k) > EXPONENT_BOUND:
            raise InputError(f"exponent must lie in -{EXPONENT_BOUND}..{EXPONENT_BOUND}, got {k}")
        if k >= 0:
            return base**k
        constant = base.constant_term()
        if len(base.coeffs) > (1 if constant else 0):
            raise InputError("negative powers only apply to constants")
        if constant == 0:
            raise InputError("negative power of zero")
        return MixedSeries.const(ring, Fraction(1) / constant) ** (-k)

    def parse_atom():
        kind, value = toks.next()
        if kind == "int":
            return MixedSeries.const(ring, value)
        if kind == "name":
            if value == "p":
                return MixedSeries.const(ring, p)
            return MixedSeries.variable(ring, value)
        if kind == "(":
            nonlocal depth
            depth += 1
            if depth > NESTING_BOUND:
                raise InputError(f"parentheses nest deeper than {NESTING_BOUND} in series expression")
            node = parse_expr()
            if toks.peek() != ")":
                raise InputError("unbalanced parentheses in series expression")
            toks.next()
            depth -= 1
            return node
        raise InputError(f"unexpected token {value!r} in series expression")

    try:
        result = parse_expr()
    except IndexError:
        raise InputError("series expression ended unexpectedly") from None
    if toks.peek() is not None:
        raise InputError("trailing input in series expression")
    return result
