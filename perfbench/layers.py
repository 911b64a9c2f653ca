"""Layers of ramcond as the traced run sees them, and the per-layer metrics.

``verify`` is timed once as a whole and ``errors`` holds no work, so neither
is wrapped.  ``catalog`` is wrapped because input generation calls it.
"""

from __future__ import annotations

import os
import sys

LAYERS = (
    "exact",
    "linalg",
    "groups",
    "characters",
    "ramification",
    "conductors",
    "series",
    "scenario",
    "cli",
    "catalog",
)

# Functions timed on every call, not only where a layer boundary is crossed.
ALWAYS_SPAN = ("conductors.CharModule.__init__", "linalg.mat_mul")


def _bisection_pre(rec, args, kwargs):
    seen = rec.case_state.setdefault("bisected", {})
    rd = args[0] if args else kwargs["rd"]
    if id(rd) in seen:
        rec.add("ramification.bisection_repeats")
    else:
        seen[id(rd)] = rd  # held so that the id is not reused within the case


def _series_mul_pre(rec, args, kwargs):
    a, b = args
    if type(a) is not type(b):
        return
    cap = a.ring.degree_cap
    hist = [0] * (cap + 1)
    for e in b.coeffs:
        hist[sum(e)] += 1
    below = [0] * (cap + 2)  # below[k]: terms of b with degree < k
    for k in range(cap + 1):
        below[k + 1] = below[k] + hist[k]
    kept = sum(below[cap - sum(e) + 1] for e in a.coeffs)
    rec.add("series.term_pairs", len(a.coeffs) * len(b.coeffs))
    rec.add("series.term_pairs_kept", kept)


def _module_init_post(rec, state, args, kwargs, result):
    rec.add("conductors.rank_sum", args[0].rank)


def _load_scenario_pre(rec, args, kwargs):
    rec.add("scenario.bytes_in", os.path.getsize(args[0]))


def _cli_main_pre(rec, args, kwargs):
    out = sys.stdout
    return len(out.getvalue()) if hasattr(out, "getvalue") else None


def _cli_main_post(rec, state, args, kwargs, result):
    if state is not None:
        rec.add("cli.bytes_out", len(sys.stdout.getvalue()[state:].encode("utf-8")))
    if result != 0:
        rec.add("cli.nonzero_exits")


HOOKS = {
    "ramification.bisection": (_bisection_pre, None),
    "series.MixedSeries.__mul__": (_series_mul_pre, None),
    "conductors.CharModule.__init__": (None, _module_init_post),
    "scenario.load_scenario": (_load_scenario_pre, None),
    "cli.main": (_cli_main_pre, _cli_main_post),
}

# per-layer metric -> (unit, source); sources: ("calls", function key),
# ("incl", function key), ("self", layer), ("extra", counter),
# ("ratio", numerator source, denominator source)
PER_LAYER = {
    "exact.mul_calls": ("count", ("calls", "exact.CycloNum.__mul__")),
    "exact.inverse_calls": ("count", ("calls", "exact.CycloNum.inverse")),
    "exact.embed_calls": ("count", ("calls", "exact.CycloNum.embed")),
    "exact.objects_built": ("count", ("calls", "exact.CycloNum.__init__")),
    "exact.self_s": ("s", ("self", "exact")),
    "ramification.bisection_calls": ("count", ("calls", "ramification.bisection")),
    "ramification.bisection_repeat_frac": (
        "ratio",
        ("ratio", ("extra", "ramification.bisection_repeats"), ("calls", "ramification.bisection")),
    ),
    "ramification.self_s": ("s", ("self", "ramification")),
    "characters.pair_calls": ("count", ("calls", "characters.pair")),
    "characters.char_of_rep_calls": ("count", ("calls", "characters.char_of_rep")),
    "characters.induce_calls": ("count", ("calls", "characters.induce")),
    "characters.self_s": ("s", ("self", "characters")),
    "conductors.modules_built": ("count", ("calls", "conductors.CharModule.__init__")),
    "conductors.rank_sum": ("count", ("extra", "conductors.rank_sum")),
    "conductors.module_init_s": ("s", ("incl", "conductors.CharModule.__init__")),
    "conductors.conductor_calls": ("count", ("calls", "conductors.conductor")),
    "conductors.weil_calls": ("count", ("calls", "conductors.weil_restriction")),
    "conductors.self_s": ("s", ("self", "conductors")),
    "linalg.mat_mul_calls": ("count", ("calls", "linalg.mat_mul")),
    "linalg.mat_mul_s": ("s", ("incl", "linalg.mat_mul")),
    "linalg.hnf_calls": ("count", ("calls", "linalg.hnf_rows")),
    "linalg.self_s": ("s", ("self", "linalg")),
    "groups.built": ("count", ("calls", "groups.FiniteGroup.__init__")),
    "groups.subgroups_calls": ("count", ("calls", "groups.FiniteGroup.subgroups")),
    "groups.self_s": ("s", ("self", "groups")),
    "series.mul_calls": ("count", ("calls", "series.MixedSeries.__mul__")),
    "series.term_pairs": ("count", ("extra", "series.term_pairs")),
    "series.term_pairs_kept_frac": (
        "ratio",
        ("ratio", ("extra", "series.term_pairs_kept"), ("extra", "series.term_pairs")),
    ),
    "series.wdiv_calls": ("count", ("calls", "series.weierstrass_divide")),
    "series.self_s": ("s", ("self", "series")),
    "scenario.parse_calls": ("count", ("calls", "scenario.parse_scenario")),
    "scenario.bytes_in": ("bytes", ("extra", "scenario.bytes_in")),
    "scenario.self_s": ("s", ("self", "scenario")),
    "cli.calls": ("count", ("calls", "cli.main")),
    "cli.bytes_out": ("bytes", ("extra", "cli.bytes_out")),
    "cli.nonzero_exits": ("count", ("extra", "cli.nonzero_exits")),
    "cli.self_s": ("s", ("self", "cli")),
    "catalog.self_s": ("s", ("self", "catalog")),
}


def _value(source, snap):
    kind = source[0]
    if kind == "ratio":
        den = _value(source[2], snap)
        return _value(source[1], snap) / den if den else 0.0
    table = {"calls": snap["calls"], "incl": snap["incl"], "self": snap["self"], "extra": snap["extra"]}[kind]
    return table.get(source[1], 0)


def combine(setup, after, passes):
    """Set-up totals plus the average of one traced pass, key by key."""
    out = {}
    for part in ("calls", "incl", "self", "extra"):
        keys = set(setup[part]) | set(after[part])
        out[part] = {
            k: setup[part].get(k, 0) + (after[part].get(k, 0) - setup[part].get(k, 0)) / passes
            for k in keys
        }
    return out


def per_layer_metrics(snap):
    return {name: (_value(src, snap), unit) for name, (unit, src) in PER_LAYER.items()}
