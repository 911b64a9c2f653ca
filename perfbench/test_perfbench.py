"""Tests of the benchmark itself: tiny workloads, oracles, and the tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

TINY = {"tame-pairing": 4, "module-induction": 4, "series-kernel": 5, "cli-scenarios": 4}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_passes_every_oracle(name, tmp_path):
    summary, verifier, metrics, passes = run.measure(name, 7, 0, size=TINY[name], workdir=tmp_path)
    assert passes == run.MIN_PASSES
    assert verifier.attempted == run.MIN_PASSES * TINY[name]
    assert verifier.failed == 0, verifier.messages
    assert summary["cases"] == TINY[name]
    assert set(run.END_TO_END) | {"failed_frac"} <= set(metrics)
    assert all(value > 0 for key, (value, _) in metrics.items() if key != "failed_frac")


def test_same_seed_same_inputs(tmp_path):
    rc = harness.import_ramcond()
    wl = run.WORKLOADS["module-induction"]
    digests = {
        harness.input_summary(
            wl.generate(rc, run.random.Random(f"{wl.__name__}/{seed}"), 6, tmp_path)
        )["digest"]
        for seed in (3, 3, 4)
    }
    assert len(digests) == 2


def _first(cases, kind):
    return next(i for i, c in enumerate(cases) if c.kind == kind)


# (workload, case kind, corruption of a correct output)
CORRUPTIONS = [
    ("tame-pairing", "tame",
     lambda o: o[:2] + (((o[2][0][0], Fraction(1, 2), o[2][0][2]),) + o[2][1:],) + o[3:]),
    ("tame-pairing", "mixed", lambda o: o[:5] + (o[5] + 1,)),
    ("module-induction", "regular", lambda o: (o[0], o[1] + 1, o[2])),
    ("module-induction", "induction", lambda o: ((o[0][0], o[0][1] + Fraction(1, 2)),) + o[1:]),
    ("module-induction", "isogeny", lambda o: (o[0], o[1], o[2] + 1)),
    ("module-induction", "split", lambda o: (o[0] + 1,) + o[1:]),
    ("series-kernel", "product", lambda o: (o[0],) + (o[1] + 1,) + o[2:]),
    ("series-kernel", "wdiv", lambda o: (o[0] + 1,) + o[1:]),
    ("series-kernel", "endo", lambda o: (o[0], o[1] + 1)),
    ("series-kernel", "dilate", lambda o: (not o[0],) + o[1:]),
    ("cli-scenarios", "conduct", lambda o: (o[0], o[1].replace('"conductor": "0"', '"conductor": "1"'))),
    ("cli-scenarios", "bisect", lambda o: (1, o[1])),
]


@pytest.mark.parametrize("name,kind,corrupt", CORRUPTIONS)
def test_oracle_rejects_a_wrong_value(name, kind, corrupt, tmp_path):
    rc = harness.import_ramcond()
    wl = run.WORKLOADS[name]
    cases = wl.generate(rc, run.random.Random(f"{wl.__name__}/7"), wl.SIZE, tmp_path)
    i = _first(cases, kind)
    out = wl.run(rc, cases[i])
    wl.check(rc, cases[i], out)
    bad = corrupt(out)
    assert bad != out
    with pytest.raises(harness.OracleFailure):
        wl.check(rc, cases[i], bad)
    verifier = run.Verifier(wl, rc, cases)
    assert verifier.observe(i, bad, None) is False
    assert verifier.observe(i, out, None) is False  # the case stays failed
    assert verifier.failed == 2


def test_verifier_compares_repeats_with_the_verified_output(tmp_path):
    rc = harness.import_ramcond()
    wl = run.WORKLOADS["series-kernel"]
    cases = wl.generate(rc, run.random.Random("x"), 1, tmp_path)
    verifier = run.Verifier(wl, rc, cases)
    out = wl.run(rc, cases[0])
    assert verifier.observe(0, out, None)
    assert verifier.observe(0, wl.run(rc, cases[0]), None)
    assert not verifier.observe(0, (out[0],) + (out[1] + 1,) + out[2:], None)
    assert not verifier.observe(0, None, RuntimeError("boom"))
    assert (verifier.attempted, verifier.failed) == (4, 2)


def _wrappers_left(rc):
    left = []
    for modname, mod in list(sys.modules.items()):
        if modname == "ramcond" or modname.startswith("ramcond."):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "recorder"):
                    left.append(f"{modname}.{attr}")
                if isinstance(obj, type) and obj.__module__ == modname:
                    for name, member in vars(obj).items():
                        fn = getattr(member, "__func__", member)
                        if hasattr(fn, "recorder"):
                            left.append(f"{modname}.{attr}.{name}")
    return left


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_restores(name, tmp_path):
    summary, verifier, metrics, passes, rec = run.measure_traced(
        name, 7, 0, size=TINY[name], workdir=tmp_path / "work", spans_path=tmp_path / "spans.csv"
    )
    assert verifier.failed == 0, verifier.messages
    assert set(layers.PER_LAYER) | {"verify.catalog_s", "trace.overhead_frac"} == set(metrics)
    assert rec.restored, "nothing was wrapped"
    for owner, attr, original in rec.restored:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    rc = sys.modules["ramcond"]
    assert _wrappers_left(rc) == []
    # names bound by ``from .x import f`` were rebound too
    patched = {(getattr(o, "__name__", ""), a) for o, a, _ in rec.restored}
    assert ("ramcond.cli", "bisection") in patched
    assert ("ramcond.conductors", "bisection") in patched
    assert ("ramcond.exact", "__rmul__") not in patched
    assert ("CycloNum", "__rmul__") in patched
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0].startswith("span,parent,case,name")
    assert len(lines) > 1


def test_self_time_excludes_child_spans():
    rc = harness.import_ramcond()
    rec = run.Recorder(rc, layers.LAYERS, layers.ALWAYS_SPAN, layers.HOOKS)
    rec.install()
    try:
        with rec.root(0):
            g = rc.make_cyclic(12)
            rd = rc.ram_data(g, 5, [], (1, 1))
            rc.conductor(rc.trivial_module(g, 5), rd)
        snap = rec.snapshot()
    finally:
        rec.uninstall()
    total = sum(snap["self"].values())
    root = rec._span_t1[-1] - rec._span_t0[-1]
    assert abs(total - root) < 1e-6 * max(1.0, root) + 1e-9
    assert snap["calls"]["ramification.bisection"] == 1
    assert snap["calls"]["exact.CycloNum.inverse"] == 11
    assert snap["self"]["exact"] > 0
