#!/usr/bin/env python3
"""The ramcond benchmark: seeded workloads through the public API, with oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tame-pairing --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One process, one thread, one client in a closed loop: each case starts when
the previous one has returned.  Set-up (a fresh import of ramcond and input
generation) is repeated and its median reported.  The timed phase runs passes
over the 105 generated cases, at least two, until ``--seconds`` have passed;
a case's latency is the median of its runs, and the quantiles are over cases.
Between cases, with the clock stopped, each output is checked: the first
output of a case against the workload's exact oracles, later ones for
equality with that verified output.  A case that raises or fails its check
counts as failed.

Time unit: the speed the interpreter gets from a shared machine can drift by
a factor of up to 1.7 for seconds to minutes, in CPU time as in wall time.
Before each case the benchmark therefore times a fixed pure-Python kernel
(``harness.probe``) and scales every latency by PROBE_REF_S over the median
kernel time of the nine runs around it.  Reported times are in seconds at a
machine speed where the kernel takes PROBE_REF_S; set-up is scaled the same
way.  The unscaled figures are printed alongside.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run (see
NOTES.md).  Spans of the traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import layers
from tracer import Recorder

import cli_scenarios
import module_induction
import series_kernel
import tame_pairing

WORKLOADS = {
    "tame-pairing": tame_pairing,
    "module-induction": module_induction,
    "series-kernel": series_kernel,
    "cli-scenarios": cli_scenarios,
}
SETUP_REPEATS = 3
MIN_PASSES = 2
TICK_S = 0.05
# The unit of time: reported times are scaled to a machine speed at which
# harness.probe() takes this long.
PROBE_REF_S = 1e-3
# failed_frac is printed but not in the result line's metrics: it is 0 when
# the program is correct, and failures are in "attempted" and "failed".
END_TO_END = ("cases_per_s", "case_ms_p50", "case_ms_p90", "setup_s", "peak_rss_mb")
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"


class Verifier:
    """Checks case outputs: oracles on first sight, equality afterwards."""

    def __init__(self, wl, rc, cases):
        self.wl, self.rc, self.cases = wl, rc, cases
        self.verified = {}
        self.broken = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def observe(self, i, out, err):
        self.attempted += 1
        if err is None:
            if i in self.verified:
                try:
                    ok = out == self.verified[i]
                except Exception as exc:  # a broken __eq__ is a failed case
                    ok, err = False, exc
                if not ok and err is None:
                    err = harness.OracleFailure("output differs from the verified output")
            elif i in self.broken:
                ok, err = False, self.broken[i]
            else:
                try:
                    self.wl.check(self.rc, self.cases[i], out)
                except Exception as exc:  # oracle failures and crashes alike
                    ok, err = False, exc
                    self.broken[i] = exc
                else:
                    ok = True
                    self.verified[i] = out
        else:
            ok = False
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"case {i} ({self.cases[i].kind}): {type(err).__name__}: {err}")
        return ok


def setup(wl, seed, size, workdir):
    """Fresh import plus input generation; returns (ramcond, cases)."""
    rc = harness.import_ramcond()
    return rc, wl.generate(rc, random.Random(f"{wl.__name__}/{seed}"), size, workdir)


def scaled_call(fn):
    """Run ``fn()``; returns (result, seconds, seconds in reference units).

    A timer interrupts ``fn`` every TICK_S to time the reference kernel; the
    time spent in those probes is taken out, and the rest is scaled by the
    median probe time, as case latencies are.
    """
    probes = [probe_time()]

    def tick(signum, frame):
        t0 = time.perf_counter()
        harness.probe()
        probes.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed -= sum(probes[1:])
    probes.append(probe_time())
    return result, elapsed, elapsed * PROBE_REF_S / statistics.median(probes)


def run_passes(wl, rc, cases, order, verifier, seconds=None, passes=None, rec=None):
    """Passes over ``order``; returns (records, passes done).

    A record is (case, latency, probe time), in execution order.  Stops after
    ``passes`` whole passes, or once ``seconds`` have passed and at least
    MIN_PASSES passes are complete (the last pass may be partial).
    """
    records = []
    done = 0
    clock = time.perf_counter
    start = clock()

    def finished():
        return passes is None and done >= MIN_PASSES and clock() - start >= seconds

    while True:
        for i in order:
            out = err = None
            p0 = clock()
            harness.probe()
            p1 = clock()
            with rec.root(i) if rec is not None else contextlib.nullcontext():
                t0 = clock()
                try:
                    out = wl.run(rc, cases[i])
                except Exception as exc:  # a crash is a failed case
                    err = exc
                t1 = clock()
            records.append((i, t1 - t0, p1 - p0))
            verifier.observe(i, out, err)
            if finished():
                return records, done
        done += 1
        if done == passes or finished():
            return records, done


def probe_time(repeats=9):
    """Median run time of the reference kernel, measured now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        harness.probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def case_latencies(cases, records, scaled=True):
    """Each case's median latency, in reference units unless ``scaled`` is false.

    A scaled latency is divided by the median probe time of the nine runs
    around it, then multiplied by PROBE_REF_S (see the module docstring).
    """
    times = [p for _, _, p in records]
    per_case = [[] for _ in cases]
    for k, (i, latency, _) in enumerate(records):
        factor = PROBE_REF_S / statistics.median(times[max(0, k - 4):k + 5]) if scaled else 1.0
        per_case[i].append(latency * factor)
    return [statistics.median(x) for x in per_case]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, size=None, workdir=None):
    """Untraced run: returns (summary, verifier, metrics, passes)."""
    wl = WORKLOADS[name]
    size = size or wl.SIZE
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        (rc, cases), raw, scaled = scaled_call(lambda: setup(wl, seed, size, workdir))
        raw_setups.append(raw)
        setups.append(scaled)
    gc.collect()
    order = list(range(len(cases)))
    random.Random(f"order/{seed}").shuffle(order)
    verifier = Verifier(wl, rc, cases)
    records, passes = run_passes(wl, rc, cases, order, verifier, seconds=seconds)
    per_case = case_latencies(cases, records)
    q = statistics.quantiles(per_case, n=10) if len(per_case) > 1 else per_case * 9
    raw = case_latencies(cases, records, scaled=False)
    metrics = {
        "cases_per_s": (len(per_case) / sum(per_case), "1/s"),
        "case_ms_p50": (q[4] * 1e3, "ms"),
        "case_ms_p90": (q[8] * 1e3, "ms"),
        "failed_frac": (verifier.failed / verifier.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "unscaled_cases_per_s": (len(raw) / sum(raw), "1/s"),
        "unscaled_setup_s": (statistics.median(raw_setups), "s"),
        "probe_ms": (statistics.median(p for _, _, p in records) * 1e3, "ms"),
    }
    return harness.input_summary(cases), verifier, metrics, passes


def measure_traced(name, seed, seconds, size=None, workdir=None, spans_path=None):
    """Traced run: per-layer metrics for one set-up plus one pass."""
    wl = WORKLOADS[name]
    size = size or wl.SIZE
    rc = harness.import_ramcond()
    rec = Recorder(rc, layers.LAYERS, layers.ALWAYS_SPAN, layers.HOOKS)
    rec.install()
    try:
        with rec.root(-1):
            cases = wl.generate(rc, random.Random(f"{wl.__name__}/{seed}"), size, workdir)
        at_setup = rec.snapshot()
        order = list(range(len(cases)))
        random.Random(f"order/{seed}").shuffle(order)
        verifier = Verifier(wl, rc, cases)
        start = time.perf_counter()
        passes = 0
        traced = []
        while passes == 0 or time.perf_counter() - start < seconds / 2:
            records, _ = run_passes(wl, rc, cases, order, verifier, passes=1, rec=rec)
            traced += records
            passes += 1
        after = rec.snapshot()
    finally:
        rec.restored = rec.uninstall()
    untraced, _ = run_passes(wl, rc, cases, order, verifier, passes=passes)
    snap = layers.combine(at_setup, after, passes)
    metrics = layers.per_layer_metrics(snap)
    metrics["verify.catalog_s"] = (verify_catalog(rc, verifier), "s")
    overhead = sum(case_latencies(cases, traced)) / sum(case_latencies(cases, untraced))
    metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        rec.write_spans(spans_path)
    return harness.input_summary(cases), verifier, metrics, passes, rec


def verify_catalog(rc, verifier):
    """One in-process ``ramcond verify --catalog``, untraced; returns seconds."""
    def verify():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return rc.cli.main(["verify", "--catalog"])
        except Exception as exc:  # counted as a failure, like a case
            return f"{type(exc).__name__}: {exc}"

    code, _, dt = scaled_call(verify)
    verifier.attempted += 1
    if code != 0:
        verifier.failed += 1
        verifier.messages.append(f"verify --catalog exited {code}")
    return dt


def report(name, seed, summary, verifier, metrics, passes):
    print(f"== {name} seed={seed}: {summary['cases']} inputs {summary['kinds']}, "
          f"input digest {summary['digest']}")
    for key, hist in summary["histogram"].items():
        print(f"   {key}: {hist}")
    print(f"   cases attempted {verifier.attempted} over {passes} passes, failed {verifier.failed}")
    for msg in verifier.messages:
        print(f"   FAILED {msg}")
    for metric, (value, unit) in metrics.items():
        print(f"   {metric} = {value:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (harness.SRC / "ramcond" / "__init__.py").is_file():
        print(f"error: no ramcond sources under {harness.SRC}", file=sys.stderr)
        return 2
    for name in names:
        workdir = WORK_DIR / f"{name}-{args.seed}-{os.getpid()}"
        rec = None
        try:
            if args.trace:
                spans = OUT_DIR / f"spans-{name}-seed{args.seed}.csv"
                summary, verifier, metrics, passes, rec = measure_traced(
                    name, args.seed, args.seconds, workdir=workdir, spans_path=spans
                )
                out = metrics
            else:
                summary, verifier, metrics, passes = measure(
                    name, args.seed, args.seconds, workdir=workdir
                )
                out = {k: metrics[k] for k in END_TO_END}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report(name, args.seed, summary, verifier, metrics, passes)
        if rec is not None:
            print(f"   spans kept {rec.spans_kept}, dropped {rec.spans_dropped}, "
                  f"written to {spans.relative_to(harness.REPO_ROOT)}")
        correct = verifier.failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": verifier.attempted,
            "failed": verifier.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
