"""Shared pieces of the benchmark: cases, oracle failures, input summaries.

A workload module exposes ``SIZE`` (its number of cases) and
``generate(rc, rng, size, workdir)`` returning a list of :class:`Case`, ``run(rc, case)`` returning an output that supports ``==``,
and ``check(rc, case, output)`` raising :class:`OracleFailure` when the
output is wrong.  ``rc`` is the imported ``ramcond`` package; workloads reach
the library only through its attributes, looked up at call time, so the
traced run sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# Submodules a user of the toolkit imports; every workload imports all of
# them so that set-up times are comparable across workloads.
SUBMODULES = ("ramcond", "ramcond.catalog", "ramcond.scenario", "ramcond.cli")


class OracleFailure(AssertionError):
    """A case output disagrees with an exact oracle."""


def require(ok, message):
    if not ok:
        raise OracleFailure(message)


@dataclass
class Case:
    """One unit of user work: its kind, plain-data spec and prepared inputs."""

    kind: str
    spec: dict  # JSON-able description, hashed into the input digest
    tags: dict  # histogram keys: value or list of values
    args: dict = field(default_factory=dict)  # library objects built at set-up


def import_ramcond():
    """Import ramcond afresh from the checkout's ``src`` and return the package.

    Earlier imports are dropped first so that every set-up repetition pays
    the whole import, including any tables built at import time.
    """
    if not (SRC / "ramcond" / "__init__.py").is_file():
        raise FileNotFoundError(f"ramcond sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ramcond" or m.startswith("ramcond.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for name in SUBMODULES:
        importlib.import_module(name)
    return sys.modules["ramcond"]


def input_summary(cases):
    """Histogram of every tag over the cases plus a digest of their specs."""
    hist = {}
    for case in cases:
        for key, value in case.tags.items():
            values = value if isinstance(value, (list, tuple)) else [value]
            hist.setdefault(key, Counter()).update(values)
    blob = json.dumps([[c.kind, c.spec] for c in cases], sort_keys=True, default=str)
    return {
        "cases": len(cases),
        "kinds": dict(sorted(Counter(c.kind for c in cases).items())),
        "histogram": {k: dict(sorted(v.items())) for k, v in sorted(hist.items())},
        "digest": "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
    }


def probe():
    """A fixed pure-Python kernel (exact rationals, dicts, tuples), ~1 ms.

    Its run time tracks the speed the interpreter gets from the machine at
    that moment; the benchmark divides case times by it (see run.py).
    """
    acc = Fraction(0)
    x = Fraction(1, 3)
    for i in range(120):
        acc += x * (i % 7) / (1 + i % 5)
    table = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return acc, len(table)


def expand(weighted):
    """Round-robin expansion of (design, count) pairs into a list of designs.

    Every prefix of the list covers as many designs as it can, so a small
    pool (as in the tests) still mixes the kinds of cases.
    """
    out = []
    for round_ in range(max(count for _, count in weighted)):
        out += [design for design, count in weighted if count > round_]
    return out


def matrix_spec(m):
    return [[str(x) for x in row] for row in m]
