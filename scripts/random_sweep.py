#!/usr/bin/env python3
"""Seeded randomized sweep: bisection identities on random chains plus
isogeny-invariance spot checks.  Usage: random_sweep.py [SEED] [COUNT]."""

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ramcond.catalog import catalog, random_module, random_ram_data, random_unit_conjugate
from ramcond.conductors import conductor, is_isogenous
from ramcond.verify import bisection_mismatch


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    rng = random.Random(seed)
    start = time.perf_counter()

    failures = 0
    orders = {}
    for _ in range(count):
        rd = random_ram_data(rng)
        orders[rd.group.order] = orders.get(rd.group.order, 0) + 1
        failures += bisection_mismatch(rd) is not None

    fixtures = list(catalog())
    iso_failures = 0
    for _ in range(count // 4):
        rd = fixtures[rng.randrange(len(fixtures))]
        m = random_module(rng, rd.group, rd.p)
        m2 = random_unit_conjugate(rng, m)
        ok = is_isogenous(m, m2) and conductor(m, rd).value == conductor(m2, rd).value
        iso_failures += not ok

    elapsed = time.perf_counter() - start
    print(f"seed={seed} count={count} elapsed={elapsed:.2f}s")
    print(f"group orders seen: {dict(sorted(orders.items()))}")
    print(f"bisection failures: {failures}")
    print(f"isogeny failures:   {iso_failures}")
    return 1 if failures or iso_failures else 0


if __name__ == "__main__":
    sys.exit(main())
