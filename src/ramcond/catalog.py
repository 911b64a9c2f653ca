"""Built-in ramification fixtures and randomized generators for the suites.

The catalog mixes tame cyclic extensions, wild cyclic towers at p = 2 and 3,
a mixed tame-by-wild product, Klein-four data and a nonabelian case.  Some
entries model genuine local fields, others are merely structurally valid
chains; every formula exercised here is well defined on any validated chain.
"""

from __future__ import annotations

from math import gcd

from .conductors import CharModule, permutation_module
from .groups import make_cyclic, make_product, make_symmetric, subgroup
from .linalg import read_matrix, sparse_mul
from .ramification import ram_data

__all__ = [
    "catalog",
    "random_ram_data",
    "random_module",
    "random_unit_conjugate",
]


def _tame_cyclic(n, p):
    g = make_cyclic(n)
    return ram_data(g, p, [], (1, 1), name=f"tame-C{n}-p{p}")


def _wild_cyclic2():
    g = make_cyclic(2)
    return ram_data(g, 2, [range(2)], None, name="wild-C2-p2")


def _wild_cyclic3():
    g = make_cyclic(3)
    return ram_data(g, 3, [range(3)], None, name="wild-C3-p3")


def _wild_cyclic3_deep():
    g = make_cyclic(3)
    return ram_data(g, 3, [range(3), range(3)], None, name="wild-C3-break2-p3")


def _wild_cyclic4_tower():
    g = make_cyclic(4)
    h = (0, 2)
    return ram_data(g, 2, [range(4), h, h], None, name="wild-C4-tower-p2")


def _wild_cyclic9_tower():
    g = make_cyclic(9)
    h = (0, 3, 6)
    return ram_data(g, 3, [range(9), h, h, h], None, name="wild-C9-tower-p3")


def _klein_four():
    g = make_product(make_cyclic(2), make_cyclic(2))
    return ram_data(g, 2, [range(4)], None, name="klein-four-p2")


def _klein_four_tower():
    # breaks of Q_2(i, sqrt 2): the last step survives twice
    g = make_product(make_cyclic(2), make_cyclic(2))
    return ram_data(g, 2, [range(4), (0, 1), (0, 1)], None, name="klein-four-tower-p2")


def _mixed_c6():
    # tame degree 3 times a wild quadratic; the tame part stretches the
    # wild lower break to 3, which keeps every discriminant valuation integral
    g = make_cyclic(6)
    return ram_data(g, 2, [(0, 3), (0, 3), (0, 3)], (1, 1), name="mixed-C6-p2")


def _s3_wild3():
    g = make_symmetric(3)
    # A3 = the two 3-cycles with the identity
    three_cycles = sorted(
        x for x in range(6) if g.element_order(x) == 3
    )
    a3 = (0,) + tuple(three_cycles)
    return ram_data(g, 3, [a3], (min(set(range(6)) - set(a3)), 1), name="S3-p3")


_CATALOG_BUILDERS = (
    ("tame-C2-p3", lambda: _tame_cyclic(2, 3)),
    ("tame-C3-p2", lambda: _tame_cyclic(3, 2)),
    ("tame-C4-p3", lambda: _tame_cyclic(4, 3)),
    ("tame-C5-p2", lambda: _tame_cyclic(5, 2)),
    ("tame-C6-p5", lambda: _tame_cyclic(6, 5)),
    ("tame-C7-p2", lambda: _tame_cyclic(7, 2)),
    ("wild-C2-p2", _wild_cyclic2),
    ("wild-C3-p3", _wild_cyclic3),
    ("wild-C3-break2-p3", _wild_cyclic3_deep),
    ("wild-C4-tower-p2", _wild_cyclic4_tower),
    ("wild-C9-tower-p3", _wild_cyclic9_tower),
    ("klein-four-p2", _klein_four),
    ("klein-four-tower-p2", _klein_four_tower),
    ("mixed-C6-p2", _mixed_c6),
    ("S3-p3", _s3_wild3),
)

_CACHE = {}


def catalog():
    """All fixtures, built once per process."""
    out = []
    for name, build in _CATALOG_BUILDERS:
        if name not in _CACHE:
            _CACHE[name] = build()
        out.append(_CACHE[name])
    return tuple(out)


# ---------------------------------------------------------------------------
# randomized structurally valid data


def _wild_options(p):
    """(group builder, list of chains as element-tuple lists) per wild shape."""
    cp = lambda: make_cyclic(p)
    cp2 = lambda: make_cyclic(p * p)
    cpxcp = lambda: make_product(make_cyclic(p), make_cyclic(p))
    sub_cp2 = tuple(range(0, p * p, p))
    sub_cpxcp = tuple(range(p))
    return [
        (lambda: make_cyclic(1), [[]]),
        (cp, [[tuple(range(p))]]),
        (cp2, [[tuple(range(p * p)), sub_cp2], [tuple(range(p * p)), sub_cp2, sub_cp2]]),
        (cpxcp, [[tuple(range(p * p))], [tuple(range(p * p)), sub_cpxcp]]),
    ]


def random_ram_data(rng):
    """A random structurally valid chain on a product group of order <= 24."""
    p = rng.choice([2, 3])
    options = _wild_options(p)
    build, chains = options[rng.randrange(len(options))]
    wild = build()
    w = wild.order
    tame_choices = [n for n in range(1, 24 // w + 1) if n % p != 0]
    n = rng.choice(tame_choices)
    chain = [list(c) for c in chains[rng.randrange(len(chains))]]
    # repeat steps to encode equal consecutive filtration groups
    stuttered = []
    for entry in chain:
        for _ in range(rng.randint(1, 2)):
            stuttered.append(entry)
    group = make_product(make_cyclic(n), wild)
    # the wild factor embeds as the ids 0..w-1; (1, 0) has id w and its coset
    # generates the tame quotient
    embedded = [[x for x in entry] for entry in stuttered]
    if n == 1:
        omega = None
    else:
        units = [e for e in range(1, n) if gcd(e, n) == 1]
        omega = (w, rng.choice(units))
    return ram_data(group, p, embedded, omega, name=f"random-{group.name}-p{p}")


def random_module(rng, group, p, max_rank=6):
    """A random integral module: permutation action on cosets of a random subgroup."""
    subs = [s for s in group.subgroups() if group.order // len(s) <= max_rank]
    elems = subs[rng.randrange(len(subs))]
    return permutation_module(subgroup(group, elems), p)


def random_unit_conjugate(rng, module):
    """Conjugate a module by a random determinant +-1 integer matrix."""
    d = module.rank
    if d == 0:
        return module
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    uinv = [row[:] for row in u]
    for _ in range(3 * d):
        i = rng.randrange(d)
        j = rng.randrange(d)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # row i += c * row j on u is col j -= c * col i on its inverse
        for k in range(d):
            u[i][k] += c * u[j][k]
            uinv[k][j] -= c * uinv[k][i]
    (u, _), (uinv, _) = read_matrix(u), read_matrix(uinv)
    forms = {
        g: sparse_mul(uinv, sparse_mul(module._form(g), u))
        for g in (0, *module.group.generating_set())
    }
    return CharModule._from_forms(f"{module.name}~", module.group, module.p, forms)
