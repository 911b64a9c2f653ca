"""Exact ramification invariants over p-adic bases.

Artin characters and their cyclotomic bisection, base change conductors of
character modules via the class-function pairing, Weil restriction and the
induction formula, plus a truncated mixed power series kernel with the
Gauss/lattice valuation, Weierstrass division, formal multiplicative-group
endomorphisms, dilatation lattices and symmetric descent generators.
"""

__version__ = "0.1.0"

from .characters import (
    ClassFunction,
    artin_conductor,
    induce,
    pair,
    regular_character,
    restrict,
    trivial_character,
)
from .conductors import (
    CharModule,
    Conductor,
    adapt_lattice,
    adapt_lattice_pair,
    check_adapted_basis,
    conductor,
    conductor_via_induction,
    direct_sum,
    is_isogenous,
    module_character,
    module_from_generators,
    permutation_module,
    regular_module,
    split_idempotent,
    trivial_module,
    weil_restriction,
)
from .errors import CheckFailure, InputError
from .exact import (
    CycloNum,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    p_valuation,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    make_cyclic,
    make_product,
    make_symmetric,
    subgroup,
)
from .ramification import (
    RamData,
    artin_character,
    bisection,
    disc_valuation,
    i_gamma,
    ram_data,
    restrict_ramdata,
)
from .series import (
    MixedSeries,
    SeriesRingSpec,
    dilatation_member,
    endo_apply,
    endo_to_scalar,
    gauss_valuation,
    is_distinguished,
    is_lattice_member,
    mult_endo,
    substitute,
    symmetric_descent,
    weierstrass_divide,
)
