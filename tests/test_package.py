import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import ramcond
from ramcond.conductors import induction_formula

MODULES = sorted(info.name for info in pkgutil.iter_modules(ramcond.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ramcond.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _imported_top_levels(path):
    """Top-level names of every absolute import in a file, nested ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


SOURCES = sorted(Path(ramcond.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_standard_library(path):
    foreign = {
        top
        for top in _imported_top_levels(path)
        if top != "ramcond" and top not in sys.stdlib_module_names
    }
    assert foreign == set()


def _calls_unpacking_a_generator(path):
    """Line numbers of calls ``f(*(x for ...))`` and ``tuple(x for ...)`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                yield node.lineno
            for arg in node.args:
                if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                    yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_call_unpacks_a_generator(path):
    # f(*generator) and tuple(generator) both build their tuple from the
    # generator the same way: they take a tuple from the free list of size
    # 10, resize it, and free it to the list of its final size.  Each call
    # moves one tuple between free lists, which then hold up to 2,000 tuples
    # each until a full collection.  Unpack or convert a list instead.
    assert list(_calls_unpacking_a_generator(path)) == []


# The CycloNum values of a class function are a view: the CLI displays them
# and verify checks on them independently of the forms the rest computes on.
VALUES_VIEW_READERS = {"cli.py", "verify.py"}
VALUES_VIEW_SCOPES = {"ClassFunction.values", "ClassFunction.__repr__"}


def _values_reads(path):
    """(scope, line) of each read of an attribute ``.values`` that is not a method call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "values"
            and isinstance(node.ctx, ast.Load)
            and id(node) not in called
        ):
            yield scope, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(tree, ""))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_values_view_stays_off_the_computing_path(path):
    if path.name in VALUES_VIEW_READERS:
        return
    reads = [(scope, line) for scope, line in _values_reads(path) if scope not in VALUES_VIEW_SCOPES]
    assert reads == []


# Ramification data is built by its one checked constructor; restriction
# alone reads checked data on a subgroup and re-checks nothing.  A later
# producer of ramification data goes through ``_from_breaks``.
RAMDATA_BUILDERS = {("ramification.py", "_from_breaks"), ("ramification.py", "restrict_ramdata")}


def _calls(path, name):
    """The enclosing scope of each call ``name(...)`` or ``<module>.name(...)``."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(ast.parse(path.read_text(encoding="utf-8")), ""))


def test_ramdata_is_built_only_by_the_checked_constructor_and_restriction():
    builders = {(path.name, scope) for path in SOURCES for scope in _calls(path, "RamData")}
    assert builders == RAMDATA_BUILDERS


# A pairing with a rational character is read per rational class by one
# reader in characters.py; ramification data holds no class sums.
RATIONAL_PAIRING_CALLERS = {("characters.py", "pair"), ("conductors.py", "conductor")}


def test_rational_classes_are_summed_for_a_pairing_by_one_reader():
    callers = {(path.name, scope) for path in SOURCES for scope in _calls(path, "_rational_pairing")}
    assert callers == RATIONAL_PAIRING_CALLERS
    ramification = next(path for path in SOURCES if path.name == "ramification.py")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(ramification.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "rational_classes" not in imported


# Methods that change a list, dict or set in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "sort", "reverse",
    "add", "discard", "update", "difference_update", "intersection_update",
    "symmetric_difference_update", "setdefault", "pop", "popitem", "clear",
    "__setitem__", "__delitem__",
})


def _module_state_writes(source):
    """(name, line) of each write from inside a function to a module-level name.

    A write is an item or attribute assignment or deletion on the name, a
    call of one of its mutating methods, or a ``global`` statement for it.
    A name the function binds itself is its own and not counted.
    """
    tree = ast.parse(source)
    module_names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            module_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(node.target, ast.Name):
            module_names.add(node.target.id)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(fn))
        declared = {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
        found.update((name, fn.lineno) for name in declared)
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local -= declared
        for node in nodes:
            target = None
            if isinstance(node, (ast.Subscript, ast.Attribute)):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATING_METHODS:
                    target = node.func.value
            if isinstance(target, ast.Name) and target.id in module_names - local:
                found.add((target.id, node.lineno))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_state_is_only_a_cache(path):
    # State shared by every caller in the process is allowed only as a pure
    # idempotent map, named *_CACHE: it can change how fast an answer comes,
    # never which answer.  Anything else belongs to an object callers pass.
    writes = _module_state_writes(path.read_text(encoding="utf-8"))
    assert [(name, line) for name, line in writes if not name.endswith("_CACHE")] == []


def test_module_state_lint_sees_writes():
    source = (
        "_CACHE = {}\nSEEN = {}\nCOUNT = 0\nNAMES = []\n"
        "def f(x):\n    _CACHE[x] = 1\n    SEEN[x] = 1\n"
        "def g():\n    global COUNT\n    COUNT += 1\n"
        "def h(NAMES):\n    NAMES.append(1)\n"
        "def k(x):\n    NAMES.append(x)\n    del SEEN[x]\n"
    )
    assert _module_state_writes(source) == [
        ("COUNT", 8), ("NAMES", 14), ("SEEN", 7), ("SEEN", 15), ("_CACHE", 6),
    ]


def test_module_caches_are_the_known_ones():
    caches = {
        (path.stem, name)
        for path in SOURCES
        for name, _ in _module_state_writes(path.read_text(encoding="utf-8"))
    }
    assert caches == {
        ("catalog", "_CACHE"),
        ("exact", "_CYCLOTOMIC_CACHE"),
        ("exact", "_TAME_ROW_CACHE"),
        ("exact", "_ZETA_POWER_CACHE"),
    }


_C4 = ramcond.make_cyclic(4)
_C4_RD = ramcond.ram_data(_C4, 2, [range(4), (0, 2)], None)
_WRONG_TYPES = [
    ("make_cyclic", lambda: ramcond.make_cyclic(2.0), "2.0"),
    ("make_cyclic-bool", lambda: ramcond.make_cyclic(True), "True"),
    ("make_symmetric", lambda: ramcond.make_symmetric(3.0), "3.0"),
    ("make_symmetric-negative", lambda: ramcond.make_symmetric(-1), "-1"),
    ("cyclotomic_polynomial", lambda: ramcond.cyclotomic_polynomial(4.0), "4.0"),
    ("trivial_module-rank", lambda: ramcond.trivial_module(_C4, 3, rank=2.0), "2.0"),
    ("trivial_module-negative", lambda: ramcond.trivial_module(_C4, 3, rank=-1), "-1"),
    ("i_gamma", lambda: ramcond.i_gamma(_C4_RD, 1.0), "1.0"),
    ("i_gamma-range", lambda: ramcond.i_gamma(_C4_RD, -1), "-1"),
    ("ram_data", lambda: ramcond.ram_data(_C4, 2.0, [range(4), (0, 2)], None), "2.0"),
    ("is_prime", lambda: ramcond.is_prime(3.0), "3.0"),
    ("euler_phi", lambda: ramcond.euler_phi(4.0), "4.0"),
    ("module-prime", lambda: ramcond.trivial_module(_C4, 2.5, rank=0), "2.5"),
    ("module-prime-composite", lambda: ramcond.trivial_module(_C4, 4, rank=0), "4"),
]


@pytest.mark.parametrize(
    "call, shown", [c[1:] for c in _WRONG_TYPES], ids=[c[0] for c in _WRONG_TYPES]
)
def test_public_readers_refuse_a_wrong_type_naming_it(call, shown):
    with pytest.raises(ramcond.InputError, match=re.escape(shown)):
        call()


_NON_ITERABLES = [
    ("subgroup", lambda: ramcond.subgroup(_C4, 5), "subgroup elements must be an iterable of ids, got 5"),
    ("Subgroup", lambda: ramcond.Subgroup(_C4, 5), "subgroup elements must be an iterable of ids, got 5"),
    (
        "CharModule",
        lambda: ramcond.CharModule("m", _C4, 3, 5),
        "module action must map element ids to matrices, got 5",
    ),
    (
        "CharModule-list",
        lambda: ramcond.CharModule("m", _C4, 3, [0, 1, 2, 3]),
        "module action must map element ids to matrices, got [0, 1, 2, 3]",
    ),
    (
        "module_from_generators",
        lambda: ramcond.module_from_generators("m", _C4, 3, 5),
        "generator action must map element ids to matrices, got 5",
    ),
    ("FiniteGroup", lambda: ramcond.FiniteGroup(5), "Cayley table must be an iterable of rows, got 5"),
    (
        "FiniteGroup-row",
        lambda: ramcond.FiniteGroup([[0, 1], 5]),
        "Cayley table row 1 must be an iterable of ids, got 5",
    ),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in _NON_ITERABLES], ids=[c[0] for c in _NON_ITERABLES]
)
def test_non_iterable_arguments_are_refused_naming_them(call, message):
    with pytest.raises(ramcond.InputError) as excinfo:
        call()
    assert str(excinfo.value) == message


_C4_MODULE = ramcond.trivial_module(_C4, 2)
_C2_SUB = ramcond.subgroup(_C4, (0, 2))
_ONE = [[1]]
_MODULE_READERS = [
    ("module_character", lambda m: ramcond.module_character(m)),
    ("conductor", lambda m: ramcond.conductor(m, _C4_RD)),
    ("weil_restriction", lambda m: ramcond.weil_restriction(m, _C2_SUB)),
    ("induction_formula", lambda m: induction_formula(m, _C2_SUB, _C4_RD)),
    ("conductor_via_induction", lambda m: ramcond.conductor_via_induction(m, _C2_SUB, _C4_RD)),
    ("is_isogenous-first", lambda m: ramcond.is_isogenous(m, _C4_MODULE)),
    ("is_isogenous-second", lambda m: ramcond.is_isogenous(_C4_MODULE, m)),
    ("direct_sum-first", lambda m: ramcond.direct_sum(m, _C4_MODULE)),
    ("direct_sum-second", lambda m: ramcond.direct_sum(_C4_MODULE, m)),
    ("split_idempotent", lambda m: ramcond.split_idempotent(m, _ONE)),
    ("adapt_lattice", lambda m: ramcond.adapt_lattice(m, _ONE)),
    ("adapt_lattice_pair", lambda m: ramcond.adapt_lattice_pair(m, _ONE, _ONE)),
    ("check_adapted_basis", lambda m: ramcond.check_adapted_basis(m, _ONE, _ONE)),
]


@pytest.mark.parametrize("read", [r[1] for r in _MODULE_READERS], ids=[r[0] for r in _MODULE_READERS])
@pytest.mark.parametrize("bad", [(1,), 5, None, _C4_RD], ids=["tuple", "int", "None", "RamData"])
def test_module_readers_refuse_a_non_module(read, bad):
    with pytest.raises(ramcond.InputError) as excinfo:
        read(bad)
    assert str(excinfo.value) == f"module must be a CharModule, got {bad!r}"


_C4_CHI = ramcond.trivial_character(_C4)
_C2_MODULE = ramcond.trivial_module(_C2_SUB.as_group()[0], 2)
_RAMDATA_READERS = [
    ("i_gamma", lambda rd: ramcond.i_gamma(rd, 1)),
    ("artin_character", ramcond.artin_character),
    ("bisection", ramcond.bisection),
    ("disc_valuation", lambda rd: ramcond.disc_valuation(rd, _C2_SUB)),
    ("restrict_ramdata", lambda rd: ramcond.restrict_ramdata(rd, _C2_SUB)),
    ("artin_conductor", lambda rd: ramcond.artin_conductor(rd, _C4_CHI)),
    ("conductor", lambda rd: ramcond.conductor(_C4_MODULE, rd)),
    ("induction_formula", lambda rd: induction_formula(_C2_MODULE, _C2_SUB, rd)),
    ("conductor_via_induction", lambda rd: ramcond.conductor_via_induction(_C2_MODULE, _C2_SUB, rd)),
]


@pytest.mark.parametrize("read", [r[1] for r in _RAMDATA_READERS], ids=[r[0] for r in _RAMDATA_READERS])
@pytest.mark.parametrize("bad", [(1,), 5, None, _C4_MODULE], ids=["tuple", "int", "None", "CharModule"])
def test_ramification_readers_refuse_a_non_ramdata(read, bad):
    with pytest.raises(ramcond.InputError) as excinfo:
        read(bad)
    assert str(excinfo.value) == f"ramification data must be a RamData, got {bad!r}"


_CLASS_FUNCTION_READERS = [
    ("pair-first", lambda f: ramcond.pair(f, _C4_CHI)),
    ("pair-second", lambda f: ramcond.pair(_C4_CHI, f)),
    ("induce", lambda f: ramcond.induce(f, _C2_SUB)),
    ("restrict", lambda f: ramcond.restrict(f, _C2_SUB)),
    ("artin_conductor", lambda f: ramcond.artin_conductor(_C4_RD, f)),
]


@pytest.mark.parametrize(
    "read", [r[1] for r in _CLASS_FUNCTION_READERS], ids=[r[0] for r in _CLASS_FUNCTION_READERS]
)
@pytest.mark.parametrize("bad", [(1,), 5, None, _C4_RD], ids=["tuple", "int", "None", "RamData"])
def test_class_function_readers_refuse_a_non_class_function(read, bad):
    with pytest.raises(ramcond.InputError) as excinfo:
        read(bad)
    assert str(excinfo.value) == f"class function must be a ClassFunction, got {bad!r}"
