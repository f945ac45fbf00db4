"""The package keeps no mutable module state, so no result depends on call
order or on threads: no module under ``src/entcost`` rebinds a global or
memoises into a module-level cache.  A result worth keeping is kept on the
value object it derives from, as a state keeps its convex-roof estimates.
Its export list names exactly the public names it binds, and each public
function's optional parameters are pinned, so a new knob is a reviewed
change to this file."""

import ast
import inspect
import types
from pathlib import Path

import pytest

import entcost

SOURCE = Path(__file__).resolve().parents[1] / "src" / "entcost"


def test_no_module_has_a_global_statement():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SOURCE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Global)]
    assert found == []


# the one module-level memo: the commit hash the CLI prints, fixed for the
# life of a process
MEMOISED = {"cli._git_hash"}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop",
             "popitem", "clear", "remove", "discard"}


def _name(node) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _module_caches(tree: ast.Module, module: str) -> set:
    """Functions decorated with functools.cache or lru_cache, and module-level
    dicts, lists and sets that the module writes to after binding them."""
    found = {f"{module}.{node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for dec in node.decorator_list
             if _name(dec.func if isinstance(dec, ast.Call) else dec)
             in ("cache", "lru_cache")}
    containers = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                              ast.SetComp)) or (isinstance(value, ast.Call)
                                                and _name(value.func) in _CONTAINER_CALLS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            written = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            written = node.func.value
        else:
            continue
        if isinstance(written, ast.Name) and written.id in containers:
            found.add(f"{module}.{written.id}")
    return found


def test_the_cache_check_sees_each_form():
    source = """
import functools
from functools import lru_cache
_SEEN = {}
_ORDER = []
_TABLE = {"a": 1}
_GONE = dict(a=1)
_TYPED: set = set()

@functools.cache
def a(): ...

@lru_cache(maxsize=None)
def b(): ...

def c(k):
    _SEEN[k] = 1
    _ORDER.append(k)
    del _GONE["a"]
    _TYPED.add(k)
    return _TABLE[k]
"""
    assert _module_caches(ast.parse(source), "m") == {"m.a", "m.b", "m._SEEN", "m._ORDER",
                                                      "m._GONE", "m._TYPED"}


def test_no_module_memoises_at_module_level():
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        found |= _module_caches(ast.parse(path.read_text(), filename=str(path)), module)
    assert found == MEMOISED


def test_export_list_is_sorted_complete_and_resolves():
    names = entcost.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(entcost, name) for name in names)
    public = {name for name, value in vars(entcost).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


# the census engine's steps, each with one caller: one reader of the type
# table, and one weak judge for the census, a single sequence and a Monte
# Carlo draw
ONE_CALLER = {"_prefix_blocks": "typicality._judged_blocks",
              "_log2_prob": "typicality._judge"}


def _callers(name: str) -> set:
    """The functions under src/entcost, by module, that call ``name``
    (the module itself for a call outside any function)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        elif isinstance(node, ast.Call) and _name(node.func) == name:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        visit(ast.parse(path.read_text(), filename=str(path)), module)
    return found


def test_each_census_step_has_one_caller():
    # _prefix_blocks builds its blocks by recursion
    found = {name: _callers(name) - {"typicality._prefix_blocks"} for name in ONE_CALLER}
    assert found == {name: {caller} for name, caller in ONE_CALLER.items()}


# the one strong rule: _near judges a count, and _box finds the run of counts
# it admits, for the strong program, the strong Monte Carlo draws and the
# curtailed binomial
STRONG_RULE = {"_near": {"typicality._box"},
               "_box": {"typicality._strong_program", "typicality._mc_mass",
                        "dilution._curtailed_support"}}


def test_the_strong_rule_has_one_home():
    assert {name: _callers(name) for name in STRONG_RULE} == STRONG_RULE


# the one door: only it builds the source record the engines read, and
# every typicality entry (the mass reports through _typical_report) and
# dilution's sweep pass it
ONE_DOOR = {"_Source": {"typicality._check_block"},
            "_check_block": {"typicality.is_weakly_typical", "typicality._typical_report",
                             "typicality.weak_typical_census", "typicality.aep_bounds_check",
                             "dilution.dilution_sweep"}}


def test_every_source_passes_one_door():
    assert {name: _callers(name) for name in ONE_DOOR} == ONE_DOOR


# every exported function that takes an optional parameter, with those
# parameters in signature order; fixed limits are module constants instead
OPTIONAL_PARAMETERS = {
    "aep_bounds_check": ["bound_delta"],
    "beta_of_energy": ["rtol"],
    "curtailed_binomial_sample": ["size", "seed"],
    "dilution_sweep": ["mode", "samples", "seed"],
    "eof_estimate": ["ensemble_size", "restarts", "iterations", "seed"],
    "harmonic_oscillator": ["levels"],
    "majorization_sweep": ["threads"],
    "pure_dilution": ["mode", "samples", "seed"],
    "random_density_state": ["rank"],
    "random_product_instrument": ["branches_a", "branches_b", "conditioned"],
    "regularized_probe": ["n_max"],
    "strong_typical_mass": ["mode", "samples", "seed"],
    "weak_typical_mass": ["mode", "samples", "seed"],
}


def test_optional_parameters_of_public_functions_are_pinned():
    found = {}
    for name in entcost.__all__:
        value = getattr(entcost, name)
        if not inspect.isfunction(value):
            continue
        optional = [p.name for p in inspect.signature(value).parameters.values()
                    if p.default is not inspect.Parameter.empty]
        if optional:
            found[name] = optional
    assert found == OPTIONAL_PARAMETERS


def test_only_the_formation_callers_take_keyword_options():
    # each public function that takes **kwargs forwards them to eof_estimate
    # as its estimate options; any other option is a named parameter above
    rho = entcost.random_density_state(entcost.stream(0, 0), 2, 2)
    calls = {
        "converse_bound": lambda **kw: entcost.converse_bound(
            rho, 1.0, 0.01, entcost.harmonic_oscillator(), 2, **kw),
        "eof_surrogate_for_copies": lambda **kw: entcost.eof_surrogate_for_copies(
            rho, 2, **kw),
        "regularized_probe": lambda **kw: entcost.regularized_probe(rho, **kw),
    }
    found = {name for name in entcost.__all__
             if inspect.isfunction(getattr(entcost, name))
             and any(p.kind is inspect.Parameter.VAR_KEYWORD for p in
                     inspect.signature(getattr(entcost, name)).parameters.values())}
    assert found == set(calls)
    for call in calls.values():
        with pytest.raises(TypeError, match="eof_estimate"):
            call(bogus=1)


# the one home of the integer rule: only spectra._checked_int asks whether an
# argument is a NumPy integer; the CLI's output formatters only print one
INTEGER_TYPE_READERS = {"spectra._checked_int", "cli._jsonable", "cli._fmt"}


def _readers(attr: str, modules=("np", "numpy")) -> set:
    """The functions under src/entcost, by module, that name ``<attr>`` of
    one of ``modules``, NumPy by default (the module itself for a use
    outside any function)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == attr \
                and _name(node.value) in modules:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        visit(ast.parse(path.read_text(), filename=str(path)), module)
    return found


def test_integer_arguments_are_checked_in_one_place():
    assert _readers("integer") == INTEGER_TYPE_READERS


def test_real_arguments_are_checked_in_one_place():
    # the one home of the real rule: only spectra._checked_real asks whether
    # an argument is a real number
    assert _readers("Real", ("numbers",)) == {"spectra._checked_real"}
