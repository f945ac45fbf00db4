"""The package keeps no mutable module state, so no result depends on call
order or on threads: no module under ``src/entcost`` rebinds a global.  Its
export list names exactly the public names it binds, and each public
function's optional parameters are pinned, so a new knob is a reviewed
change to this file."""

import ast
import inspect
import types
from pathlib import Path

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


def test_export_list_is_sorted_complete_and_resolves():
    names = entcost.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(entcost, name) for name in names)
    public = {name for name, value in vars(entcost).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


# every exported function that takes an optional parameter, with those
# parameters in signature order; fixed limits are module constants instead
OPTIONAL_PARAMETERS = {
    "aep_bounds_check": ["bound_delta"],
    "beta_of_energy": ["rtol"],
    "curtailed_binomial_sample": ["size", "seed"],
    "entropy_tail_uncertainty": ["dim_bound"],
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
