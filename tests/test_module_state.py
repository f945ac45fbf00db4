"""The package keeps no mutable module state, so no result depends on call
order or on threads: no module under ``src/entcost`` rebinds a global.  Its
export list names exactly the public names it binds."""

import ast
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
