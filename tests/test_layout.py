"""Layout rules of the package, checked on the source with ``ast``.

- Every heap-based shortest-path loop lives in ``graph``, so ``heapq`` is
  imported there and nowhere else in the package.
- ``spanner``, ``nets``, ``trees`` and ``verify`` import ``scan`` by name:
  perfbench/tracing.py rebinds it in each of them to count full scans.
- The verifier stays independent of the builder: from ``spanner`` it takes
  only the data classes it reads, ``BuildInternals`` and ``Spanner``.
- Verifier reports serialize from their fields: in ``verify`` only the
  reports' base defines ``to_json_dict``, and ``LightnessReport`` overrides
  it for the shape of its ``per_phase`` table.
- ``lightspanner.__all__`` lists exactly the names ``__init__`` imports, so
  ``from lightspanner import *`` does not break when an export is removed
  from only one of the two lists.
"""
import ast
import pathlib

import pytest

import lightspanner

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lightspanner"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(path):
    """(module, name) for every import in the file; name is None for ``import m``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.extend((module, alias.name) for alias in node.names)
    return found


def test_the_package_has_modules():
    assert {"graph.py", "verify.py", "spanner.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_heapq_is_imported_only_by_graph(path):
    uses_heapq = any(module == "heapq" for module, _ in _imports(path))
    assert not uses_heapq or path.name == "graph.py"


@pytest.mark.parametrize("module", ["spanner", "nets", "trees", "verify"])
def test_traced_callers_bind_scan(module):
    assert (".graph", "scan") in _imports(PACKAGE / f"{module}.py")


def test_verify_imports_only_data_classes_from_spanner():
    imports = _imports(PACKAGE / "verify.py")
    names = {name for module, name in imports if module in (".spanner", "lightspanner.spanner")}
    assert names == {"BuildInternals", "Spanner"}
    # the whole module, which would bring every builder helper along
    assert (".", "spanner") not in imports and ("lightspanner", "spanner") not in imports
    assert ("lightspanner.spanner", None) not in imports


def test_only_the_report_base_and_lightness_define_to_json_dict():
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    defining = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "to_json_dict" for item in node.body)
    }
    assert defining == {"_Report", "LightnessReport"}


def test_all_lists_exactly_the_package_imports():
    imported = [name for _, name in _imports(PACKAGE / "__init__.py")]
    assert sorted(lightspanner.__all__) == sorted(imported)
