"""The library runs on the standard library alone.

The test oracles lean on sympy, networkx and hypothesis; none of them,
nor the test tools, may become an import of the library, and the
package declares no runtime dependency.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidforge"
TEST_ONLY = {"sympy", "networkx", "hypothesis", "jsonschema", "pytest"}


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import, at any depth."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_imports_no_test_only_package():
    nested = "def f():\n    from sympy.matrices import Matrix\n    import pytest.x\n"
    assert _imported_roots(ast.parse(nested)) == {"sympy", "pytest"}
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        found = _imported_roots(ast.parse(path.read_text(), filename=str(path))) & TEST_ONLY
        if found:
            offenders[path.name] = sorted(found)
    assert offenders == {}


def test_project_declares_no_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
