"""The library exports only what its callers use.

Every name in a module's ``__all__`` must be referenced somewhere in
``src/``, ``scripts/`` or ``perfbench/`` other than by its own definition, its
``__all__`` entry or a re-export in ``ruin2d/__init__.py``.  Reference
implementations that only the tests call live in ``tests/oracles.py``.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ruin2d"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def exported(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


@functools.cache
def referenced() -> frozenset[str]:
    """Names loaded, attributes read and names imported, outside ``__init__.py``."""
    names = set()
    for root in CALLERS:
        for path in root.rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return frozenset(names)


EXPORTS = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) for name in exported(path)]


def test_every_module_has_exports():
    assert {module for module, _ in EXPORTS} >= {
        "__init__", "closedform", "mc", "model", "onedim", "pde", "transform"}


@pytest.mark.parametrize("module, name", EXPORTS)
def test_export_has_a_caller(module, name):
    assert name in referenced(), f"ruin2d.{module}.{name} is exported but nothing calls it"
