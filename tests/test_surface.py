"""The library exports only what its callers use.

Every name in a module's ``__all__`` must be referenced somewhere in
``src/``, ``scripts/`` or ``perfbench/`` other than by its own definition, its
``__all__`` entry or a re-export in ``ruin2d/__init__.py``.  Reference
implementations that only the tests call live in ``tests/oracles.py``.  Every
field of a dataclass or ``NamedTuple`` in ``src/`` must be read as an
attribute somewhere in those same directories.

A fresh process imports scipy only where it is used: the first cut integral
of an upper-cone exact answer loads ``scipy.integrate``.
"""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ruin2d.cli import main

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


def parsed_callers():
    for root in CALLERS:
        for path in root.rglob("*.py"):
            yield path, ast.parse(path.read_text())


@functools.cache
def referenced() -> frozenset[str]:
    """Names loaded, attributes read and names imported, outside ``__init__.py``."""
    names = set()
    for path, tree in parsed_callers():
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(tree):
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


@functools.cache
def attributes_read() -> frozenset[str]:
    return frozenset(
        node.attr for _, tree in parsed_callers() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _named(node: ast.expr, name: str) -> bool:
    """``node`` is ``name`` or a call of it, as in ``@dataclass(frozen=True)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and node.id == name


def record_fields(path: Path) -> list[tuple[str, str]]:
    """``(class, field)`` for each dataclass and ``NamedTuple`` defined in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and (
            any(_named(d, "dataclass") for d in node.decorator_list)
            or any(_named(b, "NamedTuple") for b in node.bases)
        ):
            out += [(node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


FIELDS = [(path.stem, *field) for path in sorted(PACKAGE.glob("*.py")) for field in record_fields(path)]


def test_record_fields_found():
    assert ("closedform", "SurvivalResult", "quadrature_error") in FIELDS
    assert ("transform", "CutPoint", "f") in FIELDS


@pytest.mark.parametrize("module, cls, name", FIELDS)
def test_record_field_is_read(module, cls, name):
    assert name in attributes_read(), f"ruin2d.{module}.{cls}.{name} is never read"


STARTUP_CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from ruin2d.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return {"code": code, "out": out.getvalue(),
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}

print(json.dumps([run(argv) for argv in json.loads(sys.argv[2])]))
"""

MODEL = ["--lam", "1", "--mu", "1", "--c", "3", "2"]
WITHOUT_SCIPY = [
    ["derive", *MODEL],
    ["ruin", *MODEL, "--u", "3", "1"],
    ["ruin", *MODEL, "--u", "1", "3", "--method", "pde", "--steps", "20"],
    ["ruin", *MODEL, "--u", "1", "3", "--method", "mc", "--paths", "200", "--horizon", "5"],
    ["invert", *MODEL, "--x", "1", "3"],
    ["transform", *MODEL, "--p", "1", "--q", "2"],
    ["simulate", *MODEL, "--u", "1", "3", "--paths", "200", "--horizon", "5"],
]
UPPER_CONE_EXACT = ["ruin", *MODEL, "--u", "1", "3"]


def test_cold_start_loads_scipy_only_for_the_cut_integral(capsys):
    """A fresh process imports scipy on its first cut integral, and not before."""
    commands = [*WITHOUT_SCIPY, UPPER_CONE_EXACT]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, str(ROOT / "src"), json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    runs = json.loads(proc.stdout)
    for argv, run in zip(WITHOUT_SCIPY, runs):
        assert run["code"] == 0, argv
        assert run["scipy"] == [], f"{argv[0]} loaded {run['scipy'][:3]}"
    exact = runs[-1]
    assert "scipy.integrate" in exact["scipy"]
    assert (exact["code"], exact["out"]) == (main(UPPER_CONE_EXACT), capsys.readouterr().out)
