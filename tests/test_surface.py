"""The library exports only what its callers use.

Every name in a module's ``__all__`` must be referenced somewhere in
``src/``, ``scripts/`` or ``perfbench/`` other than by its own definition, its
``__all__`` entry or a re-export in ``ruin2d/__init__.py``.  Reference
implementations that only the tests call live in ``tests/oracles.py``.  Every
field of a dataclass or ``NamedTuple`` in ``src/`` must be read as an
attribute somewhere in those same directories.  Every parameter default of
an exported function must be overridden by some call in them: an option that
no caller sets is a constant.

The library raises only the classes of ``ruin2d/errors.py``, and every one of
them is raised, warned or subclassed.  In ``cli.py`` only ``main`` turns an
outcome into an exit code.

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


def defaulted_parameters(path: Path) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` of each default of an exported function.

    ``position`` is the parameter's index among the positional parameters, or
    None for a keyword-only one.
    """
    names = set(exported(path))
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            out += [(node.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            out += [(node.name, arg.arg, None)
                    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None]
    return out


@functools.cache
def calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the caller directories, keyed by the called name or attribute."""
    out: dict[str, list[ast.Call]] = {}
    for _, tree in parsed_callers():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """``call`` sets the parameter, or might: a ``*args`` or ``**kwargs`` counts."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


DEFAULTS = [(path.stem, *d) for path in sorted(PACKAGE.glob("*.py")) for d in defaulted_parameters(path)]

# defaults that stay although no caller sets them, with the reason
UNSET_ALLOWED = {
    ("invert_2d", "m"): "perfbench/tracing.py reads its default to count psi_tilde evaluations",
}


def test_defaulted_parameters_found():
    assert ("pde", "solve", "tol", 4) in DEFAULTS
    assert {(function, name) for _, function, name, _ in DEFAULTS} >= UNSET_ALLOWED.keys()


@pytest.mark.parametrize(
    "module, function, name, position", [d for d in DEFAULTS if d[1:3] not in UNSET_ALLOWED]
)
def test_option_is_set_by_a_caller(module, function, name, position):
    calls = calls_by_name().get(function, [])
    assert any(passes(call, name, position) for call in calls), (
        f"no caller sets ruin2d.{module}.{function}'s {name}: make it a constant"
    )


def scoped_nodes(path: Path) -> list[tuple[str, ast.AST]]:
    """``(scope, node)`` for every node of ``path``.

    ``scope`` is the dotted name of the innermost enclosing class or function,
    such as ``DerivedConstants.__getattr__``, or ``""`` at module level.
    """

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from visit(child, inner)

    return list(visit(ast.parse(path.read_text()), ""))


def raised(node: ast.Raise) -> str | None:
    """The class name in ``raise Name``, ``raise Name(...)`` or ``raise mod.Name(...)``."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) or getattr(exc, "attr", None)


ERROR_CLASSES = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
                 if isinstance(node, ast.ClassDef)}

# raises of a class from outside errors.py, with the reason
FOREIGN_RAISE_ALLOWED = {
    ("model.py", "DerivedConstants.__getattr__", "AttributeError"):
        "copy and pickle probe attributes and expect AttributeError for a missing one",
}


def test_library_raises_only_its_own_errors():
    found = {(path.name, scope, raised(node))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for scope, node in scoped_nodes(path) if isinstance(node, ast.Raise)}
    assert FOREIGN_RAISE_ALLOWED.keys() <= found
    foreign = sorted(f for f in found if f[2] not in ERROR_CLASSES and f not in FOREIGN_RAISE_ALLOWED)
    assert foreign == [], "raise a class of ruin2d/errors.py instead"


def test_every_error_class_is_raised_warned_or_subclassed():
    used = set()
    for path in PACKAGE.glob("*.py"):
        for _, node in scoped_nodes(path):
            if isinstance(node, ast.Raise):
                used.add(raised(node))
            elif isinstance(node, ast.ClassDef):
                used.update(base.id for base in node.bases if isinstance(base, ast.Name))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                used.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    assert ERROR_CLASSES >= {"Ruin2dError", "DomainError", "ToleranceNotMet"}
    assert sorted(ERROR_CLASSES - used) == []


def test_only_main_returns_an_exit_code():
    found = []
    for scope, node in scoped_nodes(PACKAGE / "cli.py"):
        if scope == "main":
            continue
        if isinstance(node, ast.Raise) and raised(node) == "SystemExit":
            found.append((scope, "raises SystemExit"))
        if isinstance(node, ast.Return) and node.value is not None:
            if any(isinstance(n, ast.Name) and n.id.startswith("EXIT_") for n in ast.walk(node.value)):
                found.append((scope, "returns an exit code"))
            elif scope.startswith("cmd_"):
                found.append((scope, "a command returns a value"))
    assert found == []


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
