"""The library exports only what its callers use.

Every name in a module's ``__all__`` must be referenced somewhere in
``src/``, ``scripts/`` or ``perfbench/`` other than by its own definition, its
``__all__`` entry or a re-export in ``ruin2d/__init__.py``; an exported
function must be called or imported by name there, so that a variable or an
attribute of the same name does not count.  Reference
implementations that only the tests call live in ``tests/oracles.py``, and so
every private top-level function, class and constant of ``src/ruin2d/`` must be
referenced in those same directories beyond its own definition.  Every
field of a dataclass or ``NamedTuple`` in ``src/`` must be read as an
attribute somewhere in those same directories.  Every parameter default of
an exported function must be overridden by some call in them: an option that
no caller sets is a constant.

The library raises only the classes of ``ruin2d/errors.py``, and every one of
them is raised, warned or subclassed.  In ``cli.py`` only ``main`` turns an
outcome into an exit code.

A fresh process imports scipy only where it is used: the first cut integral
of an upper-cone exact answer loads ``scipy.integrate``.

The benchmark in ``perfbench/`` times the library by replacing module
attributes and reads some of its defaults, so those stay: every attribute it
patches exists, and one short traced run measures every per-layer metric.
"""

import ast
import functools
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ruin2d.cli import main
from ruin2d.model import derive

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


@functools.cache
def called_or_imported() -> frozenset[str]:
    """Names called (as ``name(...)`` or ``obj.name(...)``) or imported, outside ``__init__.py``."""
    names = set()
    for path, tree in parsed_callers():
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                names.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return frozenset(names)


@functools.cache
def functions() -> frozenset[str]:
    """The names of the functions defined at the top level of ``src/ruin2d/``."""
    return frozenset(node.name for path in PACKAGE.glob("*.py")
                     for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.FunctionDef))


EXPORTS = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) for name in exported(path)]


def test_every_module_has_exports():
    assert {module for module, _ in EXPORTS} >= {
        "__init__", "closedform", "mc", "model", "onedim", "pde", "transform"}


@pytest.mark.parametrize("module, name", EXPORTS)
def test_export_has_a_caller(module, name):
    used = called_or_imported() if name in functions() else referenced()
    assert name in used, f"ruin2d.{module}.{name} is exported but nothing calls it"


def private_names(path: Path) -> list[str]:
    """The private functions, classes and constants defined at the top level of ``path``."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


PRIVATE = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) for name in private_names(path)]


def test_private_names_found():
    assert {("mc", "_Workspace"), ("mc", "_run"), ("pde", "_solve_once")} <= set(PRIVATE)


@pytest.mark.parametrize("module, name", PRIVATE)
def test_private_name_has_a_caller(module, name):
    assert name in referenced(), f"ruin2d.{module}.{name} is used only by tests: move it to them"


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
    ["ruin", *MODEL, "--u", "1", "3", "--method", "invert"],
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


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracing")


def test_benchmark_hooks_resolve(tracing):
    for module, attr, *_ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    # reads invert_2d's default m and mc.CHUNK
    assert tracing.computed_counts()["mc.chunks"] >= 1
    # calls transform.ab(model, q, dc) across the cut
    b_max, span = tracing._cut_shape("P0")
    dc = derive(tracing.workloads.model("P0"))
    assert b_max == pytest.approx(dc.b_max, rel=1e-6)
    assert span == dc.q_minus_end - dc.q_plus_end


def test_traced_benchmark_run_measures_every_layer(tmp_path):
    """One short traced ``point_queries`` run, in a copy so that its span file lands there."""
    skip = shutil.ignore_patterns("__pycache__", "results")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_queries", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert layers <= result["metrics"].keys()
    assert result["correct"]
