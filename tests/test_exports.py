"""Every name a module of ``sqrw`` exports resolves, star imports succeed, no
private name of ``sqrw`` is left for the tests alone, every import is used,
and no module names ``linalg``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sqrw

MODULES = ["sqrw"] + [f"sqrw.{m.name}" for m in pkgutil.iter_modules(sqrw.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_package_reexports_only_exported_names():
    # a name that leaves a module's __all__ leaves the package too
    for name, value in vars(sqrw).items():
        home = importlib.import_module(getattr(value, "__module__", None) or "sqrw")
        if not name.startswith("_") and hasattr(home, "__all__"):
            assert name in home.__all__, f"sqrw.{name} is not in {home.__name__}.__all__"


def _private_definitions(tree):
    """(name, node) for each module-level function, class or assignment whose name starts with _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_used_in_src():
    # code that only tests call belongs in tests/; an import alone is not a use
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(Path(sqrw.__file__).parent.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                uses.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                uses.setdefault(n.attr, []).append(n)
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in uses.get(name, [])):
                unused.append(f"{module}:{name}")
    assert unused == []


def test_src_imports_are_used():
    # no linter runs here, so an import its last use left behind shows up nowhere else;
    # the imports kept for the benchmark's spans are checked by test_tracer_bindings.py
    unused = []
    for path in sorted(Path(sqrw.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if "# noqa: F401  (perfbench/spans.py wraps" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.name}:{node.lineno}:{name}")
    assert unused == []


def test_src_reaches_no_linalg():
    # OpenBLAS picks its LAPACK kernels by CPU, so a linalg call would make the bytes depend on it
    found = []
    for path in sorted(Path(sqrw.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name):
                names = [n.id]
            elif isinstance(n, ast.Attribute):
                names = [n.attr]
            elif isinstance(n, ast.alias):
                names = n.name.split(".")
            elif isinstance(n, ast.ImportFrom):
                names = (n.module or "").split(".")
            else:
                continue
            found += [f"{path.name}:{n.lineno}" for name in names if name == "linalg"]
    assert found == []


# Calls whose values are not IEEE + - * / and sqrt, and the readings of |z| that are not re*re + im*im
TRANSCENDENTAL = {
    f"{m}.{f}" for m in ("math", "np") for f in ("lgamma", "factorial", "acos", "cos", "sin", "exp", "log", "hypot")
}
TRANSCENDENTAL |= {"np.float_power", "np.power", "math.pow", "pow"}
ABS = {"abs", "np.abs", "np.absolute"}
# the two that may still take abs: the unitarity residuals of a coin, and verify-circuit's deviation
# from probe phases exp(2 pi i theta), a check compared against 1e-12 rather than a result
ABS_OWNERS = {"MultiportCoeffs", "operator_deviation"}


def test_src_computes_every_number_from_the_five_operations():
    # every number sqrw writes comes from + - * / and sqrt, which IEEE rounds alike on every CPU;
    # t = d**(-p) of the symmetric coin is the one power
    found = []
    for path in sorted(Path(sqrw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", "")
            for n in ast.walk(top):
                at = f"{path.name}:{getattr(n, 'lineno', 0)}"
                if isinstance(n, ast.Import) and any(a.name == "cmath" for a in n.names) or (
                    isinstance(n, ast.ImportFrom) and n.module == "cmath"
                ):
                    found.append(f"{at} imports cmath")
                if isinstance(n, ast.ImportFrom) and n.module in ("math", "numpy"):
                    names = [a.name for a in n.names if {f"math.{a.name}", f"np.{a.name}"} & TRANSCENDENTAL]
                    found += [f"{at} imports {name}" for name in names]
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and owner != "symmetric_coeffs":
                    if not (isinstance(n.right, ast.Constant) and isinstance(n.right.value, int)):
                        found.append(f"{at} takes a power")
                if not isinstance(n, ast.Call):
                    continue
                f = n.func
                name = f.id if isinstance(f, ast.Name) else ""
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    name = f"{f.value.id}.{f.attr}"
                if name in TRANSCENDENTAL and not (name == "np.exp" and owner == "operator_deviation"):
                    found.append(f"{at} calls {name}")
                if name in ABS and owner not in ABS_OWNERS:
                    found.append(f"{at} calls {name} in {owner}")
    assert found == []


SIGN_READERS = {"signbit", "copysign"}
FLOAT_VIEWS = {"np.float64", "np.complex128"}


def test_the_walk_reads_no_sign_bit():
    # the light cone is exact for every coin (see sqrw.evolution), so the walk decides nothing on
    # the sign of a zero; the embedding's _written_blocks keeps its bit test, to write a -0.0
    found = []
    for n in ast.walk(ast.parse(Path(importlib.import_module("sqrw.evolution").__file__).read_text())):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            found += [f"{n.lineno} imports {a.name}" for a in n.names if a.name in SIGN_READERS]
        if not isinstance(n, ast.Call):
            continue
        name = ast.unparse(n.func)
        if name.rpartition(".")[2] in SIGN_READERS:
            found.append(f"{n.lineno} calls {name}")
        dtypes = {ast.unparse(a) for a in n.args + [k.value for k in n.keywords]}
        if name.endswith(".view") and not dtypes <= FLOAT_VIEWS:
            found.append(f"{n.lineno} reads bits: {ast.unparse(n)}")
    assert found == []
