"""Every name a module of ``sqrw`` exports resolves, and star imports succeed."""

import importlib
import pkgutil

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
