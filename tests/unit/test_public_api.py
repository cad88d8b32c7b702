"""Meta-tests: the public API is importable and documented.

These enforce the documentation deliverable mechanically: every name
exported through an ``__all__`` must resolve, and every public module,
class, and function must carry a docstring.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.torus",
    "repro.placements",
    "repro.routing",
    "repro.load",
    "repro.load.engine",
    "repro.exec",
    "repro.bisection",
    "repro.sim",
    "repro.schedule",
    "repro.core",
    "repro.experiments",
    "repro.viz",
    "repro.mixedradix",
    "repro.obs",
    "repro.devtools",
    "repro.devtools.lint",
    "repro.devtools.lint.semantics",
]


def _iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, prefix=f"{pkg_name}."):
            yield importlib.import_module(info.name)


ALL_MODULES = sorted({m.__name__ for m in _iter_modules()})


class TestExports:
    @pytest.mark.parametrize("mod_name", ALL_MODULES)
    def test_all_names_resolve(self, mod_name):
        mod = importlib.import_module(mod_name)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{mod_name}.__all__ lists missing {name}"

    @pytest.mark.parametrize("mod_name", ALL_MODULES)
    def test_module_docstring(self, mod_name):
        mod = importlib.import_module(mod_name)
        assert mod.__doc__ and mod.__doc__.strip(), f"{mod_name} lacks a docstring"

    @pytest.mark.parametrize("mod_name", ALL_MODULES)
    def test_public_items_documented(self, mod_name):
        mod = importlib.import_module(mod_name)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{mod_name}.{name} lacks a docstring"
                )

    def test_top_level_api(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version_matches_metadata(self):
        assert repro.__version__ == "1.0.0"


#: imports every module of the package but the networkx export, in a
#: fresh interpreter, and prints the networkx and scipy modules loaded.
_IMPORT_ALL = """
import pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    if info.name != "repro.torus.graph":
        __import__(info.name)
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("networkx", "scipy")))
"""


class TestImportFootprint:
    def test_no_module_loads_networkx_or_scipy(self):
        # numpy is the one runtime dependency; networkx is a test
        # dependency that only repro.torus.graph imports
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_ALL],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert proc.stdout.split() == []
