"""Every name a module lists in `__all__` is an attribute of that module.

Modules are reached through `importlib.import_module`, not as package
attributes: `residualtrace.traces`, `.radon` and `.reconstruct` are
functions on the package.  `residualtrace.__main__` runs the CLI when
imported, so it is skipped.
"""

import importlib
import pkgutil

import pytest

import residualtrace

MODULES = ["residualtrace"] + sorted(
    info.name for info in pkgutil.walk_packages(residualtrace.__path__, "residualtrace.")
    if info.name != "residualtrace.__main__")
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_packages_and_their_submodules_export():
    assert {"residualtrace", "residualtrace.algebra", "residualtrace.traces"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
