import importlib
import pkgutil

import pytest

import wahlkit

# wahlkit.__main__ runs the command line when imported
MODULES = ["wahlkit"] + sorted(
    info.name for info in pkgutil.walk_packages(wahlkit.__path__, "wahlkit.")
    if info.name != "wahlkit.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
