import importlib
import pkgutil

import pytest

import cluster_bifurc

MODULES = ["cluster_bifurc"] + [f"cluster_bifurc.{m.name}" for m in pkgutil.iter_modules(cluster_bifurc.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
