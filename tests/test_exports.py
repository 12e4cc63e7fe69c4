"""Every name a module lists in __all__ resolves, so `import *` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["series", "local_ops", "iterate",
                                    "sequences"])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"banachscale.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from banachscale.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
