import importlib
import pkgutil

import pytest

import panelmetrics

MODULES = [panelmetrics] + [
    importlib.import_module(f"panelmetrics.{info.name}")
    for info in pkgutil.iter_modules(panelmetrics.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition goes breaks `import *`
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
