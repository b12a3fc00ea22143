import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_empirics_does_not_import_the_simulator():
    # analyze's layer reads score tables; it must not pull in the simulator
    code = "import sys, panelmetrics.empirics; print('panelmetrics.simulate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(panelmetrics.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\n"
