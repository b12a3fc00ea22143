import importlib.util
import re
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_same_outputs_docstring_counts_its_cases(monkeypatch):
    # the module puts src and perfbench on sys.path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("same_outputs", TOOLS / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    stated = re.search(r"There are (\d+) cases", same_outputs.__doc__)
    assert stated and int(stated.group(1)) == len(same_outputs.CASES)
