"""README.md's Python examples run as shown.

Every ```python block runs in order in one namespace, one statement at a
time. A statement that is an expression and ends in a comment holding
only a number, as in ``spearman_brown(3, 0.545)  # 0.7823``, must give
a value that rounds to that number at the digits shown.
"""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.S | re.M)
SHOWN = re.compile(r"#\s*(-?\d+(?:\.(\d+))?)\s*$")


def test_python_blocks_run_and_show_their_values():
    namespace: dict = {}
    checked = []
    for block in BLOCK.findall(README.read_text(encoding="utf-8")):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            shown = SHOWN.search(lines[stmt.end_lineno - 1])
            if isinstance(stmt, ast.Expr) and shown:
                code = compile(ast.Expression(stmt.value), str(README), "eval")
                value = eval(code, namespace)
                digits = len(shown.group(2) or "")
                assert round(value, digits) == float(shown.group(1)), ast.unparse(stmt)
                checked.append(ast.unparse(stmt))
            else:
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    # the quick start shows a precision, a panel size and a step-up value
    assert len(checked) >= 3, checked
