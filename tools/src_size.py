"""Print the size of the package source: physical lines and Python tokens.

Usage: python3 tools/src_size.py

Counts every ``src/panelmetrics/*.py`` file. A physical line is one
newline-terminated line, as ``wc -l`` counts them. Tokens come from the
standard ``tokenize`` module; comments and the layout tokens (NL,
NEWLINE, INDENT, DEDENT, ENDMARKER) are not counted, so reformatting
and comments do not move the figure, while docstrings do. Python 3.12
splits f-strings into several tokens, so compare figures taken with the
same Python minor version.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "panelmetrics"

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def measure(path: Path) -> tuple[int, int]:
    """Physical lines and counted tokens of one source file."""
    text = path.read_text(encoding="utf-8")
    lines = text.count("\n")
    with open(path, encoding="utf-8") as fh:
        tokens = sum(
            tok.type not in _SKIPPED for tok in tokenize.generate_tokens(fh.readline)
        )
    return lines, tokens


def main() -> int:
    total_lines = total_tokens = 0
    print(f"{'file':<16}{'lines':>8}{'tokens':>9}")
    for path in sorted(SRC.glob("*.py")):
        lines, tokens = measure(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<16}{lines:>8}{tokens:>9}")
    print(f"{'total':<16}{total_lines:>8}{total_tokens:>9}")
    print(f"python {sys.version_info.major}.{sys.version_info.minor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
