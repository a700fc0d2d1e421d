#!/usr/bin/env python3
"""Count the code lines of each module of src/cyclicfiber, and their total.

A code line holds at least one token that is no comment and no docstring;
blank lines, comment lines and the lines of a docstring (a string that is a
statement of its own) do not count.  The count reads the token stream of
`tokenize`, so it does not depend on formatting within a line.

    python scripts/code_lines.py
"""

import sys
import tokenize
from pathlib import Path

# tokens that hold no code; NEWLINE, which ends a statement, is kept to find docstrings
SKIP = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
        tokenize.COMMENT}


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIP]
    for k, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        statement_start = k == 0 or tokens[k - 1].type == tokenize.NEWLINE
        statement_end = k + 1 == len(tokens) or tokens[k + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and statement_start and statement_end:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src" / "cyclicfiber"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<12} {count:>6}")
    print(f"{'total':<12} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
