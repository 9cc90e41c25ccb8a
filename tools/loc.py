"""Count the lines of the library's source files.

For each ``.py`` file of a directory (``src/pbacc`` by default), and in
total, prints its line count as ``wc -l`` gives it and its code lines:
the lines that hold a token other than a comment, with every docstring
line left out.  A docstring is a statement that is a string literal and
nothing else.

Usage: ``python3 tools/loc.py [DIR]``
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are not code: layout, comments and the stream's ends.
_NOT_CODE = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, docstrings not counted."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []   # the current logical line's code tokens
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            statement.append(token)
        elif token.type == tokenize.NEWLINE or token.type == tokenize.ENDMARKER:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pbacc"
    rows = []
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, text.count("\n"), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
