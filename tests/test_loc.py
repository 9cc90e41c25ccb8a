"""``tools/loc.py``, the line counter, on a snippet with known counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 13 lines: 6 of code (the import, the def, the two-line string assigned to
# y and the two-line return); blanks, comments and docstrings are not code
SNIPPET = '''"""Module docstring,
two lines."""

import os  # a comment


# a comment line
def f(x):
    """One-line docstring."""
    y = """a string
that is code"""
    return (x +
            1)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    assert SNIPPET.count("\n") == 13
    assert loc.code_lines(SNIPPET) == 6


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "lines", "code"], ["a.py", "13", "6"], ["b.py", "2", "1"],
                    ["total", "15", "7"]]
