"""`tools/code_lines.py` counts lines holding code, not docstrings or comments."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """One line."""
        return (1,
                2)
'''


def test_counts_code_lines_only():
    # import, class, x = (2 lines), def, return (2 lines)
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "b.py"], ["7", "pkg/a.py"], ["8", "total"]]
