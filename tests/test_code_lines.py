"""The code-line counter of ``tools/code_lines.py`` on a pinned module."""

import importlib.util
from pathlib import Path

COUNTER = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", COUNTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_counter()

# Every kind of line the counter tells apart; the comments on the right
# say which lines count.
FIXTURE = '''\
"""Module docstring,
over two lines."""

import math  # counts


class Shape:  # counts
    """Class docstring."""

    sides = 4  # counts


def area(side):  # counts
    """Function docstring.

    Over three lines.
    """
    # A comment line.

    total = (side  # counts
             * side)  # counts
    "A string statement that is not a docstring."  # counts
    return math.fabs(total)  # counts
'''

FIXTURE_CODE_LINES = 8


def test_fixture_count(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == FIXTURE_CODE_LINES


def test_docstring_lines():
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 8, 14, 15, 16, 17}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Docstring only."""\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'empty':12s} {0:5d}",
        f"{'fixture':12s} {FIXTURE_CODE_LINES:5d}",
        f"{'total':12s} {FIXTURE_CODE_LINES:5d}",
        "",
    ]
