"""`tools/code_lines.py` counts the lines that hold code.

Blank lines, comment lines and module, class and function docstrings
are left out; every other line with a token counts, a string that is
not a docstring on each line it spans.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""

    size = 2

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return 1


def spanning(x):
    # a comment
    text = """not a docstring:
it counts on every line"""
    """a string after the first statement counts too"""
    return (x +
            1)


async def waiting():
    """Coroutine docstring."""


@staticmethod
def decorated():
    pass
'''

# import, class, size, def method, return 1, def spanning, text (two
# lines), the later string, return (two lines), async def, the decorator,
# def decorated and pass
SOURCE_CODE_LINES = 15


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_synthetic_module():
    tool = _load_tool()
    assert tool.code_lines(SOURCE) == SOURCE_CODE_LINES
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_counts_each_module_of_a_tree_and_compares_two(tmp_path):
    tool = _load_tool()
    base, head = tmp_path / "base", tmp_path / "head"
    for root in (base, head):
        (root / "pkg").mkdir(parents=True)
        (root / "pkg" / "a.py").write_text(SOURCE)
    (base / "pkg" / "gone.py").write_text("x = 1\n")
    (head / "pkg" / "a.py").write_text(SOURCE + "y = 2\n")
    (head / "pkg" / "new.py").write_text("z = 3\nw = 4\n")
    counts = tool.count_tree(head)
    assert counts == {"pkg/a.py": SOURCE_CODE_LINES + 1, "pkg/new.py": 2}
    assert tool.compare(tool.count_tree(base), counts) == [
        "| module | base | head | change |",
        "|---|---|---|---|",
        f"| `pkg/a.py` | {SOURCE_CODE_LINES} | {SOURCE_CODE_LINES + 1} | +1 |",
        "| `pkg/gone.py` | 1 | - | -1 |",
        "| `pkg/new.py` | - | 2 | +2 |",
        f"| total | {SOURCE_CODE_LINES + 1} | {SOURCE_CODE_LINES + 3} | +2 |",
    ]
