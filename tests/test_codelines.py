"""``tools/codelines.py``: the code-line count of ``src/monoq``, on a fixture of known count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

# nine code lines: the import, def f, the two lines of y, the two lines of
# the string s (no docstring), return, class C and z
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    s = """a string
that is no docstring"""
    return y, s


class C:
    """Class docstring,

    with a blank line inside.
    """

    z = 1
'''


def test_fixture_count():
    assert codelines.code_lines(FIXTURE) == 9


def test_prints_every_module_and_the_total(capsys):
    assert codelines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(path.name for path in codelines.PACKAGE.glob("*.py"))
    assert [line.split()[1] for line in lines] == modules + ["total"]
    counts = [int(line.split()[0]) for line in lines]
    assert sum(counts[:-1]) == counts[-1]
