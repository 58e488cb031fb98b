"""The repository's tools: ``tools/code_lines.py``."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# nine code lines: the import, the def, the four lines of the string that
# is not a docstring (its blank line too), the return, the class and n;
# the docstrings, the comment line and the blank lines do not count
_MODULE = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    text = """a string
that is not a docstring

ends here"""
    return text


class C:
    \'\'\'A class
    docstring.\'\'\'
    n = 1
'''


def test_code_lines_of_a_module():
    assert code_lines.count(_MODULE) == 9
