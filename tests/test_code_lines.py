"""tools/code_lines.py counts code lines by the rule it states."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line

X = """a string in code,
over two lines"""


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return (1 +  # a trailing comment
                2)
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # X's two lines, class C, def f and the return's two lines
    assert code_lines.code_lines(SAMPLE) == 6


def test_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, timeout=30, check=True).stdout.splitlines()
    counts = {name: int(count) for name, count in map(str.split, out)}
    total = counts.pop("src/emi")
    assert {"jets.py", "quadrature.py", "precision.py"} <= counts.keys()
    assert total == sum(counts.values())
