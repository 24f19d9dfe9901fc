"""The source-size counter in ``tools/src_lines.py``."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string
that is not a docstring"""
    return (math.pi,
            x, text)


class C:
    """Docstring."""

    def g(self): """Docstring on the def line."""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, text (two lines), return (two lines), class, def g
    assert load_tool().code_lines(SAMPLE) == 8


def test_counter_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    counts = {name: int(count) for count, name in (line.split() for line in out)}
    modules = {path.name for path in (TOOL.parent.parent / "src" / "entwit").glob("*.py")}
    assert set(counts) == modules | {"total"}
    assert counts["total"] == sum(counts[name] for name in modules)


def test_counter_takes_a_package_directory(tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = [\n    2]\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert out == "     8  a.py\n     3  b.py\n    11  total\n"


def test_counter_refuses_a_missing_directory(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "missing")],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "not a directory" in done.stderr
