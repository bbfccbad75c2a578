"""Every ``oncokit`` module imports cleanly when it is imported first.

An import cycle between two modules shows only for some import orders, so
each module is imported on its own in a fresh interpreter. No module
imports another module's private name (dunders such as ``__version__``
aside).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "oncokit").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    done = subprocess.run([sys.executable, "-c", f"import oncokit.{module}"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_private_name_imported():
    private = []
    for path in sorted((SRC / "oncokit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and not a.name.endswith("__")]
    assert not private
