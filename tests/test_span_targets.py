"""Every name the benchmark's tracer wraps exists in ``src/oncokit``.

``perfbench/tracing.py`` lists the (module, attribute) pairs it wraps in
``SPAN_TARGETS`` and looks each one up the way ``Instrument._patch`` does: a
plain attribute of the module, or a method found in ``Class.__dict__``. A
renamed or deleted name makes that lookup raise and the traced run die, so
this test reads the list with ``ast`` (perfbench is neither imported nor
run) and repeats the lookups.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no SPAN_TARGETS")


def test_span_targets_are_listed():
    targets = _span_targets()
    assert targets and all(mod.startswith("oncokit.") for mod, _ in targets)


@pytest.mark.parametrize("module_name, attr", _span_targets())
def test_span_target_exists(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
