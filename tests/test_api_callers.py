"""Every public function, class and method of ``src/oncokit`` has a caller.

A definition counts as called when program code reads its name, bare or as
an attribute, somewhere in ``src/oncokit`` outside the definition itself,
or anywhere under ``perfbench/``. Names are matched as written, so a method
counts as called when any attribute of that name is read. Docstrings and
comments never count, and neither does ``tests/``: a name that only tests
reach is code the program does not need.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oncokit"
BENCH = ROOT / "perfbench"

# module.qualified name -> why it stays without a caller in the program
ALLOWED = {
    "metrics.c_index_naive": "the quadratic oracle the fast concordance is tested against",
    "ehr.save_feature_stats": "feature stats are in the paper's module map; no config field "
                              "reaches them yet",
    "ehr.load_feature_stats": "feature stats are in the paper's module map; no config field "
                              "reaches them yet",
}


def _definitions():
    """(module.qualified name, path, node) for every public definition."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", path, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", path, sub


def _reads():
    """name -> [(path, line)] for every name or attribute the code reads."""
    reads: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return reads


def _uncalled() -> set[str]:
    reads = _reads()
    uncalled = set()
    for qualname, path, node in _definitions():
        inside = range(node.lineno, node.end_lineno + 1)
        callers = [(p, line) for p, line in reads.get(node.name, [])
                   if p != path or line not in inside]
        if not callers:
            uncalled.add(qualname)
    return uncalled


def test_every_public_name_has_a_caller():
    assert _uncalled() - set(ALLOWED) == set()


def test_allowlist_holds_only_uncalled_names():
    defined = {qualname for qualname, _, _ in _definitions()}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= _uncalled()
