"""Every public function, class and method of ``src/oncokit`` has a caller,
and every option of a public function or method is set by one.

A definition counts as called when program code reads its name, bare or as
an attribute, somewhere in ``src/oncokit`` outside the definition itself,
or anywhere under ``perfbench/``. Names are matched as written, so a method
counts as called when any attribute of that name is read. Docstrings and
comments never count, and neither does ``tests/``: a name that only tests
reach is code the program does not need.

An option is a parameter with a default. It counts as set when a call of
the definition's name, in the same places, passes it by keyword, passes
enough positional arguments to reach it, or unpacks ``*`` or ``**`` into
the call. An option no program call sets is a configuration that only
tests exercise.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oncokit"
BENCH = ROOT / "perfbench"

# module.qualified name -> why it stays without a caller in the program
ALLOWED = {
    "metrics.c_index_naive": "the quadratic oracle the fast concordance is tested against",
}

# module.qualified name(parameter) -> why the option stays although no
# program call sets it
ALLOWED_OPTIONS = {
    "cox.cox_fit(ridge)": "the singular-Hessian error names a ridge penalty as the remedy",
}


def _program_files():
    return sorted(SRC.glob("*.py")) + sorted(BENCH.rglob("*.py"))


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
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return reads


def _outside(sites, path, node):
    """The sites, (path, line, ...) tuples, that lie outside ``node``."""
    inside = range(node.lineno, node.end_lineno + 1)
    return [site for site in sites if site[0] != path or site[1] not in inside]


def _uncalled() -> set[str]:
    reads = _reads()
    return {qualname for qualname, path, node in _definitions()
            if not _outside(reads.get(node.name, []), path, node)}


def _calls():
    """name -> [(path, line, call)] for every call of a name or attribute."""
    calls: dict[str, list] = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls.setdefault(name, []).append((path, node.lineno, node))
    return calls


def _options():
    """(module.qualified name, parameter, path, node, position) for every
    defaulted parameter of a public function or method. ``position`` is the
    parameter's index among a call's positional arguments, or None when it
    is keyword-only."""
    for qualname, path, node in _definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        # a bound call fills a method's self or cls
        bound = qualname.count(".") == 2 and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        for i, arg in enumerate(positional[first_default:], first_default):
            yield qualname, arg.arg, path, node, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, arg.arg, path, node, None


def _argument(call: ast.Call, name: str, position: int | None):
    """What ``call`` passes for the parameter: an expression, ``...`` when
    it unpacks ``*`` or ``**`` (which may set anything), or None."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return ...
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if position is not None and len(call.args) > position:
        return call.args[position]
    return None


def _unset_options() -> set[str]:
    """``module.qualified name(parameter)`` of each option that no program
    call sets. A call inside a public definition that passes on one of that
    definition's own options, by its bare name, sets the callee's option
    only if the caller's option is set."""
    calls = _calls()
    options = list(_options())
    own: dict[tuple, dict[str, str]] = {}      # (path, node) -> {parameter: option}
    for qualname, name, path, node, _ in options:
        own.setdefault((path, node), {})[name] = f"{qualname}({name})"

    def passed_on(path, line, arg) -> str | None:
        """The caller's option that ``arg`` hands on, if it is one."""
        for (p, node), params in own.items():
            if p == path and node.lineno <= line <= node.end_lineno:
                return params.get(getattr(arg, "id", None))
        return None

    is_set, handed_on = set(), []
    for qualname, name, path, node, position in options:
        option = f"{qualname}({name})"
        for p, line, call in _outside(calls.get(node.name, []), path, node):
            arg = _argument(call, name, position)
            if arg is not None:
                source = passed_on(p, line, arg)
                if source is None:
                    is_set.add(option)
                else:
                    handed_on.append((source, option))
    while more := {option for source, option in handed_on if source in is_set} - is_set:
        is_set |= more
    return {f"{qualname}({name})" for qualname, name, _, _, _ in options
            if qualname not in ALLOWED} - is_set


def test_every_public_name_has_a_caller():
    assert _uncalled() - set(ALLOWED) == set()


def test_allowlist_holds_only_uncalled_names():
    defined = {qualname for qualname, _, _ in _definitions()}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= _uncalled()


def test_every_option_is_set_by_a_caller():
    assert _unset_options() - set(ALLOWED_OPTIONS) == set()


def test_option_allowlist_holds_only_unset_options():
    defined = {f"{qualname}({name})" for qualname, name, _, _, _ in _options()}
    assert set(ALLOWED_OPTIONS) <= defined
    assert set(ALLOWED_OPTIONS) <= _unset_options()
