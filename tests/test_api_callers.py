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
tests exercise. A public class's ``__init__`` options are the class's,
set by calls of the class's name outside ``__init__``, its other methods
included. A defaulted ``init`` field of a public dataclass or
NamedTuple is held to the same rule, with its class's constructor calls:
the class's name outside the class, and ``cls(...)`` inside it.

No module imports a name it never reads, which a deletion can leave
behind. Only ``ehr.py`` imports ``csv``: it alone reads and writes the
cohort and ``id,risk`` CSV formats.
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
    """(module.qualified name, parameter, path, node, position, callee) for
    every defaulted parameter of a public function or method, and of the
    ``__init__`` of a public class, whose options are the class's and whose
    callee is the class's name. ``position`` is the parameter's index among
    a call's positional arguments, or None when it is keyword-only."""
    for qualname, path, node in _definitions():
        callee = node.name
        if isinstance(node, ast.ClassDef):
            node = next((sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                         and sub.name == "__init__"), None)
            if node is None:
                continue
        args = node.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        # a bound call fills a method's or constructor's self or cls
        bound = (qualname.count(".") == 2 or node.name == "__init__") and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        for i, arg in enumerate(positional[first_default:], first_default):
            yield qualname, arg.arg, path, node, i - bound, callee
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, arg.arg, path, node, None, callee


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


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass, or a class that derives from ``NamedTuple``."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) \
        or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)


def _fields():
    """(module.class.field, field, path, node, position) for every
    defaulted ``init`` field of a public dataclass or NamedTuple.
    ``position`` is the field's index among a constructor call's positional
    arguments, or None when it follows ``KW_ONLY``."""
    for qualname, path, node in _definitions():
        if not (isinstance(node, ast.ClassDef) and _is_record(node)):
            continue
        position = 0
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            if "KW_ONLY" in (getattr(stmt.annotation, "id", None),
                             getattr(stmt.annotation, "attr", None)):
                position = None      # the fields after it are keyword-only
                continue
            default = stmt.value
            if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
                spec = {k.arg: k.value for k in default.keywords}
                if getattr(spec.get("init"), "value", True) is False:
                    continue
                default = spec.get("default", spec.get("default_factory"))
            if default is not None:
                yield f"{qualname}.{stmt.target.id}", stmt.target.id, path, node, position
            if position is not None:
                position += 1


def _settings():
    """Every option and field as (name, parameter, path, node, position,
    call sites). A field's class is called by its name outside the class,
    or as ``cls`` inside it."""
    calls = _calls()
    for qualname, name, path, node, position, callee in _options():
        yield f"{qualname}({name})", name, path, node, position, \
            _outside(calls.get(callee, []), path, node)
    for field, name, path, node, position in _fields():
        inside = [site for site in calls.get("cls", [])
                  if site[0] == path and node.lineno <= site[1] <= node.end_lineno]
        yield field, name, path, node, position, \
            _outside(calls.get(node.name, []), path, node) + inside


def _unset() -> set[str]:
    """The name of each option or field that no program call sets. A call
    inside a public definition that passes on one of that definition's own
    options, by its bare name, sets the callee's option or field only if
    the caller's option is set."""
    own: dict[tuple, dict[str, str]] = {}      # (path, node) -> {parameter: option}
    for qualname, name, path, node, *_ in _options():
        own.setdefault((path, node), {})[name] = f"{qualname}({name})"

    def passed_on(path, line, arg) -> str | None:
        """The caller's option that ``arg`` hands on, if it is one."""
        for (p, node), params in own.items():
            if p == path and node.lineno <= line <= node.end_lineno:
                return params.get(getattr(arg, "id", None))
        return None

    settings = list(_settings())
    is_set, handed_on = set(), []
    for setting, name, _, _, position, sites in settings:
        for p, line, call in sites:
            arg = _argument(call, name, position)
            if arg is not None:
                source = passed_on(p, line, arg)
                if source is None:
                    is_set.add(setting)
                else:
                    handed_on.append((source, setting))
    while more := {setting for source, setting in handed_on if source in is_set} - is_set:
        is_set |= more
    return {setting for setting, *_ in settings} - is_set


def _unset_options() -> set[str]:
    return {f"{qualname}({name})" for qualname, name, *_ in _options()
            if qualname not in ALLOWED} & _unset()


def _unset_fields() -> set[str]:
    return {field for field, *_ in _fields()} & _unset()


def test_every_public_name_has_a_caller():
    assert _uncalled() - set(ALLOWED) == set()


def test_allowlist_holds_only_uncalled_names():
    defined = {qualname for qualname, _, _ in _definitions()}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= _uncalled()


def test_every_option_is_set_by_a_caller():
    assert _unset_options() - set(ALLOWED_OPTIONS) == set()


def test_option_allowlist_holds_only_unset_options():
    defined = {f"{qualname}({name})" for qualname, name, *_ in _options()}
    assert set(ALLOWED_OPTIONS) <= defined
    assert set(ALLOWED_OPTIONS) <= _unset_options()


def test_constructor_options_are_audited():
    defined = {f"{qualname}({name})" for qualname, name, *_ in _options()}
    assert {"segnets.UNet(seed)", "ehr.Cohort(ct_paths)", "autodiff.Tensor(requires_grad)"} \
        <= defined


def test_every_field_is_set_by_a_caller():
    assert _unset_fields() == set()


def _unused_imports() -> set[str]:
    """``module:name`` for each name that a module of ``src/oncokit``
    imports and never reads, in its code or in a quoted annotation."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        annotations = [n.annotation for n in ast.walk(tree)
                       if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation] \
            + [n.returns for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.returns]
        quoted = [ast.parse(a.value, mode="eval") for a in annotations
                  if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        read = {n.id for root in [tree, *quoted] for n in ast.walk(root)
                if isinstance(n, ast.Name)}
        unused |= {f"{path.stem}:{name}" for name in imported - read}
    return unused


def test_no_unused_imports():
    assert _unused_imports() == set()


def test_only_ehr_imports_csv():
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "csv":
                importers.add(path.name)
    assert importers == {"ehr.py"}
