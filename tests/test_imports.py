"""Every imported name is used, and every package definition is referenced:
no linter is configured, so this is the check.

An imported name counts as used when it appears anywhere in the module as
an ``ast.Name`` (a load, a decorator, an annotation or the base of an
attribute access).  The package ``__init__.py`` is skipped: its imports are
the re-exported API.

A top-level function or class of ``src/mvsgru``, or a non-dunder method
or property of one of its classes, counts as referenced when its name
appears in ``src/``, ``bench/`` or ``demos/`` as an ``ast.Name``, an
attribute, or a string constant (``bench/tracer.py`` names its hook
targets in strings).  Tests do not count: a helper only tests call is
unused by the program.

Likewise every default-valued parameter of a function or method of
``src/mvsgru`` (other than ``__init__``) is passed by some call in the
program to a callee of that name, by keyword, by position or through
``*``/``**``: a default no caller overrides is a constant.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/mvsgru", "tests", "demos") for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")
MODULES = sorted((ROOT / "src/mvsgru").glob("*.py"))
PROGRAM = sorted(p for d in ("src/mvsgru", "bench", "demos") for p in (ROOT / d).glob("*.py"))
# defined but referenced by nothing in the program, each for a stated reason
UNREFERENCED_OK: dict[str, str] = {}
# default-valued parameters no call in the program passes, each for a stated reason
UNPASSED_OK: dict[str, str] = {}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(program: list[str]) -> set[str]:
    """Every name the sources mention: names, attributes and string constants."""
    names = set()
    for node in (n for src in program for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def definitions(defining: str):
    """``(label, name, line)`` of each top-level function and class of
    ``defining``, and of each non-dunder method or property of its classes,
    labelled ``Class.method``."""
    for node in ast.parse(defining).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        for m in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__")
                                                       and m.name.endswith("__")):
                yield f"{node.name}.{m.name}", m.name, m.lineno


def unreferenced(defining: str, referenced: set[str], allowed=UNREFERENCED_OK) -> list[str]:
    """The ``definitions`` of ``defining``, other than the ``allowed`` ones,
    whose name is not in ``referenced``."""
    return [f"{label} (line {line})" for label, name, line in definitions(defining)
            if name not in referenced and label not in allowed]


def test_the_check_sees_an_unreferenced_definition():
    defining = "def used(): pass\ndef unused(): pass\nclass Hooked: pass\n"
    referenced = referenced_names([defining, "used()", "HOOKS = ['Hooked']"])
    assert unreferenced(defining, referenced) == ["unused (line 2)"]


def test_the_check_sees_an_unreferenced_method():
    defining = ("class Net:\n"
                "    def __call__(self): pass\n"
                "    def used(self): pass\n"
                "    @property\n"
                "    def shape(self): pass\n"
                "    def unused(self): pass\n")
    referenced = referenced_names([defining, "Net().used()", "Net().shape"])
    assert unreferenced(defining, referenced) == ["Net.unused (line 6)"]


@pytest.fixture(scope="module")
def program_names():
    return referenced_names([p.read_text() for p in PROGRAM])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_referenced(path, program_names):
    assert unreferenced(path.read_text(), program_names) == []


def test_allowed_exceptions_are_still_unreferenced(program_names):
    # an entry that gained a reference, or lost its definition, leaves the list
    found = {entry.split()[0] for p in MODULES
             for entry in unreferenced(p.read_text(), program_names, allowed={})}
    assert found == set(UNREFERENCED_OK)


def default_parameters(defining: str):
    """``(label, name, param, index, line)`` of each default-valued
    parameter of a function or method of ``defining`` other than
    ``__init__``; index is the position a call passes it at, not counting
    a method's ``self``, or None for a keyword-only one."""
    tree = ast.parse(defining)
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for m in c.body if isinstance(m, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name == "__init__":
            continue
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        skip = 1 if id(node) in methods else 0
        for i, arg in enumerate(args[first:], first):
            yield f"{node.name}({arg.arg})", node.name, arg.arg, i - skip, node.lineno
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{node.name}({arg.arg})", node.name, arg.arg, None, node.lineno


def calls_by_callee(program: list[str]) -> dict[str, list[ast.Call]]:
    """Every call in the sources, keyed by the called name or attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for src in program for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` passes ``param``, whose position is ``index``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if index is not None and len(call.args) > index:
        return True
    return any(kw.arg in (param, None) for kw in call.keywords)


def unpassed_defaults(defining: str, calls, allowed=UNPASSED_OK) -> list[str]:
    """The ``default_parameters`` of ``defining``, other than the
    ``allowed`` ones, that no call in ``calls`` passes."""
    return [f"{label} (line {line})"
            for label, name, param, index, line in default_parameters(defining)
            if label not in allowed
            and not any(passes(c, param, index) for c in calls.get(name, []))]


def test_the_check_sees_an_unpassed_default():
    defining = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                "def g(x=0): pass\n"
                "class K:\n"
                "    def __init__(self, z=0): pass\n"
                "    def m(self, y=0, w=1): pass\n"
                "    @staticmethod\n"
                "    def s(v=0): pass\n")
    program = [defining, "f(0, 5, e=1)", "g(*args)", "K().m(1)", "K.s(2)", "h(d=9)"]
    assert unpassed_defaults(defining, calls_by_callee(program)) == [
        "f(c) (line 1)", "f(d) (line 1)", "m(w) (line 5)"]


@pytest.fixture(scope="module")
def program_calls():
    return calls_by_callee([p.read_text() for p in PROGRAM])


def test_every_default_is_passed_somewhere(program_calls):
    # an allowed entry that gained a caller, or lost its parameter, fails too
    found = [entry for p in MODULES
             for entry in unpassed_defaults(p.read_text(), program_calls, allowed={})]
    assert [entry.split(" (")[0] for entry in found] == list(UNPASSED_OK)
