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
UNREFERENCED_OK = {
    "default_dtype": "the public getter of the numeric mode set by set_default_dtype",
}


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
