"""Every public name defined under ``src/repro`` is named somewhere else.

A public top-level function or class, or a public method of a top-level
class, whose name appears nowhere in the Python files of ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` except where it
is defined has no caller: it is surface that every later change must keep
working for nobody.  Names match as whole words, so a mention in a string
(perfbench hooks entry points by name) or in a docstring counts; dunders and
``_private`` names are skipped.  Listing a name in ``__all__`` or
re-exporting it from an ``__init__.py`` does not call it, so neither counts.
No linter is installed offline, so the check is a test.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO_ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples", "perfbench")


def public_definitions(source):
    """``(line, name)`` of every public top-level function or class in
    ``source`` and of every public method of its top-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, functions + (ast.ClassDef,)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, functions)
            )
    return [(line, name) for line, name in found if not name.startswith("_")]


def without_exports(source, is_package):
    """``source`` with its ``__all__`` assignments blanked and, when it is a
    package's ``__init__.py`` (``is_package``), its top-level imports."""
    lines = source.splitlines(keepends=True)
    for node in ast.parse(source).body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        exports = any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
        reexports = is_package and isinstance(node, (ast.Import, ast.ImportFrom))
        if exports or reexports:
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "".join(lines)


def dead_names(definitions, texts):
    """The ``(where, name)`` definitions whose name occurs as a whole word
    across ``texts`` no more often than it is defined."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    defined = Counter(name for _, name in definitions)
    return [
        (where, name) for where, name in definitions if words[name] <= defined[name]
    ]


def test_detector_flags_only_names_defined_and_never_named_again():
    source = (
        "def used():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Kept:\n"
        "    def __init__(self):\n"
        "        def inner():\n"
        "            pass\n"
        "    def called(self):\n"
        "        pass\n"
        "    def orphan(self):\n"
        "        pass\n"
        "    def hooked(self):\n"
        "        pass\n"
        "class Orphan:\n"
        "    pass\n"
    )
    definitions = [(f"m.py:{line}", name) for line, name in public_definitions(source)]
    callers = "used()\nKept().called()\nhook(Kept, 'hooked')\nunused_total = 0\n"
    # Exporting a name calls nothing: neither an ``__all__`` entry nor an
    # ``__init__.py`` re-export counts, while a string mention still does.
    package = (
        "from m import (\n    unused,\n    orphan,\n)\n"
        "import m as unused\n"
        "__all__ = [\n    'unused',\n]\n"
        "__all__ += ['Orphan']\n"
    )
    texts = [source, callers, without_exports(package, is_package=True)]
    assert dead_names(definitions, texts) == [
        ("m.py:3", "unused"), ("m.py:13", "orphan"), ("m.py:17", "Orphan"),
    ]
    # A module that is not a package imports a name to call it.
    module = without_exports("from m import unused\n__all__ = ['Orphan']\n", False)
    assert dead_names(definitions, texts + [module]) == [
        ("m.py:13", "orphan"), ("m.py:17", "Orphan"),
    ]


def test_every_public_name_is_named_outside_its_definition():
    modules = sorted(SOURCE_ROOT.rglob("*.py"))
    assert len(modules) > 50, SOURCE_ROOT
    definitions = [
        (f"{path.relative_to(SOURCE_ROOT)}:{line}", name)
        for path in modules
        for line, name in public_definitions(path.read_text(encoding="utf-8"))
    ]
    texts = [
        without_exports(path.read_text(encoding="utf-8"), path.name == "__init__.py")
        for folder in SEARCHED
        for path in (REPO_ROOT / folder).rglob("*.py")
    ]
    dead = dead_names(definitions, texts)
    assert not dead, "public names named nowhere else:\n" + "\n".join(
        f"{where}: {name}" for where, name in dead
    )
