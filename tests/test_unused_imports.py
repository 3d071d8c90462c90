"""Every name a module under ``src/repro`` imports is used by that module.

An imported name that appears nowhere else in its module's text is dead: it
misstates what the module depends on and outlives the code that needed it.
Package ``__init__.py`` files are skipped, because their imports are the
re-exported API.  No linter is installed offline, so the check is a test.
"""

import ast
import re
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def unused_imports(source):
    """``(line, name)`` for every name an import statement in ``source``
    binds that appears nowhere else in the text (``__future__`` features
    and star imports bind nothing to look for)."""
    imports = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
    ]
    lines = source.splitlines()
    for node in imports:
        lines[node.lineno - 1:node.end_lineno] = [""] * (
            node.end_lineno - node.lineno + 1
        )
    rest = "\n".join(lines)
    return [
        (node.lineno, name)
        for node in imports
        for alias in node.names
        if alias.name != "*"
        for name in [alias.asname or alias.name.split(".")[0]]
        if not re.search(rf"\b{re.escape(name)}\b", rest)
    ]


def test_detector_flags_only_names_used_nowhere_else():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import (\n"
        "    Dict,\n"
        "    Optional,\n"
        ")\n"
        "import numpy as np\n"
        "\n"
        "def f(x: Optional[int]) -> float:\n"
        "    return os.path.sep, np.pi\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "Dict")]


def test_no_module_imports_an_unused_name():
    modules = sorted(
        path for path in SOURCE_ROOT.rglob("*.py") if path.name != "__init__.py"
    )
    assert len(modules) > 50, SOURCE_ROOT
    found = [
        f"{path.relative_to(SOURCE_ROOT)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
