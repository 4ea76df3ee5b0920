"""Every import in ``src/`` is used.

A stdlib-``ast`` scan, no linter needed.  A module-level or local import
counts as used when its bound name is read anywhere in the module (string
annotations included) or listed in ``__all__``.  Exempt: ``__init__.py``
files (their imports are the package's re-exports) and import statements
marked ``# noqa: F401`` (imports kept for their side effect, such as rule
or operator registration).
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(node: ast.AST) -> "set[str]":
    """Names read by an annotation, including names inside string ones."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def _read_names(tree: ast.AST) -> "set[str]":
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names |= {
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            }
    return names


def unused_imports(source: str) -> "list[tuple[int, str]]":
    """``(line, bound name)`` of every unused import in a module's source."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            if bound != "*" and bound not in used:
                unused.append((node.lineno, bound))
    return unused


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC_ROOT)}:{line}: {name}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_the_scan_tells_unused_from_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401  (kept for its side effect)\n"
        "import xml.dom as dom\n"
        "from typing import Dict, List, Optional\n"
        "from pathlib import Path\n"
        "__all__ = ['Path']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    from typing import Tuple\n"
        "    return [x]\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dom"), (5, "Dict"), (9, "Tuple")]
