"""No module in ``src/`` imports a name it never reads.

A module-scope ``import`` or ``from`` binding counts as used when its
module loads the name anywhere (code, or a quoted annotation) or lists
it in ``__all__``.  ``__init__.py`` files re-export on purpose and
``__future__`` imports bind nothing, so both are skipped.  Only the
standard library's ``ast`` is needed, so the check runs wherever the
tests do.
"""

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_scope(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements at module scope, inside ``if``/``try``/``with`` too."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _module_scope(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _module_scope(handler.body)


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names a (possibly quoted) annotation reads."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(quoted)
    return names


def _read_names(tree: ast.Module) -> Set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                names |= _annotation_names(annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= {
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
            }
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each module-scope import binding never read."""
    tree = ast.parse(source)
    bound = []
    for node in _module_scope(tree.body):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names if alias.name != "*"]
    read = _read_names(tree)
    return [(line, name) for line, name in bound if name not in read]


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_a_planted_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Dict, List, Optional\n"
        "from collections import deque as _deque\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "Dict"), (4, "_deque")]
