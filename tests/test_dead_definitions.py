"""Every module-level function and class in ``src/`` is named somewhere.

A definition counts as used when any ``.py`` file under ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``hostbench/`` names it:
as a name, an attribute, or an import (``import x as y`` names ``x``).
The definition itself does not name it.  A module-level ``__getattr__``
(PEP 562) is called by the interpreter, so it is exempt.  Only the
standard library's ``ast`` is needed, so the check runs wherever the
tests do.
"""

import ast
import pathlib
from typing import Dict, List, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "hostbench")


def names_in(tree: ast.AST) -> Set[str]:
    """Every identifier a module reads, writes or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def definitions_in(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, name)`` of each module-level function and class."""
    return [
        (node.lineno, node.name) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name != "__getattr__"
    ]


def dead_definitions(sources: Dict[str, str],
                     defining: Tuple[str, ...] = ("src",)) -> List[str]:
    """``path:line: name`` of each definition under ``defining`` that no
    source names; ``sources`` maps relative paths to their text."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = set().union(*map(names_in, trees.values()))
    return [
        f"{path}:{line}: {name}"
        for path, tree in sorted(trees.items())
        if path.startswith(defining)
        for line, name in definitions_in(tree)
        if name not in named
    ]


def test_src_has_no_dead_definitions():
    sources = {
        str(path.relative_to(REPO)): path.read_text()
        for top in SEARCHED
        for path in (REPO / top).rglob("*.py")
    }
    found = dead_definitions(sources)
    assert found == [], "definitions nothing names:\n" + "\n".join(found)


def test_a_planted_dead_definition_is_found():
    sources = {
        "src/pkg/mod.py": (
            "def used():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def planted():\n    return used()\n"
            "class Aliased:\n    pass\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Aliased as Renamed\n"
            "import pkg.mod\n"
            "pkg.mod.used()\n"
        ),
    }
    assert dead_definitions(sources) == ["src/pkg/mod.py:5: planted"]
