"""Every ``src/`` function, class and method is used outside tests.

Checked: each module-level function and class, and each function
defined in a class body (methods, properties, class and static methods).
A definition counts as used when a ``.py`` file under ``src/``,
``benchmarks/``, ``examples/`` or ``hostbench/``, or CI's workflow file,
names it: as a name, an attribute, an import (``import x as y`` names
``x``), or an identifier inside a string that is not a docstring (so
hostbench's ``"repro.sim.memory:AddressSpace.buffers_in_state"`` patch
target names ``buffers_in_state``).  Names seen only under ``tests/`` do
not count, so a helper that only a test calls fails here; a test oracle
belongs in the test.  The definition itself does not name it.  The
interpreter calls some definitions by protocol, so they are exempt:
dunder methods, a module-level ``__getattr__`` (PEP 562), and
``visit_*``/``generic_visit`` on an ``ast.NodeVisitor`` subclass.

A package ``__init__.py`` re-exports: its imports, ``__all__`` and other
strings name nothing, except that ``from m import x as y`` names ``x``
once ``y`` is named elsewhere (the CLI reaches
``analysis.build_usage_corpus`` that way).  Public API that only users
outside the repo reach goes on :data:`ALLOWLIST`, each entry with its
reason.

A method counts as used when any live code names any method of that
name, so a dead method whose name collides with a live one (``summary``,
``by_category``) passes; the rule raises no false alarm instead.  Only
the standard library is needed, so the check runs wherever the tests do.
"""

import ast
import pathlib
import re
from typing import Dict, List, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
USERS = ("src", "benchmarks", "examples", "hostbench")
WORKFLOW = ".github/workflows/ci.yml"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Dotted name -> why it stays although only tests name it in the repo.
ALLOWLIST: Dict[str, str] = {}


def docstrings_of(tree: ast.AST) -> Set[int]:
    """``id`` of each docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def names_in(tree: ast.AST,
             package: bool) -> Tuple[Set[str], Set[Tuple[str, str]]]:
    """Every identifier a module reads, writes, imports or spells in a
    string, and its ``(alias, name)`` bridges; a ``package`` module's
    imports count only as bridges and its strings not at all."""
    names, bridges = set(), set()
    docstrings = docstrings_of(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            if not package:
                names.update(node.name.split("."))
            elif node.asname:
                bridges.add((node.asname, node.name))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and not package and id(node) not in docstrings):
            names.update(IDENTIFIER.findall(node.value))
    return names, bridges


def is_node_visitor(node: ast.ClassDef) -> bool:
    """Whether a class directly subclasses ``ast.NodeVisitor``."""
    return any(
        (base.attr if isinstance(base, ast.Attribute) else
         getattr(base, "id", None)) == "NodeVisitor"
        for base in node.bases
    )


def exempt(name: str, visitor: bool) -> bool:
    """A method the interpreter or ``ast.NodeVisitor`` calls by name."""
    if name.startswith("__") and name.endswith("__"):
        return True
    return visitor and (name.startswith("visit_") or name == "generic_visit")


def methods_in(node: ast.ClassDef, prefix: str) -> List[Tuple[int, str, str]]:
    """``(line, dotted, name)`` of each function in ``node``'s body and in
    the bodies of classes nested in it."""
    found = []
    visitor = is_node_visitor(node)
    prefix = f"{prefix}{node.name}."
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not exempt(child.name, visitor):
                found.append((child.lineno, prefix + child.name, child.name))
        elif isinstance(child, ast.ClassDef):
            found.extend(methods_in(child, prefix))
    return found


def definitions_in(tree: ast.Module) -> List[Tuple[int, str, str]]:
    """``(line, dotted, name)`` of each module-level function and class,
    and of each method; ``dotted`` is relative to the module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name != "__getattr__":
            found.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(methods_in(node, ""))
    return sorted(found)


def module_of(path: str) -> str:
    """``src/repro/core/gateway.py`` -> ``repro.core.gateway``."""
    parts = pathlib.PurePosixPath(path).with_suffix("").parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dead_definitions(sources: Dict[str, str],
                     allowlist: Dict[str, str]) -> List[str]:
    """``path:line: dotted.name`` of each ``src/`` definition no user
    names, minus ``allowlist``; ``sources`` maps relative paths to text."""
    named, bridges = set(IDENTIFIER.findall(sources.get(WORKFLOW, ""))), set()
    trees = {
        path: ast.parse(text) for path, text in sources.items()
        if path.endswith(".py")
    }
    for path, tree in trees.items():
        if path.startswith(USERS):
            found, bridged = names_in(tree, path.endswith("__init__.py"))
            named |= found
            bridges |= bridged
    named |= {name for alias, name in bridges if alias in named}
    return [
        f"{path}:{line}: {module_of(path)}.{dotted}"
        for path, tree in sorted(trees.items())
        if path.startswith("src/")
        for line, dotted, name in definitions_in(tree)
        if name not in named and f"{module_of(path)}.{dotted}" not in allowlist
    ]


def repo_sources() -> Dict[str, str]:
    sources = {
        str(path.relative_to(REPO)): path.read_text()
        for top in USERS
        for path in (REPO / top).rglob("*.py")
    }
    sources[WORKFLOW] = (REPO / WORKFLOW).read_text()
    return sources


def test_src_has_no_dead_definitions():
    sources = repo_sources()
    found = dead_definitions(sources, ALLOWLIST)
    assert found == [], "definitions only tests name:\n" + "\n".join(found)
    allowed = [
        entry.rsplit(" ", 1)[1] for entry in dead_definitions(sources, {})
    ]
    assert sorted(allowed) == sorted(ALLOWLIST), "stale allowlist entry"


def test_a_planted_dead_definition_is_found():
    sources = {
        "src/pkg/mod.py": (
            "def used():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def planted():\n    return used()\n"
            "def bridged():\n    pass\n"
            "class Kept:\n    pass\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
            "def in_workflow():\n    pass\n"
        ),
        "src/pkg/__init__.py": (
            "from pkg.mod import planted\n"
            "from pkg.mod import bridged as renamed\n"
            "__all__ = ['planted', 'renamed', 'used']\n"
        ),
        "examples/demo.py": (
            "import pkg\nfrom pkg.mod import used\n"
            "used()\npkg.renamed()\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Kept, planted\n"
            "planted()\nKept()\n"
        ),
        WORKFLOW: "run: python -c 'from pkg.mod import in_workflow'\n",
    }
    allowlist = {"pkg.mod.Kept": "public API"}
    assert dead_definitions(sources, allowlist) == [
        "src/pkg/mod.py:5: pkg.mod.planted",
    ]
    assert dead_definitions(sources, {}) == [
        "src/pkg/mod.py:5: pkg.mod.planted",
        "src/pkg/mod.py:9: pkg.mod.Kept",
    ]


def test_a_planted_dead_method_and_property_are_found():
    sources = {
        "src/pkg/mod.py": (
            '"""Docstrings name nothing: dead_method, size."""\n'
            "import ast\n"
            "class Box:\n"
            '    """Neither does this: dead_method."""\n'
            "    def __init__(self):\n        self.items = []\n"
            "    def add(self, item):\n        self.items.append(item)\n"
            "    def dead_method(self):\n        return len(self.items)\n"
            "    @property\n"
            "    def size(self):\n        return len(self.items)\n"
            "    @classmethod\n"
            "    def empty(cls):\n        return cls()\n"
            "    def patched(self):\n        return 0\n"
            "    class Inner:\n"
            "        def nested(self):\n            pass\n"
            "class Walker(ast.NodeVisitor):\n"
            "    def visit_Name(self, node):\n"
            "        self.generic_visit(node)\n"
            "    def generic_visit(self, node):\n        pass\n"
            "    def helper(self):\n        pass\n"
            "box = Box.empty()\nbox.add(1)\nWalker().visit(None)\n"
            "box.Inner()\n"
        ),
        "hostbench/layers.py": (
            'TARGETS = ["pkg.mod:Box.patched"]\n'
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Box\n"
            "Box().dead_method()\nBox().size\nBox.Inner().nested()\n"
            "Walker().helper()\n"
        ),
    }
    assert dead_definitions(sources, {}) == [
        "src/pkg/mod.py:9: pkg.mod.Box.dead_method",
        "src/pkg/mod.py:12: pkg.mod.Box.size",
        "src/pkg/mod.py:20: pkg.mod.Box.Inner.nested",
        "src/pkg/mod.py:27: pkg.mod.Walker.helper",
    ]
    allowlist = {"pkg.mod.Box.size": "public API"}
    assert "src/pkg/mod.py:12: pkg.mod.Box.size" not in dead_definitions(
        sources, allowlist)
