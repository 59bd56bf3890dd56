"""Every module-level function and class in ``src/`` is used outside tests.

A definition counts as used when a ``.py`` file under ``src/``,
``benchmarks/``, ``examples/`` or ``hostbench/`` names it: as a name, an
attribute, or an import (``import x as y`` names ``x``).  Names seen only
under ``tests/`` do not count, so a helper that only a test calls fails
here; a test oracle belongs in the test.  The definition itself does not
name it, and a module-level ``__getattr__`` (PEP 562) is called by the
interpreter, so it is exempt.

A package ``__init__.py`` re-exports: its imports and ``__all__`` name
nothing, except that ``from m import x as y`` names ``x`` once ``y`` is
named elsewhere (the CLI reaches ``analysis.build_usage_corpus`` that
way).  Public API that only users outside the repo reach is on
:data:`ALLOWLIST`, each entry with its reason.  Only the standard
library's ``ast`` is needed, so the check runs wherever the tests do.
"""

import ast
import pathlib
from typing import Dict, List, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
USERS = ("src", "benchmarks", "examples", "hostbench")

#: Dotted name -> why it stays although only tests name it in the repo.
ALLOWLIST: Dict[str, str] = {
    "repro.core.hooks.hook": (
        "README's documented LD_PRELOAD stand-in; HookedApi and "
        "FrameworkNamespace are reached through it"
    ),
    "repro.obs.export.validate_chrome_trace": (
        "CI's trace job imports it from an inline script"
    ),
    "repro.cluster.sharding.LambdaPartitioner": (
        "README's custom partitioner; it takes a key function, so it "
        "exists only in code and make_partitioner rejects it as a string"
    ),
}


def names_in(tree: ast.AST,
             package: bool) -> Tuple[Set[str], Set[Tuple[str, str]]]:
    """Every identifier a module reads, writes or imports, and its
    ``(alias, name)`` bridges; a ``package`` module's imports count only
    as bridges."""
    names, bridges = set(), set()
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
    return names, bridges


def definitions_in(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, name)`` of each module-level function and class."""
    return [
        (node.lineno, node.name) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name != "__getattr__"
    ]


def module_of(path: str) -> str:
    """``src/repro/core/hooks.py`` -> ``repro.core.hooks``."""
    parts = pathlib.PurePosixPath(path).with_suffix("").parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dead_definitions(sources: Dict[str, str],
                     allowlist: Dict[str, str]) -> List[str]:
    """``path:line: dotted.name`` of each ``src/`` definition no user
    names, minus ``allowlist``; ``sources`` maps relative paths to text."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named, bridges = set(), set()
    for path, tree in trees.items():
        if path.startswith(USERS):
            found, bridged = names_in(tree, path.endswith("__init__.py"))
            named |= found
            bridges |= bridged
    named |= {name for alias, name in bridges if alias in named}
    return [
        f"{path}:{line}: {module_of(path)}.{name}"
        for path, tree in sorted(trees.items())
        if path.startswith("src/")
        for line, name in definitions_in(tree)
        if name not in named and f"{module_of(path)}.{name}" not in allowlist
    ]


def test_src_has_no_dead_definitions():
    sources = {
        str(path.relative_to(REPO)): path.read_text()
        for top in USERS
        for path in (REPO / top).rglob("*.py")
    }
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
        ),
        "src/pkg/__init__.py": (
            "from pkg.mod import planted\n"
            "from pkg.mod import bridged as renamed\n"
            "__all__ = ['planted', 'renamed']\n"
        ),
        "examples/demo.py": (
            "import pkg\nfrom pkg.mod import used\n"
            "used()\npkg.renamed()\n"
        ),
        "tests/test_mod.py": (
            "from pkg.mod import Kept, planted\n"
            "planted()\nKept()\n"
        ),
    }
    allowlist = {"pkg.mod.Kept": "public API"}
    assert dead_definitions(sources, allowlist) == [
        "src/pkg/mod.py:5: pkg.mod.planted",
    ]
    assert dead_definitions(sources, {}) == [
        "src/pkg/mod.py:5: pkg.mod.planted",
        "src/pkg/mod.py:9: pkg.mod.Kept",
    ]
