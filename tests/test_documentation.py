"""Documentation coverage: every public item carries a doc comment, and
every code reference in the prose docs resolves."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
)


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their definition site
        yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        f"{module_name}.{name}"
        for name, member in public_members(module)
        if not (member.__doc__ and member.__doc__.strip())
    ]
    assert not undocumented, undocumented


@pytest.mark.parametrize("module_name", [
    "repro.core.runtime", "repro.core.gateway", "repro.core.agent",
    "repro.frameworks.base", "repro.sim.kernel", "repro.sim.memory",
])
def test_key_public_methods_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for class_name, cls in public_members(module):
        if not inspect.isclass(cls):
            continue
        for method_name, method in vars(cls).items():
            if method_name.startswith("_"):
                continue
            if not inspect.isfunction(method):
                continue
            if not (method.__doc__ and method.__doc__.strip()):
                undocumented.append(f"{class_name}.{method_name}")
    assert not undocumented, undocumented


def test_package_docs_exist():
    for doc in DOCS:
        assert (ROOT / doc).exists(), doc


CODE_SPAN = re.compile(r"`([^`\n]+)`")
DOTTED_NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
PY_PATH = re.compile(r"(?<![\w./-])[\w./-]*\w\.py(?!\w)")
#: Where a doc's ``….py`` path may be relative to.
PATH_BASES = ("", "src", "src/repro", "benchmarks", "hostbench", "tests")


def resolves(dotted):
    """Import the longest module prefix, then ``getattr`` the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def stale_references(text):
    """Backticked ``repro.…`` names that do not resolve and backticked
    ``….py`` paths found under none of :data:`PATH_BASES`."""
    stale = []
    for span in CODE_SPAN.findall(text):
        stale += [name for name in DOTTED_NAME.findall(span)
                  if not resolves(name)]
        stale += [path for path in PY_PATH.findall(span)
                  if not any((ROOT / base / path).exists()
                             for base in PATH_BASES)]
    return stale


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    assert stale_references((ROOT / doc).read_text()) == [], doc


def test_a_planted_stale_reference_is_caught():
    text = (
        "Kept: `repro.obs.export.validate_chrome_trace`, "
        "`cluster/kernel.py`, `hostbench/run.py --trace`.\n"
        "Gone: `repro.cluster.placement.privilege_placement` and "
        "`cluster/placement.py`; `repro.sim.clock.Stopwatch(clock)`.\n"
    )
    assert stale_references(text) == [
        "repro.cluster.placement.privilege_placement",
        "cluster/placement.py",
        "repro.sim.clock.Stopwatch",
    ]
