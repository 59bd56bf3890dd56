"""Every example script runs cleanly end to end."""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from repro.frameworks.registry import FRAMEWORKS

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.fixture(autouse=True)
def restore_framework_registry():
    """An example run in-process may register a framework globally
    (``custom_framework.py`` adds ``miniaudio``); later tests in the
    same process must see the registry as it was."""
    saved = dict(FRAMEWORKS)
    yield
    FRAMEWORKS.clear()
    FRAMEWORKS.update(saved)


def test_examples_directory_has_expected_scripts():
    assert "quickstart.py" in EXAMPLE_SCRIPTS
    assert len(EXAMPLE_SCRIPTS) >= 5


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
def test_example_runs(script, capsys, monkeypatch):
    # matplotlib-style module state in miniutil is process-global; keep
    # each example run hermetic enough by running via runpy.
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), script  # every example prints its findings


def test_quickstart_output_mentions_agents(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "4 agents" in out
    assert "lazy" in out


def test_omr_grading_shows_protection_contrast(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "omr_grading.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "template corrupted: True" in out    # unprotected
    assert "template corrupted: False" in out   # FreePart


def test_custom_framework_is_categorized_statically():
    # A subprocess: the script registers ``miniaudio`` in the global
    # framework registry, which must not leak into other tests.
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "custom_framework.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    verdicts = [line for line in result.stdout.splitlines() if "->" in line]
    assert len(verdicts) == 4
    assert all(line.endswith("(via static)") for line in verdicts)
    assert "accuracy 1.0" in result.stdout
