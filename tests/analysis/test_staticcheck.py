"""The static partition linter: rules, fixtures, reporters, suppression."""

import json
import os

import pytest

from repro.staticcheck import (
    check_file,
    render_json,
    render_text,
    rule_ids,
    run_check,
)
from repro.staticcheck.callgraph import build_module
from repro.staticcheck.checker import check_source, iter_python_files
from repro.staticcheck.inference import PartitionInferencer
from repro.staticcheck.report import Severity, suppressions_on

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "staticcheck"
)
REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def fixture(name):
    return os.path.join(FIXTURES, name)


def rules_found(name):
    return {f.rule for f in check_file(fixture(name)).findings}


# -- the six rule classes: violating + passing variant each -------------

@pytest.mark.parametrize("name, rule", [
    ("frozen_write_violation.py", "frozen-write"),
    ("phase_order_violation.py", "phase-order"),
    ("syscall_pool_violation.py", "syscall-pool"),
    ("wrong_partition_deref_violation.py", "wrong-partition-deref"),
    ("dead_api_violation.py", "dead-api"),
    ("obs_annotation_violation.py", "dead-api"),
    ("uncategorizable_violation.py", "uncategorizable"),
    ("tenant_leak_violation.py", "tenant-ref-leak"),
])
def test_violating_fixture_is_flagged(name, rule):
    assert rule in rules_found(name)


@pytest.mark.parametrize("name", [
    "frozen_write_ok.py",
    "phase_order_ok.py",
    "syscall_pool_ok.py",
    "wrong_partition_deref_ok.py",
    "dead_api_ok.py",
    "obs_annotation_ok.py",
    "uncategorizable_ok.py",
    "tenant_leak_ok.py",
])
def test_passing_fixture_is_clean(name):
    assert check_file(fixture(name)).findings == []


def test_error_rules_drive_exit_code():
    result = check_file(fixture("frozen_write_violation.py"))
    assert result.errors >= 1
    assert result.exit_code == 1


def test_warning_rules_do_not_fail_the_run():
    result = check_file(fixture("wrong_partition_deref_violation.py"))
    assert result.warnings >= 1
    assert result.errors == 0
    assert result.exit_code == 0


# -- finding details ----------------------------------------------------

def test_frozen_write_finding_names_tag_and_states():
    result = check_file(fixture("frozen_write_violation.py"))
    finding = next(f for f in result.findings if f.rule == "frozen-write")
    assert "'scores'" in finding.message
    assert "host_alloc" in finding.message
    assert finding.severity is Severity.ERROR
    assert finding.function == "pipeline"
    assert finding.line > 0


def test_syscall_finding_names_offending_syscalls():
    result = check_file(fixture("syscall_pool_violation.py"))
    finding = next(f for f in result.findings if f.rule == "syscall-pool")
    assert "socket" in finding.message
    assert "sendto" in finding.message
    assert "storing" in finding.message


def test_dead_api_covers_unknown_api_framework_and_unused_spec():
    result = check_file(fixture("dead_api_violation.py"))
    messages = [f.message for f in result.findings if f.rule == "dead-api"]
    assert any("no_such_api" in m for m in messages)
    assert any("fakelib" in m for m in messages)
    assert any("never_called" in m for m in messages)


def test_obs_annotations_skip_only_the_obs_framework():
    result = check_file(fixture("obs_annotation_violation.py"))
    messages = [f.message for f in result.findings if f.rule == "dead-api"]
    assert any("fakelib" in m for m in messages)
    assert not any("obs" in m for m in messages)


def test_uncategorizable_is_an_error():
    result = check_file(fixture("uncategorizable_violation.py"))
    finding = next(
        f for f in result.findings if f.rule == "uncategorizable"
    )
    assert finding.severity is Severity.ERROR
    assert "mystery.transmute" in finding.message


# -- inference details --------------------------------------------------

def test_inferencer_predicts_state_trace_and_agents():
    summary = build_module(fixture("phase_order_ok.py"))
    reports = PartitionInferencer(summary).infer()
    steps = reports["pipeline"].steps
    assert [s.verdict.qualname for s in steps] == [
        "cv2.imread", "cv2.Canny", "cv2.imwrite",
    ]
    assert [s.agent for s in steps] == [
        "data_loading", "data_processing", "storing",
    ]
    assert steps[0].state_before.value == "initialization"
    assert steps[-1].state_after.value == "storing"


def test_gateway_flows_through_module_local_helpers():
    source = (
        "def helper(g, path):\n"
        "    return g.call('opencv', 'imread', path)\n"
        "\n"
        "def pipeline(gateway):\n"
        "    image = helper(gateway, '/data/in.png')\n"
        "    return gateway.call('opencv', 'Canny', image)\n"
    )
    findings, _ = check_source("inline.py", source)
    assert findings == []  # helper resolves; no dead/uncategorizable noise
    from repro.staticcheck.callgraph import CallGraphBuilder

    built = CallGraphBuilder("inline.py", source).build()
    reports = PartitionInferencer(built).infer()
    qualnames = [s.verdict.qualname for s in reports["pipeline"].steps]
    assert qualnames == ["cv2.imread", "cv2.Canny"]


def test_bound_method_alias_and_constant_names_resolve():
    source = (
        "FRAMEWORK = 'opencv'\n"
        "\n"
        "def pipeline(gateway):\n"
        "    call = gateway.call\n"
        "    return call(FRAMEWORK, 'imread', '/data/in.png')\n"
    )
    from repro.staticcheck.callgraph import CallGraphBuilder

    built = CallGraphBuilder("alias.py", source).build()
    reports = PartitionInferencer(built).infer()
    assert [s.verdict.qualname for s in reports["pipeline"].steps] == [
        "cv2.imread"
    ]


# -- suppression --------------------------------------------------------

def test_suppressed_fixture_reports_nothing_but_counts():
    result = check_file(fixture("suppressed.py"))
    assert result.findings == []
    assert result.suppressed == 2


def test_suppression_comment_parsing():
    assert suppressions_on("x = 1") is None
    assert suppressions_on("x = 1  # repro: ignore") == frozenset()
    assert suppressions_on(
        "x = 1  # repro: ignore[frozen-write, phase-order]"
    ) == frozenset({"frozen-write", "phase-order"})


def test_empty_bracket_ignore_suppresses_nothing():
    # `ignore[]` names no rules — it must not act like a bare ignore.
    assert suppressions_on("x = 1  # repro: ignore[]") is None
    assert suppressions_on("x = 1  # repro: ignore[ , ]") is None
    source = (
        "def pipeline(gateway):\n"
        "    gateway.call('opencv', 'no_such_api')  # repro: ignore[]\n"
    )
    findings, suppressed = check_source("empty.py", source)
    assert suppressed == 0
    assert {f.rule for f in findings} == {"dead-api"}


def test_multiple_ignore_groups_union_per_line():
    line = (
        "x = 1  # repro: ignore[frozen-write]  # repro: ignore[dead-api]"
    )
    assert suppressions_on(line) == frozenset(
        {"frozen-write", "dead-api"}
    )
    # A bare ignore anywhere on the line still silences everything.
    assert suppressions_on(
        "x = 1  # repro: ignore  # repro: ignore[dead-api]"
    ) == frozenset()


def test_finding_sort_key_is_a_total_order():
    from repro.staticcheck.report import Finding

    first = Finding(
        rule="dead-api", severity=Severity.ERROR, path="a.py",
        line=3, col=0, message="alpha",
    )
    second = Finding(
        rule="dead-api", severity=Severity.ERROR, path="a.py",
        line=3, col=0, message="beta",
    )
    assert sorted(
        [second, first], key=Finding.sort_key
    ) == [first, second]
    # Same everything except function: still deterministic.
    third = Finding(
        rule="dead-api", severity=Severity.ERROR, path="a.py",
        line=3, col=0, message="beta", function="pipeline",
    )
    assert sorted(
        [third, second], key=Finding.sort_key
    ) == [second, third]


def test_rule_specific_suppression_keeps_other_rules():
    source = (
        "def pipeline(gateway):\n"
        "    gateway.call('opencv', 'no_such_api')"
        "  # repro: ignore[frozen-write]\n"
    )
    findings, suppressed = check_source("partial.py", source)
    assert suppressed == 0
    assert {f.rule for f in findings} == {"dead-api"}


# -- reporters and driver -----------------------------------------------

def test_render_text_has_locations_and_summary():
    result = check_file(fixture("frozen_write_violation.py"))
    text = render_text(result)
    assert "frozen_write_violation.py:" in text
    assert "[frozen-write]" in text
    assert "1 error(s)" in text


def test_render_json_is_valid_and_stable():
    result = check_file(fixture("frozen_write_violation.py"))
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["errors"] == 1
    assert payload["findings"][0]["rule"] == "frozen-write"
    assert payload["findings"][0]["severity"] == "error"


def test_run_check_aggregates_directory():
    result = run_check([FIXTURES])
    assert result.files_checked >= 15
    assert result.exit_code == 1
    by_rule = result.by_rule()
    for rule in ("frozen-write", "phase-order", "syscall-pool",
                 "wrong-partition-deref", "dead-api", "uncategorizable",
                 "tenant-ref-leak"):
        assert by_rule.get(rule, 0) >= 1, rule


def test_iter_python_files_rejects_missing_path():
    with pytest.raises(FileNotFoundError):
        iter_python_files([os.path.join(FIXTURES, "nope-missing")])


def test_parse_error_is_reported_not_raised():
    findings, _ = check_source("broken.py", "def broken(:\n")
    assert [f.rule for f in findings] == ["parse-error"]
    assert findings[0].severity is Severity.ERROR


def test_examples_and_apps_are_clean():
    """The repo's own host programs must pass the linter (CI gate)."""
    result = run_check([
        os.path.join(REPO, "examples"),
        os.path.join(REPO, "src", "repro", "apps"),
    ])
    assert [f.message for f in result.findings] == []
    assert result.exit_code == 0


def test_rule_ids_are_stable():
    assert rule_ids() == (
        "frozen-write", "phase-order", "syscall-pool",
        "wrong-partition-deref", "dead-api", "uncategorizable",
        "tenant-ref-leak", "cross-partition-leak", "tenant-taint-escape",
        "frozen-alias-write", "over-privileged-pool",
    )


# -- the walker's behaviour, pinned -------------------------------------

GOLDEN = os.path.join(
    REPO, "tests", "fixtures", "golden", "check_fixtures_examples.json"
)


def test_check_json_matches_golden_file(capsys, monkeypatch):
    """Exact messages, lines and columns over the fixtures and examples.

    Regenerate with ``PYTHONPATH=src python -m repro check --format json
    --strict-pools tests/fixtures/staticcheck/ examples/`` from the repo
    root, and only for a change that means to move a finding.
    """
    from repro.cli import main

    monkeypatch.chdir(REPO)
    code = main(["check", "--format", "json", "--strict-pools",
                 "tests/fixtures/staticcheck/", "examples/"])
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
    assert code == 1


def steps_of(source, function):
    from repro.staticcheck.callgraph import CallGraphBuilder

    built = CallGraphBuilder("walker.py", source).build()
    reports = PartitionInferencer(built).infer()
    return [s.verdict.qualname for s in reports[function].steps]


def test_gateway_bound_on_one_branch_reaches_later_calls():
    source = (
        "def main(kernel, fast, path):\n"
        "    if fast:\n"
        "        gw = FreePart(kernel=kernel).deploy()\n"
        "    image = gw.call('opencv', 'imread', path)\n"
        "    gw.call('opencv', 'imwrite', '/out.png', image)\n"
    )
    assert steps_of(source, "main") == ["cv2.imread", "cv2.imwrite"]


def test_gateway_call_inside_a_comprehension_is_a_step():
    source = (
        "def main(gateway, paths):\n"
        "    return [gateway.call('opencv', 'imread', p) for p in paths]\n"
    )
    assert steps_of(source, "main") == ["cv2.imread"]


def test_gateway_call_as_a_method_receiver_is_a_step():
    source = (
        "def main(gateway, path):\n"
        "    return gateway.call('opencv', 'imread', path).copy()\n"
    )
    assert steps_of(source, "main") == ["cv2.imread"]


def test_loop_body_call_is_traced_once():
    source = (
        "def main(gateway, paths):\n"
        "    for p in paths:\n"
        "        gateway.call('opencv', 'imread', p)\n"
    )
    # The flow walk visits the body twice; the plan records it once.
    assert steps_of(source, "main") == ["cv2.imread"]


def test_alias_named_site_freezes_the_state_it_leaves():
    # The runtime faults on this write: `load` names imread, leaving
    # initialization freezes `s`.
    source = (
        "from repro.sim.memory import MemoryLayout\n"
        "\n"
        "ANNOTATIONS = (MemoryLayout(name='s', tag='s', nbytes=64),)\n"
        "\n"
        "def pipeline(gateway, path):\n"
        "    gateway.host_alloc('s', [0.0])\n"
        "    load = 'imread'\n"
        "    image = gateway.call('opencv', load, path)\n"
        "    gateway.host_write('s', [1.0])\n"
        "    return image\n"
    )
    findings, _ = check_source("alias_freeze.py", source)
    assert [(f.rule, f.line) for f in findings] == [("frozen-write", 9)]


def test_alias_named_store_before_load_is_a_phase_order_error():
    source = (
        "def pipeline(gateway, path, out):\n"
        "    api = 'imwrite'\n"
        "    gateway.call('opencv', api, out, None)\n"
        "    return gateway.call('opencv', 'imread', path)\n"
    )
    findings, _ = check_source("alias_order.py", source)
    assert [(f.rule, f.line) for f in findings] == [("phase-order", 3)]


def test_gateway_flows_through_positional_and_keyword_only_params():
    source = (
        "def load(g, /, path):\n"
        "    return g.call('opencv', 'imread', path)\n"
        "\n"
        "def load_kw(path, *, g):\n"
        "    return g.call('opencv', 'imread', path)\n"
        "\n"
        "def main(gateway, p):\n"
        "    a = load(gateway, p)\n"
        "    load_kw(p, g=gateway)\n"
        "    gateway.call('opencv', 'imwrite', '/out.png', a)\n"
    )
    assert steps_of(source, "main") == [
        "cv2.imread", "cv2.imread", "cv2.imwrite"
    ]
