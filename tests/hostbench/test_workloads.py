"""Every workload end to end on its shrunken spec, and the run contract.

``run_pass`` is the code each benchmark child process runs; here it runs
in-process on :data:`SMALL` specs.  ``run.main`` is driven with its
child launcher swapped for the same in-process pass.
"""

import json
from types import SimpleNamespace

import pytest

from hostbench import run as bench_run
from hostbench.workloads import SMALL, WORKLOAD_NAMES, run_pass
from repro.serve.server import PipelineServer

SEED = 5


@pytest.fixture(scope="module")
def passes():
    return {name: run_pass(name, SEED, spec=SMALL[name])
            for name in WORKLOAD_NAMES}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_small_pass_checks_out(passes, name):
    outcome = passes[name]
    assert outcome["aborted"] is None
    assert outcome["checks"] == []
    assert outcome["unanswered"] == 0
    host = outcome["host"]
    assert host["ops"] == outcome["offered"] > 0
    assert host["timed_s"] > 0 and host["setup_s"] > 0
    assert 0 < host["op_p50_ms"] <= host["op_p99_ms"]
    assert host["peak_rss_mb"] > 0


def test_small_passes_exercise_their_layers(passes):
    burst = passes["serve_burst_faults"]["virtual"]
    assert burst["faults.injected"] > 0
    cluster = passes["cluster_failover"]["virtual"]
    assert cluster["cluster.node_failures"] == 1
    suite = passes["oneshot_suite"]["virtual"]
    assert suite["virt_overhead_ratio"] > 1.0
    assert 0 < suite["core.dispatch_cache.hit_rate"] < 1


def test_virtual_metrics_repeat_exactly(passes):
    again = run_pass("serve_burst_faults", SEED,
                     spec=SMALL["serve_burst_faults"])
    assert again["virtual"] == passes["serve_burst_faults"]["virtual"]


@pytest.mark.parametrize("name", ["serve_burst_faults", "oneshot_suite"])
def test_traced_pass_keeps_virtual_metrics(passes, name):
    traced = run_pass(name, SEED, trace=True, spec=SMALL[name])
    plain = passes[name]["virtual"]
    assert {k: traced["virtual"][k] for k in plain} == plain
    assert traced["virtual"]["core.transitions"] > 0


def test_escaping_exception_aborts_and_counts_unanswered(monkeypatch):
    original = PipelineServer.serve_one
    calls = []

    def failing(self):
        calls.append(1)
        if len(calls) > 10:
            raise RuntimeError("simulator bug")
        return original(self)

    monkeypatch.setattr(PipelineServer, "serve_one", failing)
    outcome = run_pass("serve_diurnal", SEED, spec=SMALL["serve_diurnal"])
    assert outcome["aborted"] == "RuntimeError"
    # Ten requests were answered; the one in flight and the rest were not.
    assert outcome["unanswered"] == outcome["offered"] - 10
    assert outcome["virtual"]["failed_frac"] == pytest.approx(
        outcome["unanswered"] / outcome["offered"]
    )
    assert outcome["host"]["ops"] == 11


def test_suite_abort_fails_the_remaining_runs(monkeypatch):
    from repro.apps.base import PipelineApp

    original = PipelineApp.setup
    seen = []

    def failing(self, kernel, workload):
        seen.append(1)
        if len(seen) > 2:  # the second app's native run
            raise OSError("disk gone")
        return original(self, kernel, workload)

    monkeypatch.setattr(PipelineApp, "setup", failing)
    outcome = run_pass("oneshot_suite", SEED, spec=SMALL["oneshot_suite"])
    assert outcome["aborted"] == "OSError"
    assert outcome["virtual"]["failed_frac"] == 0.5  # 2 of 4 runs done
    assert outcome["host"]["ops"] == outcome["offered"] > 0


def in_process(monkeypatch):
    """Make run.main launch SMALL passes in this process."""

    def fake_child(workload, seed, pass_index, trace, trace_path):
        outcome = run_pass(workload, seed, pass_index, trace=trace,
                           spec=SMALL[workload],
                           trace_path=str(trace_path) if trace_path else None)
        outcome.pop("trace", None)
        return json.loads(json.dumps(outcome))

    monkeypatch.setattr(bench_run, "run_child", fake_child)


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


def test_main_prints_end_to_end_metrics(monkeypatch, capsys, tmp_path):
    in_process(monkeypatch)
    code = bench_run.main(["--workload", "serve_diurnal", "--seed", "3",
                           "--out", str(tmp_path)])
    lines, result = last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in bench_run.load_benchmark()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert "serve_diurnal goodput 1.0 ratio" in lines
    assert (tmp_path / "result.json").is_file()


def test_main_traced_prints_every_layer_metric(monkeypatch, capsys,
                                               tmp_path):
    in_process(monkeypatch)
    names = [m["name"] for m in bench_run.load_benchmark()["per_layer"]]
    for workload in WORKLOAD_NAMES:
        code = bench_run.main(["--workload", workload, "--trace", "1",
                               "--out", str(tmp_path)])
        _, result = last_json(capsys)
        assert code == 0, workload
        assert list(result["metrics"]) == names
        assert (tmp_path / f"{workload}.trace.json").is_file()
        assert (tmp_path / f"{workload}.layers.txt").is_file()


def test_seconds_is_one_budget_for_the_whole_run(passes, monkeypatch,
                                                 capsys, tmp_path):
    now = [0.0]
    made = []

    def three_second_pass(workload, seed, pass_index, trace, trace_path):
        now[0] += 3.0
        made.append(workload)
        return json.loads(json.dumps(passes[workload]))

    monkeypatch.setattr(bench_run, "run_child", three_second_pass)
    monkeypatch.setattr(bench_run, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))
    two = ["serve_diurnal", "serve_burst_faults"]
    assert bench_run.main(["--workload", *two, "--seconds", "20",
                           "--out", str(tmp_path)]) == 0
    # 10 s each: a fourth 3 s pass would end at 12 s, so it is not made;
    # the second workload gets the 11 s left.
    assert made == [two[0]] * 3 + [two[1]] * 3
    assert now[0] <= 20
    # A budget too short for one pass still makes one.
    made.clear()
    assert bench_run.main(["--workload", *two, "--seconds", "1",
                           "--out", str(tmp_path)]) == 0
    assert made == two
    capsys.readouterr()


def test_main_exits_1_on_abort(monkeypatch, capsys, tmp_path):
    def broken(self):
        raise KeyError("x")

    in_process(monkeypatch)
    monkeypatch.setattr(PipelineServer, "serve_one", broken)
    code = bench_run.main(["--workload", "serve_diurnal",
                           "--out", str(tmp_path)])
    lines, result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "serve_diurnal check FAILED: aborted: KeyError" in lines


def test_main_usage_and_missing_program(monkeypatch, capsys, tmp_path):
    with pytest.raises(SystemExit) as usage:
        bench_run.main(["--trace", "2"])
    assert usage.value.code == 2
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    assert bench_run.main(["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == ""
