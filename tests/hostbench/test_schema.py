"""``BENCHMARK.json``: the schema the benchmark is held to."""

import json
import re

import pytest

from hostbench.layers import LAYER_NAMES
from hostbench.run import BENCHMARK, ROOT, clock_of
from hostbench.workloads import SMALL, WORKLOAD_NAMES

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def test_top_level_keys_and_limits():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCHMARK.stat().st_size <= 64 * 1024
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    command = bench["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in command)
    assert not any(arg.startswith("/") or ".." in arg for arg in command)


def test_paths_are_benchmark_directories():
    paths = load()["paths"]
    assert 1 <= len(paths) <= 16
    for path in paths:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert load()["command"][1].startswith(paths[0] + "/")


def test_workloads_match_the_harness():
    workloads = load()["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(WORKLOAD_NAMES)
    assert set(SMALL) == set(WORKLOAD_NAMES)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_metrics_have_unit_direction_bound_and_clock():
    bench = load()
    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert NAME.match(metric["name"])
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        # clock_of raises KeyError for a metric it has no clock for.
        assert clock_of(metric["name"]) in ("host", "virtual", "count")


def test_bounds_hold_setup_time_widest():
    end_to_end = {m["name"]: m for m in load()["end_to_end"]}
    setup = end_to_end.pop("setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 0 < setup["bound"] <= 0.20
    for metric in end_to_end.values():
        assert 0 < metric["bound"] <= 0.15
        assert metric["bound"] < setup["bound"]


def test_a_metric_without_a_clock_is_refused():
    with pytest.raises(KeyError):
        clock_of("serve.unclocked")


def test_every_layer_is_a_per_layer_metric():
    names = {m["name"] for m in load()["per_layer"]}
    for layer in LAYER_NAMES:
        assert {f"{layer}.calls", f"{layer}.self_ms"} <= names
