"""``compare.py`` verdicts on synthetic sets of runs."""

import json

from hostbench import compare

TIGHT = [100.0, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0, 100.1, 99.9]


def test_gain_needs_nine_of_ten_wins_beyond_the_spread():
    faster = [v * 0.9 for v in TIGHT]
    assert compare.verdict(TIGHT, faster, "lower", 0.1) == ("better", 1.0)
    # Eight wins of ten is not a claimed gain, however large the median
    # shift; it is still within the bound, so "same".
    eight = faster[:8] + [v * 1.02 for v in TIGHT[8:]]
    label, share = compare.verdict(TIGHT, eight, "lower", 0.15)
    assert (label, share) == ("same", 0.8)


def test_gain_must_clear_the_base_spread():
    tiny = [v - 0.01 for v in TIGHT]  # wins every pair by a hair
    assert compare.verdict(TIGHT, tiny, "lower", 0.1) == ("same", 1.0)


def test_direction_higher_is_better():
    more = [v * 1.2 for v in TIGHT]
    assert compare.verdict(TIGHT, more, "higher", 0.1)[0] == "better"
    assert compare.verdict(more, TIGHT, "higher", 0.1)[0] == "worse"


def test_worse_beyond_the_bound_only():
    assert compare.verdict(TIGHT, [v * 1.05 for v in TIGHT],
                           "lower", 0.1)[0] == "same"
    assert compare.verdict(TIGHT, [v * 1.2 for v in TIGHT],
                           "lower", 0.1)[0] == "worse"


def test_unresolved_when_spread_exceeds_bound():
    wide = [70.0, 130.0, 85.0, 115.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    shuffled = list(reversed(wide))
    assert compare.verdict(wide, shuffled, "lower", 0.1)[0] == "unresolved"
    # Every new run beating every base run resolves it despite the spread.
    far = [v / 4 for v in wide]
    assert compare.verdict(wide, far, "lower", 0.1)[0] == "better"


def test_exact_metrics_pair_by_seed():
    base = [(1, 0.5), (2, 0.7)]
    assert compare.exact_verdict(base, [(2, 0.7), (1, 0.5)]) == "same"
    assert compare.exact_verdict(base, [(1, 0.5), (2, 0.7001)]) == "changed"
    # A seed only one side ran is not compared.
    assert compare.exact_verdict(base, [(1, 0.5), (3, 9.0)]) == "same"
    assert compare.exact_verdict(base, [(3, 0.5)]) == "unpaired"


HOST = ["setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"]
VIRTUAL = {"failed_frac": 0.0, "goodput": 0.96, "virt_p99_ms": 8.5,
           "virt_overhead_ratio": 0.0}


def write_run(directory, seed, metrics):
    directory.mkdir(parents=True)
    (directory / "result.json").write_text(json.dumps({
        "seed": seed, "workloads": {"serve_diurnal": {"metrics": metrics}},
    }))


def run_cli(tmp_path, capsys, change):
    for seed, value in enumerate(TIGHT):
        base = dict(dict.fromkeys(HOST, value), **VIRTUAL)
        write_run(tmp_path / "base" / str(seed), seed, base)
        write_run(tmp_path / "new" / str(seed), seed, dict(base, **change))
    code = compare.main([str(tmp_path / "base"), str(tmp_path / "new")])
    lines = capsys.readouterr().out.splitlines()
    return code, {line.split()[1]: line.split()[-1] for line in lines[1:]}


def test_cli_reports_one_row_per_workload_metric(tmp_path, capsys):
    code, verdicts = run_cli(tmp_path, capsys, {})
    assert code == 0
    # virt_overhead_ratio applies to oneshot_suite only.
    assert verdicts == dict.fromkeys(
        HOST + ["failed_frac", "goodput", "virt_p99_ms"], "same")


def test_cli_fails_a_worse_host_metric(tmp_path, capsys):
    code, verdicts = run_cli(tmp_path, capsys, {"setup_s": 130.0})
    assert code == 1
    assert verdicts["setup_s"] == "worse"


def test_cli_fails_any_change_of_a_virtual_metric(tmp_path, capsys):
    code, verdicts = run_cli(tmp_path, capsys, {"goodput": 0.9601})
    assert code == 1
    assert verdicts["goodput"] == "changed"
    assert verdicts["virt_p99_ms"] == "same"
