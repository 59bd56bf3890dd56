"""The ``output`` invariant on open-loop runs, which shed load.

An open-loop baseline sheds part of its traffic, so a faulted run that
serves more of it writes files the baseline lacks.  Such a file passes
only where the baseline lost that very request and the file equals the
baseline's output for an identical input; everything else still fails.
"""

from repro.faults.campaign import (
    ChaosSettings,
    RunOutcome,
    check_invariants,
    run_target,
)
from repro.faults.plan import FaultPlan, FaultRates

SMALL, LARGE = "input-8x8", "input-32x32"


def outcome(outputs, lost=(), inputs=None, losses=1):
    return RunOutcome(
        ok=True, failed_clean=False, error="", outputs=outputs,
        frozen_writes=0, stale_refs=0, fault_ids=(), observed_fault_ids=(),
        injected_by_kind={}, decisions=0, virtual_ns=0, restarts=0,
        retries=0, losses_accounted=losses,
        lost_outputs=frozenset(lost),
        input_digests=inputs if inputs is not None else {
            "/out/a": SMALL, "/out/b": SMALL, "/out/c": LARGE,
        },
    )


#: The baseline served a and c and shed b.
BASELINE = outcome({"/out/a": "d-small", "/out/c": "d-large"},
                   lost={"/out/b"})


def _output(faulted, baseline=BASELINE):
    return check_invariants(baseline, faulted)["output"]


def test_serving_a_request_the_baseline_shed_passes():
    faulted = outcome({"/out/a": "d-small", "/out/b": "d-small"},
                      lost={"/out/c"})
    assert _output(faulted)


def test_a_corrupt_file_the_baseline_shed_fails():
    faulted = outcome({"/out/a": "d-small", "/out/b": "CORRUPT"},
                      lost={"/out/c"})
    assert not _output(faulted)


def test_a_file_whose_input_no_baseline_request_had_fails():
    faulted = outcome(
        {"/out/a": "d-small", "/out/b": "d-small"}, lost={"/out/c"},
        inputs={"/out/a": SMALL, "/out/b": "input-never-seen",
                "/out/c": LARGE},
    )
    assert not _output(faulted)


def test_a_file_the_baseline_lacks_but_never_lost_fails():
    baseline = outcome({"/out/a": "d-small", "/out/c": "d-large"})
    faulted = outcome({"/out/a": "d-small", "/out/b": "d-small"},
                      lost={"/out/c"})
    assert not _output(faulted, baseline)


def test_a_corrupt_shared_file_still_fails():
    faulted = outcome({"/out/a": "CORRUPT", "/out/b": "d-small"},
                      lost={"/out/c"})
    assert not _output(faulted)


def test_burst_schedule_serving_shed_requests_passes_output():
    """Schedule 19 of the CI chaos overlay serves 8 arrivals that its
    fault-free baseline shed; each file equals the baseline's output
    for an identical input."""
    settings = ChaosSettings(target="loadgen", seed=11, campaign=25,
                             fault_rate=0.02, profile="burst")
    baseline = run_target("loadgen", settings, plan=None)
    plan = FaultPlan(settings.schedule_seed(19),
                     FaultRates.scaled(settings.fault_rate))
    faulted = run_target("loadgen", settings, plan)
    extra = set(faulted.outputs) - set(baseline.outputs)
    assert len(extra) == 8
    assert extra <= baseline.lost_outputs
    assert check_invariants(baseline, faulted)["output"]
