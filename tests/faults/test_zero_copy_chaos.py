"""Zero-copy COW downgrades stay correct and deterministic under chaos.

The zero-copy lane defers byte copies until first write; fault schedules
must never let that deferral weaken an invariant: frozen pages still
fault before any COW, accounting still reconciles, and the whole run is
byte-deterministic schedule by schedule.
"""

from dataclasses import replace

import numpy as np

from repro.apps.base import Workload, execute_app
from repro.apps.suite import make_app
from repro.attacks.scenarios import build_gateway
from repro.faults.campaign import ChaosSettings, run_campaign
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRates
from repro.sim.kernel import ZERO_COPY_MIN_BYTES, SimKernel

# (64, 64) float64 intermediates are 32,768 bytes — even single-channel
# derived images clear the remap threshold, so every chaos run below
# genuinely exercises the zero-copy lane.
BIG = Workload(items=1, image_size=64)


def test_workload_actually_takes_the_zero_copy_lane():
    assert 64 * 64 * 8 >= ZERO_COPY_MIN_BYTES
    app = make_app(2)
    kernel = SimKernel()
    gateway = build_gateway("freepart", kernel, app=app)
    report = execute_app(app, gateway, BIG)
    assert not report.failed, report.error
    assert report.zero_copy_transfers > 0


# Message-level chaos only: drops, duplicates, reorders, and stalls are
# all masked by retransmission, so the run completes and its zero-copy
# accounting can be checked end to end.  (Crash faults legitimately end
# some runs failed-clean; the campaign test below covers those.)
MESSAGE_CHAOS = FaultRates(
    rpc_crash=0.0, ipc_drop=0.05, ipc_duplicate=0.05,
    ipc_reorder=0.02, channel_stall=0.02,
    checkpoint_tear=0.0, restart_crash=0.0,
)


def faulted_run(seed):
    """One seeded-fault run; returns the numbers that must reproduce."""
    app = make_app(2)
    kernel = SimKernel()
    plan = FaultPlan(seed, rates=MESSAGE_CHAOS)
    kernel.inject_faults(FaultInjector(plan))
    from repro.core.runtime import FreePartConfig

    gateway = build_gateway(
        "freepart", kernel, app=app,
        config=FreePartConfig(
            annotations=tuple(app.annotations), rpc_retries=3
        ),
    )
    report = execute_app(app, gateway, BIG)
    ipc = kernel.ipc
    frozen_granted = sum(
        p.memory.frozen_write_granted for p in kernel.processes()
    )
    return report, ipc, kernel.clock.now_ns, frozen_granted


def test_faulted_run_keeps_zero_copy_accounting_reconciled():
    report, ipc, _, frozen_granted = faulted_run(seed=13)
    assert not report.failed, report.error
    assert ipc.zero_copy_transfers > 0
    # The ledger reconciles exactly even with retransmits in the mix.
    assert ipc.total_copy_bytes == (
        ipc.lazy_copy_bytes + ipc.nonlazy_copy_bytes + ipc.zero_copy_bytes
    )
    assert report.data_transferred_bytes == (
        report.ipc_bytes + report.lazy_copy_bytes + report.zero_copy_bytes
    )
    # COW never fires on a frozen page: the permission check runs first.
    assert frozen_granted == 0
    assert ipc.cow_bytes <= ipc.zero_copy_bytes


def test_faulted_runs_are_byte_deterministic_per_schedule():
    for seed in (13, 91):
        first_report, first_ipc, first_ns, _ = faulted_run(seed)
        second_report, second_ipc, second_ns, _ = faulted_run(seed)
        assert first_ns == second_ns
        assert first_ipc.snapshot() == second_ipc.snapshot()
        # Every counter and verdict; the app's ``result`` payload aside.
        assert replace(first_report, result=None) == replace(
            second_report, result=None)


def test_chaos_campaign_with_zero_copy_sheets_holds_every_invariant():
    settings = ChaosSettings(target="2", seed=7, campaign=10,
                             fault_rate=0.05, items=1, image_size=64)
    first = run_campaign(settings)
    second = run_campaign(settings)
    assert first.passed, [
        s.to_dict() for s in first.schedules if not s.passed
    ]
    assert first.faults_injected > 0
    assert first.digest() == second.digest()
