"""The simulator's own cost per isolation crossing, as a frame budget.

FreePart pays its overhead per framework API call; the simulator pays a
host cost per call too.  This test counts the Python frames under the
``repro`` package that each outermost ``FreePartGateway.call`` and
``NativeGateway.call`` runs, over a fixed small set of Table 6 apps, and
bounds the mean per call.  The counts repeat exactly for a seed and
exclude numpy and scipy, so a rise is a real change in how much of the
simulator runs per crossing.  Interpreters that inline comprehensions
(3.12 and later) only lower the count.
"""

import os
import sys

import repro
from repro.apps.base import Workload, execute_app
from repro.apps.suite import make_app
from repro.attacks.scenarios import build_gateway
from repro.core.gateway import NativeGateway
from repro.core.runtime import FreePartGateway
from repro.sim.kernel import SimKernel

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: A loader-heavy, a model, the hand-written OMRChecker, a GUI and a
#: tensorflow app.
SAMPLE_IDS = (1, 4, 8, 12, 20)

#: Mean ``repro`` frames per call, with ~5% headroom over the counts
#: when the budget was set (95.4 and 29.3; 145.9 and 42.5 before the
#: per-crossing cuts).
FREEPART_FRAME_BUDGET = 100
NATIVE_FRAME_BUDGET = 31


def frames_per_call(technique, gateway_type):
    """Mean package frames per outermost ``gateway_type.call``."""
    entry = gateway_type.call.__code__
    outermost = None
    calls = frames = 0

    def profile(frame, event, arg):
        nonlocal outermost, calls, frames
        if event == "call":
            if outermost is None:
                if frame.f_code is entry:
                    outermost = frame
                    calls += 1
                    frames += 1
            elif frame.f_code.co_filename.startswith(PACKAGE_DIR):
                frames += 1
        elif event == "return" and frame is outermost:
            outermost = None

    workload = Workload(items=1, image_size=8, seed=42)
    for sample_id in SAMPLE_IDS:
        app = make_app(sample_id)
        gateway = build_gateway(technique, SimKernel(), app=app)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            report = execute_app(app, gateway, workload)
        finally:
            sys.setprofile(previous)
        gateway.shutdown()
        assert not report.failed, report.error
    return frames / calls


def test_freepart_call_frame_budget():
    assert frames_per_call("freepart", FreePartGateway) <= FREEPART_FRAME_BUDGET


def test_native_call_frame_budget():
    assert frames_per_call("none", NativeGateway) <= NATIVE_FRAME_BUDGET
