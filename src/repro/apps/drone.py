"""The autonomous object-tracking drone case study (Section 5.4.1).

The drone fetches camera frames, loads them with the vulnerable
``imread`` path, recognizes the tracked object, and steers toward it.
Its speed lives in the host program variable ``self.speed`` (default
0.3; flipping it to -0.3 makes the drone flee the object).

Two attacks from the paper are reproduced against it:

* **DoS** (CVE-2017-14136 / CVE-2019-14491) — without FreePart the whole
  program dies and the drone falls; with FreePart only the data-loading
  agent crashes, the control loop keeps flying, and the restarted agent
  resumes frame handling;
* **data corruption** (CVE-2017-12606) — flip ``self.speed``; with
  FreePart the exploit is contained in the loading agent while the
  variable lives in the target program process.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.base import Application, AppResult, AppSpec, ArgSpec, CallSite, TypeCounts, Workload
from repro.core.apitypes import APIType
from repro.core.gateway import ApiGateway
from repro.errors import AgentUnavailable, FrameworkCrash
from repro.sim.kernel import SimKernel

SPEED_TAG = "self.speed"
DEFAULT_SPEED = 0.3

DRONE_SPEC = AppSpec(
    sample_id=101,
    name="drone-tracker",
    main_framework="opencv",
    language="Python",
    sloc=220,
    size_bytes=96 * 1024,
    description="Autonomous object tracking drone (Section 5.4.1)",
    loading=TypeCounts(2, 2),
    processing=TypeCounts(4, 4),
    visualizing=TypeCounts(0, 0),
    storing=TypeCounts(0, 0),
)

_SCHEDULE = (
    CallSite("opencv", "VideoCapture", ArgSpec.SOURCE_NONE, APIType.LOADING, loop=False),
    CallSite("opencv", "imread", ArgSpec.SOURCE_PATH, APIType.LOADING),
    CallSite("opencv", "cvtColor", ArgSpec.UNARY, APIType.PROCESSING),
    CallSite("opencv", "GaussianBlur", ArgSpec.UNARY, APIType.PROCESSING),
    CallSite("opencv", "threshold", ArgSpec.UNARY, APIType.PROCESSING),
    CallSite("opencv", "CascadeClassifier_detectMultiScale", ArgSpec.DETECT, APIType.PROCESSING),
)


class DroneApp(Application):
    """Camera → recognize → steer control loop."""

    def __init__(self) -> None:
        super().__init__(DRONE_SPEC)

    @property
    def schedule(self):
        return _SCHEDULE

    def frame_path(self, item: int) -> str:
        return f"/data/drone/frame-{item}.png"

    def setup(self, kernel: SimKernel, workload: Workload) -> None:
        rng = np.random.default_rng(workload.seed + 4242)
        for item in range(workload.items):
            frame = np.zeros((16, 16, 3), dtype=np.float64)
            # The tracked object is a bright blob drifting rightwards.
            x = 2 + (item % 10)
            frame[6:10, x:x + 3] = 255.0
            frame += rng.normal(scale=1.0, size=frame.shape)
            kernel.fs.write_file(self.frame_path(item), frame)

    def run(self, gateway: ApiGateway, workload: Workload) -> AppResult:
        result = AppResult()
        gateway.host_alloc(SPEED_TAG, DEFAULT_SPEED)
        classifier = gateway.call("opencv", "CascadeClassifier")
        gateway.call("opencv", "VideoCapture", 0)
        positions: List[float] = []
        x_position = 0.0

        for item in range(workload.items):
            try:
                frame = gateway.call("opencv", "imread", self.frame_path(item))
            except (FrameworkCrash, AgentUnavailable):
                # The loading agent died (and, if restart is disabled,
                # stays down); the drone itself keeps flying either way.
                result.crashes_survived += 1
                positions.append(x_position)
                continue
            gray = gateway.call("opencv", "cvtColor", frame)
            smooth = gateway.call("opencv", "GaussianBlur", gray)
            mask = gateway.call("opencv", "threshold", smooth)
            objects = gateway.call(
                "opencv", "CascadeClassifier_detectMultiScale", classifier, mask
            )
            speed = float(gateway.host_read(SPEED_TAG))
            if objects:
                target_x = objects[0][0]
                direction = 1.0 if target_x >= x_position else -1.0
                x_position += direction * speed
            positions.append(x_position)
            result.items_processed += 1

        result.outputs["positions"] = positions
        result.outputs["final_speed"] = gateway.host_read(SPEED_TAG)
        result.outputs["airborne"] = gateway.host.alive
        return result


def drone_followed_object(result: AppResult) -> bool:
    """Did the drone track toward the (rightward-drifting) object?"""
    positions = result.outputs.get("positions", [])
    return bool(positions) and positions[-1] > 0
