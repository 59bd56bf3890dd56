"""Synthetic video workloads: deterministic camera-frame sources.

The camera device takes a ``frame_source`` callable; these factories
produce sources with controlled content so tracking apps (drone,
EyeLike, FaceTracker) behave deterministically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.devices import Camera, FrameSource


def moving_blob_source(
    size: int = 32, blob: int = 4, step: int = 1, seed: int = 0
) -> FrameSource:
    """Frames with one bright blob moving rightwards ``step`` px/frame."""

    def source(index: int) -> Optional[np.ndarray]:
        rng = np.random.default_rng(seed * 7919 + index)
        frame = np.zeros((size, size, 3), dtype=np.float64)
        x = (2 + index * step) % max(size - blob, 1)
        y = size // 2 - blob // 2
        frame[y:y + blob, x:x + blob] = 255.0
        return frame + rng.normal(scale=1.5, size=frame.shape)

    return source


def static_scene_source(size: int = 32, seed: int = 3) -> FrameSource:
    """Identical frames plus per-frame sensor noise."""
    rng0 = np.random.default_rng(seed)
    scene = rng0.integers(0, 256, size=(size, size, 3)).astype(np.float64)

    def source(index: int) -> Optional[np.ndarray]:
        rng = np.random.default_rng(seed * 104_729 + index)
        return scene + rng.normal(scale=2.0, size=scene.shape)

    return source


def install_camera(
    kernel,
    source: FrameSource,
    frame_limit: Optional[int] = None,
) -> Camera:
    """Replace the kernel's camera with one driven by ``source``."""
    camera = Camera(frame_source=source, frame_limit=frame_limit)
    kernel.devices.camera = camera
    return camera
