"""Synthetic image workloads (the ImageNet substitute, DESIGN.md §2).

Deterministic, seeded generators for the image datasets the evaluation
feeds its applications.  Content classes mimic the structure the
mini-framework operators respond to: blobs for detectors, gradients for
filters, marked sheets for OMRChecker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.sim.kernel import SimKernel


def noise_image(seed: int, size: int = 32, channels: int = 3) -> np.ndarray:
    """Uniform-noise image (the generic input)."""
    rng = np.random.default_rng(seed)
    shape = (size, size, channels) if channels > 1 else (size, size)
    return rng.integers(0, 256, size=shape).astype(np.float64)


def gradient_image(seed: int, size: int = 32) -> np.ndarray:
    """Smooth gradient + noise (exercises edge/derivative filters)."""
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0, 255, size)
    base = np.add.outer(ramp, ramp) / 2.0
    return base + rng.normal(scale=4.0, size=(size, size))


def blob_image(
    seed: int, size: int = 32, blobs: int = 3, intensity: float = 255.0
) -> np.ndarray:
    """Dark field with bright rectangular blobs (detector targets)."""
    rng = np.random.default_rng(seed)
    image = np.zeros((size, size), dtype=np.float64)
    for _ in range(blobs):
        w = int(rng.integers(2, max(3, size // 4)))
        h = int(rng.integers(2, max(3, size // 4)))
        x = int(rng.integers(0, size - w))
        y = int(rng.integers(0, size - h))
        image[y:y + h, x:x + w] = intensity
    image += rng.normal(scale=2.0, size=image.shape)
    return image


def omr_sheet(
    boxes: List[List[int]], marked: List[bool], size: int = 20, seed: int = 0
) -> np.ndarray:
    """An OMR answer sheet with the given boxes marked or blank."""
    rng = np.random.default_rng(seed)
    sheet = np.zeros((size, size, 3), dtype=np.float64)
    for (x, y, w, h), is_marked in zip(boxes, marked):
        if is_marked:
            sheet[y:y + h, x:x + w] = 255.0
    return sheet + rng.normal(scale=2.0, size=sheet.shape)


@dataclass(frozen=True)
class ImageDataset:
    """A seeded, materializable image dataset."""

    name: str
    count: int
    size: int = 32
    kind: str = "noise"  # noise | gradient | blob
    seed: int = 0

    def path(self, index: int) -> str:
        return f"/datasets/{self.name}/img-{index:05d}.png"

    def generate(self, index: int) -> np.ndarray:
        seed = self.seed * 100_003 + index
        if self.kind == "gradient":
            return gradient_image(seed, size=self.size)
        if self.kind == "blob":
            return blob_image(seed, size=self.size)
        return noise_image(seed, size=self.size)

    def materialize(self, kernel: SimKernel) -> List[str]:
        """Write every image into the simulated filesystem."""
        paths = []
        for index in range(self.count):
            path = self.path(index)
            kernel.fs.write_file(path, self.generate(index))
            paths.append(path)
        return paths

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self.generate(index) for index in range(self.count))


def standard_eval_dataset(items: int = 8, size: int = 32) -> ImageDataset:
    """The default dataset the overhead benches use."""
    return ImageDataset(name="eval", count=items, size=size, kind="blob", seed=7)
