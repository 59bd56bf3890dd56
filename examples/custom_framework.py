#!/usr/bin/env python3
"""Generality: bring your own framework and let FreePart partition it.

Registers a small custom "miniaudio" framework — a loader, two DSP
operators, and a writer — and shows the offline pipeline doing its job
without any framework-specific knowledge: the hybrid analysis
categorizes the APIs from their observed data flows, the partitioner
assigns them to agents, and the runtime isolates them.

Run:  python examples/custom_framework.py
"""

import numpy as np

from repro.core.apitypes import APIType
from repro.core.hybrid import HybridAnalyzer
from repro.core.runtime import FreePart
from repro.frameworks.base import APISpec, Framework, Tensor
from repro.frameworks.registry import register_framework

AUDIO = register_framework(Framework("miniaudio", version="0.1"))


def _wave_example(ctx):
    return ((Tensor(np.sin(np.linspace(0, 6.28, 64))),), {})


def _path_example(ctx):
    if not ctx.kernel.fs.exists("/audio/example.wav"):
        ctx.kernel.fs.write_file("/audio/example.wav",
                                 np.sin(np.linspace(0, 6.28, 64)))
    return (("/audio/example.wav",), {})


def _load_wav(ctx, path):
    samples = ctx.guard(ctx.read_file(path))
    return Tensor(np.asarray(samples, dtype=np.float64))


AUDIO.add(
    APISpec(name="load_wav", framework="miniaudio",
            qualname="audio.load_wav", ground_truth=APIType.LOADING,
            syscalls=("openat", "fstat", "read", "close", "brk", "lseek"),
            example_args=_path_example, doc="Decode a WAV file."),
    _load_wav,
)


def _lowpass(ctx, wave):
    samples = np.asarray(ctx.guard(wave).data, dtype=np.float64)
    smoothed = np.convolve(samples, np.ones(5) / 5.0, mode="same")
    ctx.mem_compute(nbytes=int(smoothed.nbytes))
    return Tensor(smoothed)


def _normalize(ctx, wave):
    samples = np.asarray(ctx.guard(wave).data, dtype=np.float64)
    peak = np.abs(samples).max() or 1.0
    ctx.mem_compute(nbytes=int(samples.nbytes))
    return Tensor(samples / peak)


for name, impl in (("lowpass", _lowpass), ("normalize", _normalize)):
    AUDIO.add(
        APISpec(name=name, framework="miniaudio",
                qualname=f"audio.{name}", ground_truth=APIType.PROCESSING,
                syscalls=("brk",),
                example_args=_wave_example, doc=f"{name} filter"),
        impl,
    )


def _write_wav(ctx, path, wave):
    samples = np.asarray(ctx.guard(wave).data, dtype=np.float64)
    ctx.write_file(path, samples.copy())


AUDIO.add(
    APISpec(name="write_wav", framework="miniaudio",
            qualname="audio.write_wav", ground_truth=APIType.STORING,
            syscalls=("openat", "write", "close", "brk"),
            example_args=lambda ctx: (
                ("/audio/out.wav", Tensor(np.zeros(8))), {}
            ),
            doc="Encode a WAV file."),
    _write_wav,
)


def main() -> None:
    # Offline: categorize the custom APIs from their behaviour.
    categorization = HybridAnalyzer().categorize_framework(AUDIO)
    print(f"hybrid analysis verdicts, accuracy {categorization.accuracy()}:")
    for entry in categorization.entries.values():
        print(f"  {entry.qualname:<20} -> {entry.api_type.value:<16} "
              f"(via {entry.method})")
    assert categorization.accuracy() == 1.0

    # Online: deploy and run a pipeline over the custom framework.  The
    # visualizing agent simply idles (miniaudio has no GUI APIs).
    freepart = FreePart()
    kernel = freepart.kernel
    kernel.fs.write_file("/audio/example.wav",
                         np.sin(np.linspace(0, 25, 256)) * 3.0)
    gateway = freepart.deploy(used_apis=list(AUDIO))
    wave = gateway.call("miniaudio", "load_wav", "/audio/example.wav")
    filtered = gateway.call("miniaudio", "lowpass", wave)
    normalized = gateway.call("miniaudio", "normalize", filtered)
    gateway.call("miniaudio", "write_wav", "/audio/clean.wav", normalized)

    output = kernel.fs.read_file("/audio/clean.wav")
    print(f"\npipeline ran across {gateway.process_count} processes; "
          f"peak amplitude now {np.abs(output).max():.3f}")
    print(f"lazy copies: {kernel.ipc.lazy_copies}, "
          f"messages: {kernel.ipc.messages}, "
          f"virtual time: {kernel.clock.now_ms:.2f} ms")


if __name__ == "__main__":
    main()
