"""Every covered API executes its own test case successfully.

This is the reproduction's equivalent of running the frameworks' example
suites: for each API with a dynamic-analysis test case, run it in a
scratch kernel and assert it completes, issues only its declared
syscalls, and (when it returns an array-like) returns finite data.
"""

import numpy as np
import pytest

from repro.frameworks.base import DataObject, ExecutionContext, Tracer
from repro.frameworks.registry import FRAMEWORKS
from repro.sim.kernel import SimKernel

ALL_COVERED = [
    (framework_name, api.spec.name)
    for framework_name, framework in FRAMEWORKS.items()
    for api in framework
    if api.spec.has_test_case
]


@pytest.mark.parametrize("framework_name,api_name", ALL_COVERED)
def test_api_executes_and_respects_declared_syscalls(framework_name, api_name):
    framework = FRAMEWORKS[framework_name]
    api = framework.get(api_name)
    spec = api.spec
    kernel = SimKernel()
    process = kernel.spawn(f"exec:{spec.qualname}", charge=False)
    ctx = ExecutionContext(kernel, process, tracer=Tracer())
    args, kwargs = spec.example_args(ctx)
    result = ctx.invoke(api, *args, **kwargs)

    declared = set(spec.syscalls) | set(spec.init_syscalls)
    used = set(process.syscall_counts)
    undeclared = used - declared
    assert not undeclared, (
        f"{spec.qualname} issued undeclared syscalls: {sorted(undeclared)}"
    )

    if isinstance(result, DataObject) and isinstance(result.data, np.ndarray):
        assert np.all(np.isfinite(result.data)), f"{spec.qualname} returned non-finite data"
    if isinstance(result, np.ndarray):
        assert np.all(np.isfinite(result))
