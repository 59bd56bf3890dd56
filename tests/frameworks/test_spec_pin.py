"""Every built-in API spec, pinned by one digest.

The dump walks all registered APIs in registry order and writes every
:class:`~repro.frameworks.base.APISpec` field, the test case as the
``(args, kwargs)`` it returns in a fresh context, and the
implementation as its signature.  Floats are written with
``float.hex``, so a cost scaled by a different arithmetic shows, and
arrays by dtype, shape and a sha256 of their bytes.  A change that
moves a spec, an API's position or a test case's arguments fails here
and must update the pin and say why.
"""

import dataclasses
import enum
import hashlib
import inspect

import numpy as np

from repro.frameworks.base import APISpec, DataObject, ExecutionContext
from repro.frameworks.registry import iter_apis
from repro.sim.kernel import SimKernel

API_COUNT = 449
PINNED = "3f52e6ee0e4544ba4910e2356f6deec4d867f977487f7681e29f10a6159df8c1"


def canonical(value):
    """One deterministic line for a spec field or an example argument."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray({value.dtype},{value.shape},{data})"
    if isinstance(value, np.generic):
        return f"{type(value).__name__}({canonical(value.item())})"
    if isinstance(value, (tuple, list)):
        items = ",".join(canonical(item) for item in value)
        if isinstance(value, list):
            return f"[{items}]"
        return f"({items},)" if len(value) == 1 else f"({items})"
    if isinstance(value, dict):
        items = ",".join(f"{canonical(k)}:{canonical(v)}"
                         for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, DataObject):
        return f"{type(value).__name__}{canonical(dict(sorted(vars(value).items())))}"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def example_of(spec):
    """The test case's arguments, built in a fresh kernel and process."""
    if spec.example_args is None:
        return "None"
    kernel = SimKernel()
    ctx = ExecutionContext(kernel, kernel.spawn("spec-pin", charge=False))
    return canonical(spec.example_args(ctx))


def dump():
    lines = []
    for api in iter_apis():
        spec = api.spec
        fields = [
            f"{field.name}={example_of(spec)}" if field.name == "example_args"
            else f"{field.name}={canonical(getattr(spec, field.name))}"
            for field in dataclasses.fields(APISpec)
        ]
        fields.append(f"impl={inspect.signature(api.impl)}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def test_every_builtin_spec_matches_its_pin():
    text = dump()
    assert text.count("\n") == API_COUNT
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED
