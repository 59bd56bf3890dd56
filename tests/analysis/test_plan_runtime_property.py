"""The static plan predicts what a FreePart gateway enforces, call for call.

Hypothesis generates host programs as op lists: opencv calls from a
fixed menu (a loader, processors, a neutral API, visualizers and a
storer), each spelt literally, through a local alias, through a helper
that takes the gateway, or inside a one-iteration ``for``; and
``host_alloc`` / ``host_write`` on an annotated tag at random points.
Each program is rendered as source for ``check_source`` and also run op
by op on a real gateway.  The ``frozen-write`` findings must be exactly
the writes that fault, and the plan's steps must match the runtime
state machine and routing at every call.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import SegmentationFault
from repro.frameworks.registry import get_framework
from repro.sim.memory import MemoryLayout
from repro.staticcheck.callgraph import CallGraphBuilder
from repro.staticcheck.checker import check_source
from repro.staticcheck.inference import PartitionInferencer

#: API → argument expressions, each one the program can always build.
MENU: Dict[str, Tuple[str, ...]] = {
    "imread": ("path",),
    "GaussianBlur": ("img",),
    "threshold": ("img",),
    "Canny": ("img",),
    "cvtColor": ("img",),  # type-neutral
    "imshow": ("'win'", "img"),
    "waitKey": ("1",),
    "imwrite": ("out", "img"),
}
#: Calls whose result is an image the following calls take.
IMAGE_RESULTS = frozenset({
    "imread", "GaussianBlur", "threshold", "Canny", "cvtColor",
})
SPELLINGS = ("literal", "alias", "helper", "loop")
ANNOTATIONS = (MemoryLayout(name="s", tag="s", nbytes=64),)
PATH = "/data/in.png"
OUT = "/out/result.png"

HEADER = (
    "from repro.sim.memory import MemoryLayout\n"
    "\n"
    "ANNOTATIONS = (MemoryLayout(name='s', tag='s', nbytes=64),)\n"
)

Op = Tuple[str, ...]


def _alloc_first(ops: List[Op]) -> List[Op]:
    """Drop host writes before the tag's first allocation."""
    allocated = False
    kept = []
    for op in ops:
        if op[0] == "write" and not allocated:
            continue
        allocated = allocated or op[0] == "alloc"
        kept.append(op)
    return kept


programs = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.sampled_from(sorted(MENU)),
                  st.sampled_from(SPELLINGS)),
        st.tuples(st.sampled_from(("alloc", "write"))),
    ),
    min_size=1,
    max_size=12,
).map(_alloc_first)


def render(ops: List[Op]) -> Tuple[str, Dict[int, int]]:
    """The program's source and the line of each host write, by op."""
    helpers: List[str] = []
    body: List[str] = []
    write_rows: Dict[int, int] = {}
    for index, op in enumerate(ops):
        if op[0] == "alloc":
            body.append("gateway.host_alloc('s', [0.0] * 8)")
            continue
        if op[0] == "write":
            write_rows[index] = len(body)
            body.append(f"gateway.host_write('s', [{index}.0] * 8)")
            continue
        _, api, spelling = op
        target = "img = " if api in IMAGE_RESULTS else ""
        args = ", ".join(MENU[api])
        if spelling == "literal":
            body.append(f"{target}gateway.call('opencv', '{api}', {args})")
        elif spelling == "alias":
            body.append(f"api = '{api}'")
            body.append(f"{target}gateway.call('opencv', api, {args})")
        elif spelling == "helper":
            helpers.append(
                f"def op_{index}(gw, path, out, img):\n"
                f"    return gw.call('opencv', '{api}', {args})\n"
            )
            body.append(f"{target}op_{index}(gateway, path, out, img)")
        else:
            body.append("for _ in range(1):")
            body.append(
                f"    {target}gateway.call('opencv', '{api}', {args})"
            )
    body.append("return img")
    head = HEADER + "".join(f"\n\n{helper}" for helper in helpers)
    head += "\n\ndef pipeline(gateway, path, out, img):\n"
    first = head.count("\n") + 1
    source = head + "".join(f"    {line}\n" for line in body)
    return source, {
        index: first + row for index, row in write_rows.items()
    }


def run(ops: List[Op]):
    """Run the ops on a FreePart gateway: per call the states around it
    and the agent it ran in, and the writes that faulted."""
    freepart = FreePart(config=FreePartConfig(annotations=ANNOTATIONS))
    rng = np.random.default_rng(3)
    freepart.kernel.fs.write_file(
        PATH, rng.integers(0, 256, (8, 8, 3)).astype(float)
    )
    gateway = freepart.deploy(used_apis=[
        api for api in get_framework("opencv") if api.spec.name in MENU
    ])
    img = rng.normal(size=(8, 8))
    transitions = []
    faults = set()
    for index, op in enumerate(ops):
        if op[0] == "alloc":
            gateway.host_alloc("s", [0.0] * 8)
        elif op[0] == "write":
            try:
                gateway.host_write("s", [float(index)] * 8)
            except SegmentationFault:
                faults.add(index)  # the host survives; the run goes on
        else:
            api = op[1]
            values = {"path": PATH, "out": OUT, "img": img,
                      "'win'": "win", "1": 1}
            before = gateway.machine.state
            result = gateway.call(
                "opencv", api, *(values[arg] for arg in MENU[api])
            )
            transitions.append((before, gateway.machine.state))
            if api in IMAGE_RESULTS:
                img = result
    agents = [record.api_type.value for record in gateway.stats.calls]
    gateway.shutdown()
    return transitions, agents, faults


@settings(max_examples=60, deadline=None)
@given(programs)
def test_plan_predicts_the_runtime(ops):
    source, write_lines = render(ops)
    findings, _ = check_source("program.py", source)
    flagged = {f.line for f in findings if f.rule == "frozen-write"}
    summary = CallGraphBuilder("program.py", source).build()
    plan = PartitionInferencer(summary).infer()["pipeline"]

    transitions, agents, faults = run(ops)

    assert flagged == {write_lines[index] for index in faults}, source
    assert [
        (step.state_before, step.state_after) for step in plan.steps
    ] == transitions, source
    assert [step.agent for step in plan.steps] == agents, source

