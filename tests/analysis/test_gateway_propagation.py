"""The flow pass's gateway parameters against plain reachability.

Hypothesis generates modules whose ``pipeline(gateway)`` hands the
gateway to helpers, which hand it on down chains of at most four hops.
Helpers take positional-only, positional-or-keyword and keyword-only
parameters, are defined before or after their callers, call each other
plainly or inside an ``if`` or a ``for``, and make one ``.call(...)``
site on every parameter, as ``pipeline`` does on its own.  The oracle
binds each generated call with Python's own
:meth:`inspect.Signature.bind` and follows the bound gateway arguments
from ``pipeline``'s ``gateway``.

After :meth:`DataflowAnalysis.run`, every function's gateway parameters
must be the oracle's, and its own plan must hold exactly its sites on
those parameters.  Two chains longer than the generated ones pin the
fixpoint's pass order, with plans recorded before the flow pass took
the fixpoint over from the call-graph builder.
"""

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.staticcheck.callgraph import CallGraphBuilder, FunctionWalker
from repro.staticcheck.dataflow import MAX_PASSES, DataflowAnalysis
from repro.staticcheck.inference import PartitionInferencer

HEADER = "PATH = '/data/in.png'\nFLAG = True\n"
KINDS = ("posonly", "normal", "kwonly")
NAMES = ("a", "b", "c")
WRAPPERS = ("plain", "if", "for")
MAX_HOPS = 4


@dataclass
class Call:
    """One call of a helper: argument tokens are caller parameters or
    ``"None"``."""

    callee: str
    positional: Tuple[str, ...]
    keywords: Dict[str, str]
    wrapper: str


@dataclass
class Function:
    name: str
    level: int
    params: Tuple[Tuple[str, str], ...]  # (name, kind), in signature order
    calls: List[Call] = field(default_factory=list)


@st.composite
def modules(draw) -> List[Function]:
    """A pipeline and 1-6 helpers, in the order they are defined."""
    helpers = []
    for index in range(draw(st.integers(1, 6))):
        kinds = sorted(
            draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)),
            key=KINDS.index,
        )
        helpers.append(Function(
            name=f"h{index}",
            level=draw(st.integers(1, MAX_HOPS)),
            params=tuple(zip(NAMES, kinds)),
        ))
    pipeline = Function("pipeline", 0, (("gateway", "normal"),))
    functions = [pipeline] + helpers
    for caller in functions:
        callees = [h for h in helpers if h.level > caller.level]
        if not callees:
            continue
        # The pipeline always passes its gateway on; helpers mix theirs
        # with None.
        tokens = [name for name, _ in caller.params]
        if caller is not pipeline:
            tokens.append("None")
        for _ in range(draw(st.integers(caller is pipeline, 3))):
            callee = draw(st.sampled_from(callees))
            ordered = [n for n, kind in callee.params if kind != "kwonly"]
            count = draw(st.integers(0, len(ordered)))
            named = [
                name for name, kind in callee.params
                if kind != "posonly" and name not in ordered[:count]
            ]
            keywords = draw(st.lists(st.sampled_from(named), unique=True)
                            if named else st.just([]))
            caller.calls.append(Call(
                callee=callee.name,
                positional=tuple(draw(st.sampled_from(tokens))
                                 for _ in range(count)),
                keywords={name: draw(st.sampled_from(tokens))
                          for name in keywords},
                wrapper=draw(st.sampled_from(WRAPPERS)),
            ))
    order = draw(st.sampled_from(("callers-first", "callees-first",
                                  "shuffled")))
    if order == "shuffled":
        return draw(st.permutations(functions))
    functions.sort(key=lambda function: function.level,
                   reverse=order == "callees-first")
    return functions


def signature(function: Function) -> str:
    if function.name == "pipeline":
        return "gateway"
    groups = {
        kind: [f"{name}=None" for name, k in function.params if k == kind]
        for kind in KINDS
    }
    parts = groups["posonly"] + (["/"] if groups["posonly"] else [])
    parts += groups["normal"] + (["*"] if groups["kwonly"] else [])
    return ", ".join(parts + groups["kwonly"])


def render(
    functions: List[Function],
) -> Tuple[str, Dict[Tuple[str, str], int]]:
    """The module's source and the line of each function's site, by
    ``(function, parameter)``."""
    lines = HEADER.splitlines()
    sites = {}
    for function in functions:
        lines += ["", "", f"def {function.name}({signature(function)}):"]
        for name, _ in function.params:
            lines.append(f"    {name}.call('opencv', 'imread', PATH)")
            sites[(function.name, name)] = len(lines)
        for call in function.calls:
            arguments = list(call.positional) + [
                f"{name}={token}" for name, token in call.keywords.items()
            ]
            text = f"{call.callee}({', '.join(arguments)})"
            if call.wrapper == "if":
                lines += ["    if FLAG:", f"        {text}"]
            elif call.wrapper == "for":
                lines += ["    for _ in range(2):", f"        {text}"]
            else:
                lines.append(f"    {text}")
    return "\n".join(lines) + "\n", sites


def reachable(functions: List[Function], source: str) -> Set[Tuple[str, str]]:
    """``(function, parameter)`` pairs a gateway reaches from
    ``pipeline``, each call bound by Python's own signature binding."""
    namespace: Dict[str, object] = {}
    exec(compile(source, "module.py", "exec"), namespace)
    edges: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    for caller in functions:
        for call in caller.calls:
            bound = inspect.signature(namespace[call.callee]).bind(
                *call.positional, **call.keywords
            )
            for param, token in bound.arguments.items():
                if token != "None":
                    edges.setdefault((caller.name, token), set()).add(
                        (call.callee, param)
                    )
    reached = {("pipeline", "gateway")}
    frontier = list(reached)
    while frontier:
        for target in edges.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def analyze(source: str):
    summary = CallGraphBuilder("module.py", source).build()
    report = DataflowAnalysis(summary, PartitionInferencer(summary)).run()
    return summary, report


@settings(max_examples=60, deadline=None)
@given(modules())
def test_gateway_params_match_reachability(functions):
    source, sites = render(functions)
    reached = reachable(functions, source)
    summary, report = analyze(source)

    for function in functions:
        expected = {p for f, p in reached if f == function.name}
        trace = summary.definitions[function.name]
        assert trace.gateway_params == expected, source
        own_sites = {sites[(function.name, p)] for p, _ in function.params}
        plan = report.plans[function.name]
        steps = {step.event.line for step in plan.steps}
        assert steps & own_sites == {
            sites[(function.name, p)] for p in expected
        }, source


# ----------------------------------------------------------------------
# Pinned chains
# ----------------------------------------------------------------------


def chain_source(hops: int, callees_first: bool) -> str:
    """``pipeline -> h1 -> ... -> h<hops>``, passing the gateway by
    keyword and by position in turn; each helper makes one site."""
    defs = ["def pipeline(gateway):\n    h1(gateway)\n"]
    for hop in range(1, hops + 1):
        body = "    x.call('opencv', 'imread', PATH)\n"
        if hop < hops:
            callee = f"h{hop + 1}"
            body += f"    {callee}(x=x)\n" if hop % 2 else f"    {callee}(x)\n"
        defs.append(f"def h{hop}(x):\n{body}")
    if callees_first:
        defs.reverse()
    return "PATH = '/data/in.png'\n\n\n" + "\n\n".join(defs)


#: Step lines per function, recorded when the builder still ran its own
#: gateway fixpoint before the flow pass.  Inlining stops at depth 4, so
#: a caller's plan holds at most four hops below it.
PINNED = {
    # Callers first: one pass marks the whole chain, a second marks
    # nothing.
    (6, False): (2, {
        "pipeline": [9, 14, 19, 24],
        "h1": [9, 14, 19, 24, 29],
        "h2": [14, 19, 24, 29, 34],
        "h3": [19, 24, 29, 34],
        "h4": [24, 29, 34],
        "h5": [29, 34],
        "h6": [34],
    }),
    # Callees first: each pass marks one hop more, and the fifth pass
    # still marks h5 (after its walk), so h5-h7 keep empty plans.
    (7, True): (MAX_PASSES, {
        "h7": [],
        "h6": [],
        "h5": [],
        "h4": [19, 14, 9, 5],
        "h3": [24, 19, 14, 9, 5],
        "h2": [29, 24, 19, 14, 9],
        "h1": [34, 29, 24, 19, 14],
        "pipeline": [34, 29, 24, 19],
    }),
}


@pytest.mark.parametrize("hops,callees_first", sorted(PINNED))
def test_pinned_chain_plans(hops, callees_first, monkeypatch):
    passes, expected = PINNED[(hops, callees_first)]
    walks = []
    walk = FunctionWalker.walk

    def counting_walk(walker):
        if walker.depth == 0:
            walks.append(walker.trace.qualname)
        walk(walker)

    monkeypatch.setattr(FunctionWalker, "walk", counting_walk)
    summary, report = analyze(chain_source(hops, callees_first))

    assert {
        qualname: [step.event.line for step in plan.steps]
        for qualname, plan in report.plans.items()
        if qualname != "<module>"
    } == expected
    assert report.plans["<module>"].steps == []
    assert len(walks) == passes * len(summary.functions)
