"""Static analysis of framework API source (Section 4.2.2).

Like the paper's PyCG walk over framework source, the walk reads each
API's registered implementation, follows ``ctx`` into the
:class:`~repro.frameworks.base.ExecutionContext` helpers and the module
functions it reaches, and reads each helper's flows and syscalls from
the helper's own body.  Where ``ctx`` goes somewhere it cannot name (a
table entry, another object's method, a parameter) the walk is
*incomplete* and the dynamic tracer decides: the pandas, json,
matplotlib and hub cases of Table 2.  The walk only reads source
(:mod:`linecache`); its results are cached per code object.
"""

from __future__ import annotations

import ast
import linecache
import textwrap
import types
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.apitypes import APIType
from repro.core.dataflow import Flow, Storage, categorize_flows, read, write
from repro.frameworks.base import ExecutionContext, FrameworkAPI

#: A label that is not a literal.  Only ``stage_via_tempfile``'s temp
#: file has one on a file flow: its write and read-back reduce to MEM→MEM.
SYMBOLIC_LABEL = "*"


class StaticResult(NamedTuple):
    """A walk's flows in source order, its syscalls, and completeness."""

    flows: Tuple[Flow, ...] = ()
    syscalls: Tuple[str, ...] = ()
    complete: bool = True

    @property
    def category(self) -> Optional[APIType]:
        """Fig. 9's verdict; a body that moves no data assigns: x = f(y)."""
        if not self.complete:
            return None
        return categorize_flows(self.flows or (write(Storage.MEM, Storage.MEM),))


_INCOMPLETE = StaticResult(complete=False)
_RESULTS: Dict[Tuple[types.CodeType, str], StaticResult] = {}


def summarize(function: object, ctx: str = "") -> StaticResult:
    """Walk ``function``, whose parameter ``ctx`` (default: the first)
    holds the execution context."""
    code = getattr(function, "__code__", None)
    if not isinstance(function, types.FunctionType) or not (ctx or code.co_argcount):
        return _INCOMPLETE
    key = (code, ctx or code.co_varnames[0])
    if key not in _RESULTS:
        _RESULTS[key] = _INCOMPLETE  # a cycle stays incomplete
        body = _function_body(code)
        _RESULTS[key] = (_INCOMPLETE if body is None
                         else _Walker(function, key[1]).walk(body))
    return _RESULTS[key]


def _function_body(code: types.CodeType) -> Optional[List[ast.AST]]:
    """The function's body, parsed from the function's own source lines."""
    last = max((end for _, end, _, _ in code.co_positions() if end), default=0)
    lines = linecache.getlines(code.co_filename)[code.co_firstlineno - 1:last]
    try:
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except SyntaxError:
        return None
    if code.co_name == "<lambda>":  # a line can hold several lambdas
        nodes = [[n.body] for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
    else:
        nodes = [n.body for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name == code.co_name]
    return nodes[0] if len(nodes) == 1 else None


class _Walker(ast.NodeVisitor):
    """Follows ``ctx`` through one function body, in evaluation order."""

    def __init__(self, function: types.FunctionType, ctx: str) -> None:
        code, self.names, self.ctx = function.__code__, function.__globals__, ctx
        self.local_names = code.co_varnames + code.co_cellvars + code.co_freevars
        self.flows: List[Flow] = []
        self.syscalls: Dict[str, None] = {}
        self.complete = True

    def walk(self, body: List[ast.AST]) -> StaticResult:
        for statement in body:
            self.visit(statement)
        return StaticResult(tuple(self.flows), tuple(self.syscalls), self.complete)

    def add(self, result: StaticResult) -> None:
        self.flows += result.flows
        self.syscalls.update(dict.fromkeys(result.syscalls))
        self.complete &= result.complete

    def path(self, node: ast.AST) -> Optional[Tuple[str, ...]]:
        """``("kernel", "fs")`` for ``ctx.kernel.fs``, ``()`` for ``ctx``."""
        names: List[str] = []
        while isinstance(node, ast.Attribute):
            node, names = node.value, [node.attr] + names
        return tuple(names) if getattr(node, "id", None) == self.ctx else None

    def visit_Name(self, node: ast.Name) -> None:
        self.complete &= node.id != self.ctx  # ctx escapes into a value

    def visit_Attribute(self, node: ast.Attribute) -> None:
        path = self.path(node)
        self.complete &= path is None or path[0] in ("kernel", "process", "tracer")
        if path is None:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        path = self.path(node.func)
        handed = [i for i, a in enumerate(node.args) if self.path(a) == ()]
        if path is None:
            self.visit(node.func)
        for i, arg in enumerate(node.args + [k.value for k in node.keywords]):
            if path is not None or i not in handed:
                self.visit(arg)
        if path is not None:
            self.ctx_call(path, node.args[0] if node.args else None)
        elif handed:
            self.add(self.callee(node, handed))

    def ctx_call(self, path: Tuple[str, ...], first: Optional[ast.AST]) -> None:
        if path in (("record_flow",), ("tracer", "record_flow")):
            flow = self.flow(first)
            self.flows += [flow] if flow else []
            self.complete &= flow is not None
        elif path == ("syscall",):
            name = self.literal(first)
            self.syscalls.update({name: None} if name != SYMBOLIC_LABEL else {})
            self.complete &= name != SYMBOLIC_LABEL
        # The simulated machine, and the guard firing a crafted input's
        # exploit, move no data; any other name must be a helper method.
        elif path[0] not in ("kernel", "process") and path != ("guard",):
            helper = len(path) == 1 and getattr(ExecutionContext, path[0], None)
            self.add(summarize(helper, "self"))

    def callee(self, node: ast.Call, handed: List[int]) -> StaticResult:
        """A module-level Python function named directly, or opaque."""
        name = getattr(node.func, "id", None)
        target = self.names.get(name)
        if (len(handed) != 1 or not isinstance(target, types.FunctionType)
                or target.__qualname__ != name or name in self.local_names
                or handed[0] >= target.__code__.co_argcount
                or any(isinstance(a, ast.Starred) for a in node.args)):
            return _INCOMPLETE
        return summarize(target, target.__code__.co_varnames[handed[0]])

    def flow(self, node: Optional[ast.AST]) -> Optional[Flow]:
        """The flow a ``write``/``read``/``Flow`` call expression builds."""
        build = self.names.get(getattr(getattr(node, "func", None), "id", None))
        if build not in (write, read, Flow):
            return None
        try:
            flow = build(*map(self.literal, node.args),
                         **{k.arg: self.literal(k.value) for k in node.keywords})
        except TypeError:  # an unknown keyword, or a storage left out
            return None
        known = {flow.source, flow.dest} <= set(Storage) | {None}
        return Flow(flow.source, flow.dest, flow.label) if known else None

    def literal(self, node: Optional[ast.AST]) -> object:
        """A ``Storage`` member or a string; any other value is symbolic."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Attribute) and self.names.get(
                getattr(node.value, "id", None)) is Storage:
            return Storage.__members__.get(node.attr, SYMBOLIC_LABEL)
        return SYMBOLIC_LABEL


class StaticAnalyzer:
    """Walks an API's implementation and recovers the Fig. 8 flow set."""

    def analyze(self, api: FrameworkAPI) -> StaticResult:
        return summarize(api.impl)
