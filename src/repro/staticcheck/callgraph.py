"""AST call-graph extraction for host programs, and the one walker.

The builder parses one module at a time and recovers the module-level
facts (constants, in-file specs, annotated tags) and one
:class:`FunctionTrace` per function.  The flow walk then records each
function's partition plan: framework API call sites, host-variable
operations and shared-state stores, in flow order.  Resolution follows
values the way PyCG's assignment graph does (stdlib ``ast`` only),
restricted to the patterns host pipelines actually use:

* gateway values — parameters named like a gateway, results of
  ``FreePart().deploy(...)`` / ``NativeGateway(...)`` /
  ``gateway.for_thread(...)``, aliases through locals and ``self``
  attributes;
* bound-method aliases (``call = gateway.call``);
* string arguments through module-level constants and local aliases
  (``FW = "opencv"; api = "imread"; gateway.call(FW, api, ...)``);
* one level of intra-module interprocedural flow: a module function
  receiving a gateway argument is analyzed with that parameter treated
  as a gateway (the flow pass's fixpoint over the module's call edges),
  and the flow walk evaluates it inline at the call site.

Anything beyond that — dynamically computed API names, gateways stored
in containers, cross-module helpers — is skipped rather than guessed
at, mirroring how the paper's static phase hands indirect-call walks to
the dynamic analysis.

Every function body is walked by one class, :class:`FunctionWalker`,
for the flow pass (:mod:`~repro.staticcheck.dataflow`).  Each
expression evaluates to a pair: a :class:`ValueKind` *shape* and a
:class:`Taint`.  The walker resolves sites, advances the one framework
state machine (:class:`~repro.staticcheck.inference._Machine`), which
records the plan, evaluates module-local calls inline, reports the flow
hits, and collects the gateway edges from which the flow pass grows
each function's gateway parameters.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.core.apitypes import APIType

if TYPE_CHECKING:
    from repro.staticcheck.dataflow import DataflowAnalysis
    from repro.staticcheck.inference import ResolvedCall, _Machine

#: Parameter names treated as gateway values without any dataflow proof.
GATEWAY_PARAM_NAMES = frozenset({"gateway", "gw"})

#: Constructors whose result is a gateway.
GATEWAY_FACTORIES = frozenset({
    "NativeGateway", "FreePartGateway", "ServeGateway",
    "BaselineGateway",
})

#: Methods (on any tracked value) whose result is a gateway.
GATEWAY_PRODUCING_METHODS = frozenset({"deploy", "for_thread"})

#: Parameter names that mark a function as tenant-scoped (serve handler).
TENANT_PARAM_NAMES = frozenset({"tenant", "tenant_id"})

#: Container-mutating methods: argument taints join into the base, and
#: a reference stored into shared state is a shared store.
_CONTAINER_METHODS = frozenset({"append", "add", "insert", "setdefault",
                                "update"})

_HOST_OPS = frozenset({"host_alloc", "host_write", "host_read"})

#: Depth bound of the flow walk's module-local call inlining.
MAX_INLINE_DEPTH = 4


class ValueKind(enum.Enum):
    """Abstract value lattice tracked through assignments (the shape)."""

    GATEWAY = "gateway"
    HANDLE = "handle"              # result of gateway.call(...)
    MATERIALIZED = "materialized"  # result of gateway.materialize(...)
    CALL_METHOD = "call_method"    # bound alias of gateway.call
    MATERIALIZE_METHOD = "materialize_method"
    OTHER = "other"


#: Shapes a shared store records: an object reference or its copy.
_STORED_KINDS = (ValueKind.HANDLE, ValueKind.MATERIALIZED)


# ----------------------------------------------------------------------
# The taint lattice
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Taint:
    """One provenance value of the flow pass's finite join semilattice."""

    agents: FrozenSet[str] = frozenset()
    tenant: bool = False
    materialized: bool = False
    #: The value may carry actual data bytes.  False for pure ObjectRefs
    #: — monotone by construction: joining a ref into a data value can
    #: only *keep* it escape-eligible, never hide it.
    payload: bool = False

    def join(self, other: "Taint") -> "Taint":
        """Least upper bound (set union / boolean or)."""
        if self == other:
            return self
        return Taint(
            agents=self.agents | other.agents,
            tenant=self.tenant or other.tenant,
            materialized=self.materialized or other.materialized,
            payload=self.payload or other.payload,
        )

    @property
    def is_bottom(self) -> bool:
        """True for the untainted value (lattice bottom)."""
        return not (
            self.agents or self.tenant or self.materialized or self.payload
        )


BOTTOM = Taint()

#: What every expression evaluates to: (shape, taint).
Pair = Tuple[ValueKind, Taint]
_PLAIN: Pair = (ValueKind.OTHER, BOTTOM)


def _derive(taints: Iterable[Taint]) -> Taint:
    """Provenance of a value computed *from* the given inputs.

    Derived values keep agent/tenant/materialized provenance and may
    carry data bytes (a deref, a repr, an aggregate) even when an input
    was a pure reference.
    """
    joined = BOTTOM
    for taint in taints:
        joined = joined.join(taint)
    if not joined.is_bottom and not joined.payload:
        joined = replace(joined, payload=True)
    return joined


@dataclass
class WalkStats:
    """Deterministic work counters of the flow pass's last pass."""

    joins: int = 0


# ----------------------------------------------------------------------
# Plan records
# ----------------------------------------------------------------------


@dataclass
class CallEvent:
    """One resolved framework API call site."""

    framework: str
    api: str
    line: int
    col: int
    #: Names of argument variables holding materialized payloads at the
    #: moment of the call (the wrong-partition-deref evidence).
    materialized_args: Tuple[str, ...] = ()
    #: True for declarative ``CallSite(...)`` records: the site exists in
    #: the program but is not part of this function's dynamic trace.
    declared_only: bool = False
    #: ``APIType`` declared on a ``CallSite(...)`` record, if literal.
    declared_type: Optional[APIType] = None


@dataclass
class SharedStoreEvent:
    """A value stored into state that outlives the current function call.

    Targets are module-level names, ``global``-declared names, and
    ``self`` attributes/containers — the places a serve handler could
    park one tenant's ObjectRef where another tenant's request finds it.
    """

    target: str
    value_kind: ValueKind
    line: int
    col: int


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


@dataclass
class LocalSpec:
    """An ``APISpec(...)`` literal declared inside the analyzed module."""

    framework: str
    name: str
    qualname: str
    api_type: Optional[APIType]
    neutral: bool
    syscalls: Tuple[str, ...]
    init_syscalls: Tuple[str, ...]
    line: int


@dataclass
class FunctionTrace:
    """Everything the verifier needs about one function."""

    qualname: str
    line: int
    params: Tuple[str, ...]
    #: Parameters that receive gateway values: those named like a
    #: gateway, and those the flow pass finds a caller passing one to.
    gateway_params: Set[str] = field(default_factory=set)
    tenant_scoped: bool = False
    #: The walked body: the ``def`` node, or the module for ``<module>``.
    node: Optional[ast.AST] = field(default=None, repr=False, compare=False)


@dataclass
class ModuleSummary:
    """The call-graph builder's output for one source file."""

    path: str
    #: Qualname → trace: ``<module>`` first, then every definition.
    functions: Dict[str, FunctionTrace] = field(default_factory=dict)
    #: Annotated host-variable tags (``MemoryLayout(tag=...)`` and
    #: ``annotated_tags=[...]`` literals found anywhere in the module).
    annotated_tags: Set[str] = field(default_factory=set)
    #: ``(framework, api)`` → in-file APISpec literal.
    local_specs: Dict[Tuple[str, str], LocalSpec] = field(default_factory=dict)
    #: Framework names registered in this module (``Framework("x")``).
    local_frameworks: Set[str] = field(default_factory=set)
    #: Frameworks with at least one APISpec whose name the builder could
    #: not resolve to a literal (dead-api checks are unsound for them).
    dynamic_spec_frameworks: Set[str] = field(default_factory=set)
    parse_error: Optional[str] = None
    #: The parsed module (None on parse errors), which the flow pass
    #: walks.
    tree: Optional[ast.Module] = None
    #: Module-level string constants (name -> value).
    constants: Dict[str, str] = field(default_factory=dict)
    #: Module-level assigned names (shared-state bases for escape checks).
    module_level_names: Set[str] = field(default_factory=set)
    #: Bare name → trace of every walked function, in definition order.
    #: A module function takes a name from a method; of two methods, the
    #: first keeps it.
    definitions: Dict[str, FunctionTrace] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Literal resolution helpers
# ----------------------------------------------------------------------


def _constant_str(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """A string literal, directly or through a module-level constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _constant_str_tuple(
    node: ast.AST, constants: Dict[str, str]
) -> Optional[Tuple[str, ...]]:
    """A tuple/list of string literals, or None if any element is opaque."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: List[str] = []
    for element in node.elts:
        value = _constant_str(element, constants)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


def _api_type_literal(node: ast.AST) -> Optional[APIType]:
    """An ``APIType.X`` attribute expression resolved to its member."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "APIType"
    ):
        return getattr(APIType, node.attr, None)
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare callee name of ``Name(...)`` / ``mod.Name(...)`` calls."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_key(node: ast.AST) -> Optional[str]:
    """A dotted key for simple chains (``self.gateway`` → "self.gateway")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _bind_arguments(
    function: ast.AST, call: ast.Call, values: List[Pair]
) -> List[Tuple[str, ast.AST, Pair]]:
    """Where a call's arguments bind in a module-local ``def``.

    Returns ``(parameter, argument, value)`` for every argument that
    fills a named parameter: positional ones in order, keywords by name.
    Anything else (a spill into ``*args``/``**kwargs``, an unknown
    keyword) binds no parameter.
    """
    arguments = function.args
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    keywords = {a.arg for a in arguments.args + arguments.kwonlyargs}
    bindings = list(zip(positional, call.args, values))
    bindings.extend(
        (keyword.arg, keyword.value, value)
        for keyword, value in zip(call.keywords, values[len(call.args):])
        if keyword.arg in keywords
    )
    return bindings


# ----------------------------------------------------------------------
# Module prepass
# ----------------------------------------------------------------------


def _module_prepass(tree: ast.Module, summary: ModuleSummary) -> Dict[str, str]:
    """Collect module-level constants, specs, annotations, frameworks.

    Returns the module's string-constant table (name → value).
    """
    constants: Dict[str, str] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                constants[target.id] = statement.value.value

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name == "APISpec":
            _collect_api_spec(node, constants, summary)
        elif name == "Framework":
            framework_name = None
            if node.args:
                framework_name = _constant_str(node.args[0], constants)
            for keyword in node.keywords:
                if keyword.arg == "name":
                    framework_name = _constant_str(keyword.value, constants)
            if framework_name:
                summary.local_frameworks.add(framework_name)
        elif name == "MemoryLayout":
            for keyword in node.keywords:
                if keyword.arg == "tag":
                    tag = _constant_str(keyword.value, constants)
                    if tag:
                        summary.annotated_tags.add(tag)
            if len(node.args) >= 2:
                tag = _constant_str(node.args[1], constants)
                if tag:
                    summary.annotated_tags.add(tag)
        for keyword in node.keywords:
            if keyword.arg == "annotated_tags":
                tags = _constant_str_tuple(keyword.value, constants)
                if tags:
                    summary.annotated_tags.update(tags)
    return constants


#: Positional field order of APISpec (name, framework, qualname,
#: ground_truth) — see :class:`repro.frameworks.base.APISpec`.
_API_SPEC_POSITIONAL = ("name", "framework", "qualname", "ground_truth")


def _collect_api_spec(
    node: ast.Call, constants: Dict[str, str], summary: ModuleSummary
) -> None:
    """Record one in-file ``APISpec(...)`` literal (or its dynamic-ness)."""
    fields: Dict[str, ast.AST] = {}
    for position, arg in enumerate(node.args[: len(_API_SPEC_POSITIONAL)]):
        fields[_API_SPEC_POSITIONAL[position]] = arg
    for keyword in node.keywords:
        if keyword.arg:
            fields[keyword.arg] = keyword.value

    framework = (
        _constant_str(fields["framework"], constants)
        if "framework" in fields else None
    )
    name = _constant_str(fields["name"], constants) if "name" in fields else None
    if framework and name is None:
        # A spec whose API name is computed (loop variables etc.): the
        # builder cannot enumerate this framework's APIs.
        summary.dynamic_spec_frameworks.add(framework)
        return
    if not framework or not name:
        return

    qualname = None
    if "qualname" in fields:
        qualname = _constant_str(fields["qualname"], constants)
    api_type = (
        _api_type_literal(fields["ground_truth"])
        if "ground_truth" in fields else None
    )
    flag = fields.get("neutral")
    neutral = (
        isinstance(flag, ast.Constant) and isinstance(flag.value, bool)
        and flag.value
    )
    syscalls = (
        _constant_str_tuple(fields.get("syscalls", ast.Tuple(elts=[])),
                            constants) or ()
    )
    init_syscalls = (
        _constant_str_tuple(fields.get("init_syscalls", ast.Tuple(elts=[])),
                            constants) or ()
    )
    summary.local_specs[(framework, name)] = LocalSpec(
        framework=framework,
        name=name,
        qualname=qualname or f"{framework}.{name}",
        api_type=api_type,
        neutral=neutral,
        syscalls=syscalls,
        init_syscalls=init_syscalls,
        line=node.lineno,
    )


def _new_trace(qualname: str, node: ast.AST) -> FunctionTrace:
    """A function's trace, with the gateway parameters its names give."""
    arguments = node.args
    params = tuple(
        argument.arg for argument in (
            arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        )
    )
    return FunctionTrace(
        qualname=qualname,
        line=node.lineno,
        params=params,
        gateway_params={
            param for param in params
            if param in GATEWAY_PARAM_NAMES or param.endswith("_gateway")
        },
        tenant_scoped=any(
            param in TENANT_PARAM_NAMES or param.startswith("tenant")
            for param in params
        ),
        node=node,
    )


def _collect_definitions(tree: ast.Module, summary: ModuleSummary) -> None:
    """Module-level assigned names and one trace per function."""
    definitions = summary.definitions
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    summary.module_level_names.add(target.id)
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                summary.module_level_names.add(statement.target.id)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions[statement.name] = _new_trace(statement.name,
                                                     statement)
        elif isinstance(statement, ast.ClassDef):
            for member in statement.body:
                if (
                    isinstance(member, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                    and member.name not in definitions
                ):
                    # Methods are analyzed but only reachable by name for
                    # module-level functions; a method name clashing with
                    # a function keeps the function.
                    definitions[member.name] = _new_trace(
                        f"{statement.name}.{member.name}", member
                    )
    summary.functions["<module>"] = FunctionTrace(
        qualname="<module>", line=1, params=(), node=tree
    )
    for trace in definitions.values():
        summary.functions[trace.qualname] = trace


# ----------------------------------------------------------------------
# The walker
# ----------------------------------------------------------------------


#: Environment snapshot: (taints, shapes, strings, local names).
_EnvSnap = Tuple[Dict[str, Taint], Dict[str, ValueKind], Dict[str, str],
                 Set[str]]


class FunctionWalker:
    """Flow-ordered walk of one function (or module) body.

    It resolves sites through the analysis's inferencer and places them
    on ``machine``, which records the plan; it reports hits, evaluates
    module-local calls inline and walks each loop body twice.  Each
    module-local call that passes gateway values adds ``(callee trace,
    parameters they bind)`` to :attr:`edges`, inlined or not; the flow
    pass marks those parameters after the walk.
    """

    def __init__(
        self,
        summary: ModuleSummary,
        trace: FunctionTrace,
        analysis: "DataflowAnalysis",
        machine: "_Machine",
        depth: int = 0,
        active: Optional[Set[str]] = None,
        param_taints: Optional[Dict[str, Taint]] = None,
        param_shapes: Optional[Dict[str, ValueKind]] = None,
        param_strings: Optional[Dict[str, str]] = None,
        tenant_ctx: bool = False,
    ) -> None:
        self.summary = summary
        self.trace = trace
        self.analysis = analysis
        self.machine = machine
        self.depth = depth
        self.active = active if active is not None else {trace.qualname}
        self.tenant_ctx = tenant_ctx or trace.tenant_scoped
        self.env: Dict[str, Taint] = dict(param_taints or {})
        self.shapes: Dict[str, ValueKind] = dict.fromkeys(
            trace.gateway_params, ValueKind.GATEWAY
        )
        self.shapes.update(param_shapes or {})
        #: name → string value (local literal bindings; the alias table).
        self.strings: Dict[str, str] = dict(param_strings or {})
        self.local_names: Set[str] = set(trace.params)
        if isinstance(trace.node, ast.Module):
            self.local_names.update(summary.module_level_names)
        self.global_names: Set[str] = set()
        self.returns: Taint = BOTTOM
        self.edges: List[Tuple[FunctionTrace, Set[str]]] = []

    # -- environment plumbing ------------------------------------------

    def _snapshot_env(self) -> _EnvSnap:
        return (dict(self.env), dict(self.shapes), dict(self.strings),
                set(self.local_names))

    def _restore_env(self, snap: _EnvSnap) -> None:
        self.env = dict(snap[0])
        self.shapes = dict(snap[1])
        self.strings = dict(snap[2])
        self.local_names = set(snap[3])

    def _join_env(self, other: _EnvSnap) -> None:
        """Merge with the environment of another path.

        Taints join (a value defined on one path only is kept: this is a
        may-analysis).  A shape survives unless the two paths set
        different ones; a string alias survives only when both agree.
        """
        taints, shapes, strings, locals_ = other
        for name, taint in taints.items():
            self.env[name] = self.env.get(name, BOTTOM).join(taint)
        for key, shape in shapes.items():
            mine = self.shapes.setdefault(key, shape)
            if mine is not shape:
                del self.shapes[key]
        self.strings = {
            key: value for key, value in self.strings.items()
            if strings.get(key) == value
        }
        self.local_names |= locals_
        self.analysis.report.stats.joins += 1

    def _bind(
        self,
        name: str,
        shape: ValueKind,
        taint: Taint,
        string: Optional[str] = None,
    ) -> None:
        self.local_names.add(name)
        self.env[name] = taint
        if shape is ValueKind.OTHER:
            self.shapes.pop(name, None)
        else:
            self.shapes[name] = shape
        if string is None:
            self.strings.pop(name, None)
        else:
            self.strings[name] = string

    def _lookup(self, node: ast.AST) -> Pair:
        """Env lookup for names and attribute chains (evaluates nothing)."""
        key = node.id if isinstance(node, ast.Name) else _attr_key(node)
        if key is None:
            return _PLAIN
        return (self.shapes.get(key, ValueKind.OTHER),
                self.env.get(key, BOTTOM))

    def _string_of(self, node: ast.AST) -> Optional[str]:
        """A string literal, local alias, or module constant."""
        if isinstance(node, ast.Name) and node.id in self.strings:
            return self.strings[node.id]
        return _constant_str(node, self.summary.constants)

    def _is_shared_base(self, base: str) -> bool:
        """Does ``base`` name state that outlives this function call?"""
        if base.startswith("self."):
            return True
        root = base.split(".", 1)[0]
        if root in self.global_names:
            return True
        return (
            root not in self.local_names
            and root in self.summary.module_level_names
        )

    # -- statements ----------------------------------------------------

    def walk(self) -> None:
        """Walk the body statements in source order."""
        for statement in self.trace.node.body:
            self._statement(statement)

    def _statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Expr):
            self._eval(statement.value)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign,
                                    ast.AugAssign)):
            self._assignment(statement)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                taint = self._eval(statement.value)[1]
                self.returns = self.returns.join(taint)
        elif isinstance(statement, ast.If):
            self._eval(statement.test)
            before = self._snapshot_env()
            for child in statement.body:
                self._statement(child)
            after_body = self._snapshot_env()
            self._restore_env(before)
            for child in statement.orelse:
                self._statement(child)
            self._join_env(after_body)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            taint = self._eval(statement.iter)[1]
            self._assign_target(statement.target, (ValueKind.OTHER, taint),
                                None, statement)
            self._loop_body(statement.body)
            for child in statement.orelse:
                self._statement(child)
        elif isinstance(statement, ast.While):
            self._eval(statement.test)
            self._loop_body(statement.body)
            for child in statement.orelse:
                self._statement(child)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                value = self._eval(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(item.optional_vars.id, *value)
            for child in statement.body:
                self._statement(child)
        elif isinstance(statement, ast.Try):
            for child in statement.body:
                self._statement(child)
            for handler in statement.handlers:
                for child in handler.body:
                    self._statement(child)
            for child in statement.orelse:
                self._statement(child)
            for child in statement.finalbody:
                self._statement(child)
        elif isinstance(statement, ast.Global):
            self.global_names.update(statement.names)
        # Nested defs/classes, imports, pass/break/continue: no flow.

    def _loop_body(self, body: List[ast.stmt]) -> None:
        """Walk a loop body twice, so back-edge taints reach the head.

        The machine is restored to its pre-loop snapshot before the
        second walk and records nothing during it: transitions replay
        identically, so per-site agents match the first walk, the plan
        holds each site once, and duplicate hits collapse in the dedup
        set — only genuinely new back-edge flows surface.
        """
        pre_env = self._snapshot_env()
        machine = self.machine
        machine_snap = machine.snapshot()
        for child in body:
            self._statement(child)
        machine.restore(machine_snap)
        plan, machine.plan = machine.plan, None
        for child in body:
            self._statement(child)
        machine.plan = plan
        self._join_env(pre_env)  # the loop may run zero times

    # -- assignments ---------------------------------------------------

    def _assignment(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.AugAssign):
            value = self._eval(statement.value)
            self._assign_target(statement.target, value, None, statement,
                                augmented=True)
            return
        if statement.value is None:  # a bare annotation
            return
        value = self._eval(statement.value)
        string = self._string_of(statement.value)
        targets = (
            statement.targets if isinstance(statement, ast.Assign)
            else (statement.target,)
        )
        for target in targets:
            self._assign_target(target, value, string, statement)

    def _assign_target(
        self,
        target: ast.AST,
        value: Pair,
        string: Optional[str],
        where: ast.AST,
        augmented: bool = False,
    ) -> None:
        shape, taint = value
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.global_names or (
                augmented
                and name not in self.local_names
                and name in self.summary.module_level_names
            ):
                self._shared_store(name, shape, taint, where)
            if augmented:
                taint = self.env.get(name, BOTTOM).join(taint)
                shape = ValueKind.OTHER
            self._bind(name, shape, taint, string)
        elif isinstance(target, ast.Attribute):
            key = _attr_key(target)
            if key is not None:
                self.env[key] = taint
                if shape is ValueKind.OTHER:
                    self.shapes.pop(key, None)
                else:
                    self.shapes[key] = shape
                if key.startswith("self."):
                    self._shared_store(key, shape, taint, where)
        elif isinstance(target, ast.Subscript):
            self._eval(target.slice)
            base = _attr_key(target.value)
            if base is not None:
                # Container write: element taint joins into the base.
                self.env[base] = self.env.get(base, BOTTOM).join(taint)
                if self._is_shared_base(base):
                    self._shared_store(f"{base}[...]", shape, taint, where)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, (ValueKind.OTHER, taint), None,
                                    where)

    def _shared_store(
        self,
        target: str,
        shape: Optional[ValueKind],
        taint: Taint,
        where: ast.AST,
    ) -> None:
        """A value parked in state that outlives the call.

        The plan records the shape (None: nothing worth recording); the
        flow pass reports tenant-derived payload data as an escape.
        """
        if shape is not None:
            self.machine.store(SharedStoreEvent(
                target=target,
                value_kind=shape,
                line=where.lineno,
                col=where.col_offset,
            ))
        if taint.tenant and taint.payload:
            self.analysis.add_escape(
                where, target, "shared", self.trace.qualname
            )

    # -- expressions ---------------------------------------------------

    def _eval(self, node: ast.AST) -> Pair:
        """Evaluate an expression, acting on the calls inside it."""
        if isinstance(node, ast.Constant):
            return _PLAIN
        if isinstance(node, ast.Name):
            return (self.shapes.get(node.id, ValueKind.OTHER),
                    self.env.get(node.id, BOTTOM))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            key = _attr_key(node)
            if key is None:
                # The attribute of a computed value derives from it.
                return (ValueKind.OTHER, _derive([self._eval(node.value)[1]]))
            receiver_shape, receiver_taint = self._lookup(node.value)
            if receiver_shape is ValueKind.GATEWAY:
                # Bound-method aliases: ``call = gateway.call``.
                if node.attr == "call":
                    return (ValueKind.CALL_METHOD, BOTTOM)
                if node.attr == "materialize":
                    return (ValueKind.MATERIALIZE_METHOD, BOTTOM)
            if key in self.env or key in self.shapes:
                return (self.shapes.get(key, ValueKind.OTHER),
                        self.env.get(key, BOTTOM))
            # x.attr of a tainted x keeps x's provenance.
            return (ValueKind.OTHER, _derive([receiver_taint]))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            joined = BOTTOM
            for element in node.elts:
                joined = joined.join(self._eval(element)[1])
            return (ValueKind.OTHER, joined)
        if isinstance(node, ast.Dict):
            joined = BOTTOM
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            for value in node.values:
                joined = joined.join(self._eval(value)[1])
            return (ValueKind.OTHER, joined)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)[1]
            right = self._eval(node.right)[1]
            return (ValueKind.OTHER, _derive([left, right]))
        if isinstance(node, ast.BoolOp):
            joined = BOTTOM
            for value in node.values:
                joined = joined.join(self._eval(value)[1])
            return (ValueKind.OTHER, joined)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return _PLAIN  # a boolean verdict, not the data
        if isinstance(node, ast.UnaryOp):
            return (ValueKind.OTHER, self._eval(node.operand)[1])
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            first_shape, first = self._eval(node.body)
            second_shape, second = self._eval(node.orelse)
            if first_shape is not second_shape:
                first_shape = ValueKind.OTHER
            return (first_shape, first.join(second))
        if isinstance(node, ast.JoinedStr):
            joined = BOTTOM
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    joined = joined.join(self._eval(value.value)[1])
            return (ValueKind.OTHER, _derive([joined]))
        if isinstance(node, (ast.Starred, ast.Await)):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)[1]
            self._eval(node.slice)
            # An element keeps its container's taint.
            return (ValueKind.OTHER, base)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            self._bind(node.target.id, *value, self._string_of(node.value))
            return value
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for generator in node.generators:
                taint = self._eval(generator.iter)[1]
                self._assign_target(generator.target,
                                    (ValueKind.OTHER, taint), None, node)
                for condition in generator.ifs:
                    self._eval(condition)
            if isinstance(node, ast.DictComp):
                self._eval(node.key)
                return (ValueKind.OTHER, self._eval(node.value)[1])
            return (ValueKind.OTHER, self._eval(node.elt)[1])
        return _PLAIN

    # -- calls ---------------------------------------------------------

    def _eval_args(self, node: ast.Call) -> List[Pair]:
        values = [self._eval(arg) for arg in node.args]
        values.extend(self._eval(keyword.value) for keyword in node.keywords)
        return values

    def _eval_call(self, node: ast.Call) -> Pair:
        func = node.func

        # Method calls: gateway.call / materialize / host_* / for_thread /
        # deploy, container mutation, and anything else.
        if isinstance(func, ast.Attribute):
            method = func.attr
            if self._lookup(func.value)[0] is ValueKind.GATEWAY:
                if method == "call":
                    return self._gateway_call(node)
                if method == "materialize":
                    return self._materialize_call(node)
                if method in _HOST_OPS:
                    return self._host_op(node, method[len("host_"):])
            if method in GATEWAY_PRODUCING_METHODS:
                self._eval_args(node)
                return (ValueKind.GATEWAY, BOTTOM)
            if method in _CONTAINER_METHODS:
                return self._container_call(node, func.value, method)
            # Unknown method: the result derives from receiver + args.
            taints = [self._eval(func.value)[1]]
            taints.extend(taint for _, taint in self._eval_args(node))
            return (ValueKind.OTHER, _derive(taints))

        # Bare-name calls.
        if isinstance(func, ast.Name):
            callee = func.id
            shape = self.shapes.get(callee)
            if shape is ValueKind.CALL_METHOD:
                return self._gateway_call(node)
            if shape is ValueKind.MATERIALIZE_METHOD:
                return self._materialize_call(node)
            if callee in GATEWAY_FACTORIES:
                self._eval_args(node)
                return (ValueKind.GATEWAY, BOTTOM)
            if callee == "CallSite":
                return self._declared_site(node)
            if callee in self.summary.definitions:
                return self._local_call(node, callee)
        else:
            # Computed callee (subscript, lambda result, ...).
            self._eval(func)
        return (ValueKind.OTHER,
                _derive(taint for _, taint in self._eval_args(node)))

    def _container_call(
        self, node: ast.Call, receiver: ast.AST, method: str
    ) -> Pair:
        """``base.append(x)`` and kin: x's taint joins into the base."""
        values = self._eval_args(node)
        joined = BOTTOM
        for _, taint in values:
            joined = joined.join(taint)
        base = _attr_key(receiver)
        if base is not None:
            self.env[base] = self.env.get(base, BOTTOM).join(joined)
            if self._is_shared_base(base):
                stored = next(
                    (shape for shape, _ in values if shape in _STORED_KINDS),
                    None,
                )
                self._shared_store(f"{base}.{method}()", stored, joined, node)
        return _PLAIN

    def _gateway_call(self, node: ast.Call) -> Pair:
        """A ``gateway.call(framework, api, *args)`` site."""
        args = node.args
        payload = [
            (arg.id if isinstance(arg, ast.Name) else "<expression>",
             self._eval(arg))
            for arg in args[2:]
        ]
        payload.extend(
            (keyword.arg or "<expression>", self._eval(keyword.value))
            for keyword in node.keywords
        )
        framework = self._string_of(args[0]) if args else None
        api = self._string_of(args[1]) if len(args) > 1 else None
        step = None
        if framework is not None and api is not None:
            step = self._place(CallEvent(
                framework=framework,
                api=api,
                line=node.lineno,
                col=node.col_offset,
                materialized_args=tuple(
                    name for name, (shape, _) in payload
                    if shape is ValueKind.MATERIALIZED
                ),
            ))
        if step is None:
            return (ValueKind.HANDLE, Taint(tenant=self.tenant_ctx))

        agent = step.agent
        for name, (_, taint) in payload:
            foreign = taint.agents - {agent}
            if taint.materialized and foreign:
                self.analysis.add_leak(
                    node, name, tuple(sorted(foreign)), agent,
                    step.verdict.qualname, self.trace.qualname,
                )
        # The result is an ObjectRef: provenance without payload bytes.
        return (
            ValueKind.HANDLE,
            Taint(agents=frozenset({agent}), tenant=self.tenant_ctx),
        )

    def _materialize_call(self, node: ast.Call) -> Pair:
        """``gateway.materialize(ref)``: a host-side copy of agent data."""
        source = BOTTOM
        for _, taint in self._eval_args(node):
            source = source.join(taint)
        return (
            ValueKind.MATERIALIZED,
            Taint(
                agents=source.agents,
                tenant=source.tenant or self.tenant_ctx,
                materialized=True,
                payload=True,
            ),
        )

    def _place(self, event: CallEvent) -> Optional["ResolvedCall"]:
        """Resolve a site and take its transition on the machine."""
        return self.machine.place(
            event, self.analysis.inferencer.resolve_event(event)
        )

    def _host_op(self, node: ast.Call, op: str) -> Pair:
        """``gateway.host_alloc/write/read(tag, ...)``."""
        values = self._eval_args(node)
        first = node.args[0] if node.args else None
        # A tag named by a literal or module constant is the plan's
        # frozen-write evidence; one reached through a local alias is
        # the flow pass's frozen-alias-write.
        literal_tag = (
            _constant_str(first, self.summary.constants)
            if first is not None else None
        )
        tag = literal_tag
        if tag is None and first is not None:
            tag = self._string_of(first)
        if op in ("alloc", "write"):
            # Host buffers outlive the request and are host-visible:
            # tenant-derived payloads escaping into one is a sink.
            for _, taint in values[1 if first is not None else 0:]:
                if taint.tenant and taint.payload:
                    self.analysis.add_escape(
                        node, f"host buffer '{tag or '<dynamic>'}'", "host",
                        self.trace.qualname,
                    )

        if tag is None:
            return _PLAIN
        if op == "alloc":
            self.machine.alloc(tag)
        elif op == "write":
            hit = self.machine.write(
                tag, node.lineno, node.col_offset, literal_tag is not None
            )
            if hit is not None and literal_tag is None:
                self.analysis.add_alias_write(
                    node,
                    first.id if isinstance(first, ast.Name)
                    else "<expression>",
                    tag,
                    hit.alloc_state,
                    hit.write_state,
                    self.trace.qualname,
                )
        return _PLAIN

    def _declared_site(self, node: ast.Call) -> Pair:
        """A ``CallSite(framework, api, ...)`` data record: a typed site
        the program dispatches elsewhere, placed where it is written."""
        fields: Dict[str, ast.AST] = {}
        positional = ("framework", "api", "argspec", "api_type")
        for position, arg in enumerate(node.args[: len(positional)]):
            fields[positional[position]] = arg
        for keyword in node.keywords:
            if keyword.arg:
                fields[keyword.arg] = keyword.value
        framework = (
            self._string_of(fields["framework"])
            if "framework" in fields else None
        )
        api = self._string_of(fields["api"]) if "api" in fields else None
        if framework is not None and api is not None:
            self._place(CallEvent(
                framework=framework,
                api=api,
                line=node.lineno,
                col=node.col_offset,
                declared_only=True,
                declared_type=(
                    _api_type_literal(fields["api_type"])
                    if "api_type" in fields else None
                ),
            ))
        self._eval_args(node)
        return _PLAIN

    def _local_call(self, node: ast.Call, callee: str) -> Pair:
        """A call to another function defined in this module.

        Only calls that carry flow (a gateway or a tainted argument) are
        followed.  The parameters their gateway arguments bind are an
        edge, and the call is evaluated inline on the caller's machine,
        depth-bounded and recursion-guarded.
        """
        values = self._eval_args(node)
        joined = _derive(taint for _, taint in values)
        if joined.is_bottom and all(
            shape is not ValueKind.GATEWAY for shape, _ in values
        ):
            return (ValueKind.OTHER, joined)
        trace = self.summary.definitions[callee]
        bindings = _bind_arguments(trace.node, node, values)
        gateways = {
            name for name, _, (shape, _) in bindings
            if shape is ValueKind.GATEWAY
        }
        if gateways:
            self.edges.append((trace, gateways))
        if trace.qualname in self.active or self.depth >= MAX_INLINE_DEPTH:
            return (ValueKind.OTHER, joined)

        param_taints: Dict[str, Taint] = {}
        param_shapes: Dict[str, ValueKind] = {}
        param_strings: Dict[str, str] = {}
        for name, argument, (shape, taint) in bindings:
            param_taints[name] = taint
            if shape is not ValueKind.OTHER:
                param_shapes[name] = shape
            string = self._string_of(argument)
            if string is not None:
                param_strings[name] = string

        self.active.add(trace.qualname)
        walker = FunctionWalker(
            self.summary,
            trace,
            self.analysis,
            self.machine,
            depth=self.depth + 1,
            active=self.active,
            param_taints=param_taints,
            param_shapes=param_shapes,
            param_strings=param_strings,
            tenant_ctx=self.tenant_ctx,
        )
        walker.walk()
        self.active.discard(trace.qualname)
        return (ValueKind.OTHER, joined.join(walker.returns))


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


class CallGraphBuilder:
    """Build a :class:`ModuleSummary` for one Python source file."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.summary = ModuleSummary(path=path)

    @classmethod
    def from_file(cls, path: str) -> "CallGraphBuilder":
        """Construct a builder by reading ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls(path, handle.read())

    def build(self) -> ModuleSummary:
        """Parse, run the module prepass and make one trace per function.

        No body is walked here: the flow pass
        (:mod:`~repro.staticcheck.dataflow`) grows each trace's gateway
        parameters as it walks.
        """
        summary = self.summary
        try:
            tree = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            summary.parse_error = f"{exc.msg} (line {exc.lineno})"
            return summary
        summary.tree = tree
        summary.constants = _module_prepass(tree, summary)
        _collect_definitions(tree, summary)
        return summary


def build_module(path: str) -> ModuleSummary:
    """Convenience: build the call-graph summary of one file."""
    return CallGraphBuilder.from_file(path).build()
