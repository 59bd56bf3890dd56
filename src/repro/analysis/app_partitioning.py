"""Application-based partitioning — the road not taken (Appendix A.2.1).

The paper motivates *framework*-based hooking by showing what partitioning
the application's own source requires: when a statement is moved to
another process, enclosing ``try/except`` structures must be **duplicated
into every partition** (or exceptions stop propagating, Fig. 16), and a
partitioned statement inside a loop needs the receiving partition wrapped
in a ``while True`` service loop (or a process is spawned per iteration,
Fig. 17).

This module implements that transformation over real Python source with
``ast``: given a function and an assignment of callee names to
partitions, it produces the partitioned functions with IPC stubs —
reproducing both structural challenges — and reports how much structure
had to be duplicated.  The comparison bench shows why the paper hooks
the framework boundary instead.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import AnalysisError

MAIN_PARTITION = "partition1"


@dataclass
class PartitionedProgram:
    """Result of partitioning one function's source."""

    partitions: Dict[str, str]          # partition name -> generated source
    ipc_sites: int                      # IPC statements inserted
    duplicated_try_blocks: int          # Fig. 16: try/except copied
    service_loops: int                  # Fig. 17: while-True wrappers added
    notes: List[str] = field(default_factory=list)

    def source_of(self, name: str) -> str:
        try:
            return self.partitions[name]
        except KeyError:
            raise AnalysisError(f"no partition named {name!r}") from None


def _call_names(node: ast.AST) -> Set[str]:
    """All simple callee names appearing in a statement."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _ipc_stmt(method: str, *args: str) -> ast.stmt:
    """``IPC.<method>(<args>)`` as an AST statement."""
    return ast.Expr(ast.Call(
        func=ast.Attribute(value=ast.Name(id="IPC", ctx=ast.Load()),
                           attr=method, ctx=ast.Load()),
        args=[ast.Name(id=a, ctx=ast.Load()) if a.isidentifier()
              else ast.Constant(a) for a in args],
        keywords=[],
    ))


@dataclass
class _Collector:
    """Per-foreign-partition material gathered during the walk."""

    statements: List[ast.stmt] = field(default_factory=list)
    needs_loop: bool = False
    try_template: Optional[ast.Try] = None


def partition_source(
    source: str,
    assignments: Dict[str, str],
) -> PartitionedProgram:
    """Partition the first function in ``source``.

    ``assignments`` maps callee names (e.g. ``"show"``) to partition
    names; every statement calling one of them moves to that partition.
    All other statements stay in :data:`MAIN_PARTITION`.
    """
    module = ast.parse(source)
    functions = [n for n in module.body if isinstance(n, ast.FunctionDef)]
    if not functions:
        raise AnalysisError("source contains no function to partition")
    original = functions[0]

    collectors: Dict[str, _Collector] = {}
    ipc_sites = 0
    notes: List[str] = []

    def transform_block(
        body: Sequence[ast.stmt],
        in_loop: bool,
        enclosing_try: Optional[ast.Try],
    ) -> List[ast.stmt]:
        nonlocal ipc_sites
        out: List[ast.stmt] = []
        for stmt in body:
            target = _target_partition(stmt)
            if target is not None:
                collector = collectors.setdefault(target, _Collector())
                signal = f"sig_{target}"
                done = f"sig_{target}_done"
                # main side: hand off, wake the partition, wait for it.
                out.append(_ipc_stmt("enqueue_locals", signal))
                out.append(_ipc_stmt("signal", signal))
                out.append(_ipc_stmt("waitfor", done))
                ipc_sites += 3
                # partition side: serve the request.
                collector.statements.extend([
                    _ipc_stmt("waitfor", signal),
                    _ipc_stmt("dequeue_locals", signal),
                    copy.deepcopy(stmt),
                    _ipc_stmt("signal", done),
                ])
                ipc_sites += 3
                if in_loop:
                    collector.needs_loop = True
                if enclosing_try is not None:
                    collector.try_template = enclosing_try
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                stmt = copy.deepcopy(stmt)
                stmt.body = transform_block(stmt.body, True, enclosing_try)
                out.append(stmt)
                continue
            if isinstance(stmt, ast.Try):
                clone = copy.deepcopy(stmt)
                clone.body = transform_block(stmt.body, in_loop, stmt)
                out.append(clone)
                continue
            if isinstance(stmt, ast.If):
                clone = copy.deepcopy(stmt)
                clone.body = transform_block(stmt.body, in_loop, enclosing_try)
                clone.orelse = transform_block(stmt.orelse, in_loop, enclosing_try)
                out.append(clone)
                continue
            out.append(copy.deepcopy(stmt))
        return out

    def _target_partition(stmt: ast.stmt) -> Optional[str]:
        # Compound statements are recursed into instead of moved whole.
        if isinstance(stmt, (ast.For, ast.While, ast.Try, ast.If,
                             ast.FunctionDef)):
            return None
        for name in _call_names(stmt):
            if name in assignments:
                return assignments[name]
        return None

    main_body = transform_block(original.body, False, None)

    partitions: Dict[str, str] = {}
    main_fn = ast.FunctionDef(
        name=MAIN_PARTITION, args=copy.deepcopy(original.args),
        body=main_body or [ast.Pass()], decorator_list=[], returns=None,
    )
    partitions[MAIN_PARTITION] = ast.unparse(ast.fix_missing_locations(
        ast.Module(body=[main_fn], type_ignores=[])
    ))

    duplicated_try_blocks = 0
    service_loops = 0
    for name, collector in collectors.items():
        body: List[ast.stmt] = list(collector.statements)
        if collector.try_template is not None:
            # Fig. 16: the try/except must exist in this partition too,
            # or runtime exceptions stop matching the original program.
            wrapper = copy.deepcopy(collector.try_template)
            wrapper.body = body
            body = [wrapper]
            duplicated_try_blocks += 1
            notes.append(
                f"{name}: duplicated enclosing try/except (Fig. 16)"
            )
        if collector.needs_loop:
            # Fig. 17: the call site is inside a loop; the partition must
            # stay alive to serve repeated requests.
            body = [ast.While(test=ast.Constant(True), body=body, orelse=[])]
            service_loops += 1
            notes.append(
                f"{name}: wrapped in a while-True service loop (Fig. 17)"
            )
        fn = ast.FunctionDef(
            name=name, args=copy.deepcopy(original.args),
            body=body or [ast.Pass()], decorator_list=[], returns=None,
        )
        partitions[name] = ast.unparse(ast.fix_missing_locations(
            ast.Module(body=[fn], type_ignores=[])
        ))

    return PartitionedProgram(
        partitions=partitions,
        ipc_sites=ipc_sites,
        duplicated_try_blocks=duplicated_try_blocks,
        service_loops=service_loops,
        notes=notes,
    )


#: The readResponse() snippet of Fig. 16-(a), usable as a demo input.
FIG16_SOURCE = '''
def readResponse(img, config):
    try:
        img = resize_util(img, 100)
        morph = img.copy()
        if config.showimglvl >= 4:
            show("morph1", morph, 0, 1)
    except Exception as e:
        print("Error from readResponse: ", e)
'''

#: The saveOrShowStacks() loop of Fig. 17-(a).
FIG17_SOURCE = '''
def readResponse(results):
    for i in range(len(results)):
        saveOrShowStacks(results[i])
        show("stack", results[i], 0, 1)
'''
