"""Code-based API isolation (Fig. 2-a, e.g. Privman [44]).

The host application's *code* is manually partitioned into three
processes: P1 runs the initialization code and the input-loading API
(``imread``) — and therefore also holds the ``template`` variable,
unprotected; P2 runs ``imshow``; P3 runs the remaining APIs together
with the rest of the application code.

Because the annotation is manual and code-centric, (a) critical data is
co-located with the vulnerable loader, and (b) isolating ``imshow`` away
from the process that owns the GUI globals breaks the application's
windowing functionality — both failure modes the paper calls out.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.base import Partitioned, TechniqueInfo
from repro.frameworks.base import FrameworkAPI
from repro.sim.memory import Buffer


class CodeApiIsolation(Partitioned):
    """Three code partitions, data left wherever the code put it."""

    info = TechniqueInfo(
        key="code_api", label="Code-based API isolation", figure="2-a"
    )

    #: APIs the (manual) annotation pulled into their own processes.
    P1_APIS = frozenset({"imread", "imreadmulti", "cvLoad"})
    P2_APIS = frozenset({"imshow"})

    #: Host variables the annotator left in P1 next to the loader code.
    P1_DATA_TAGS = frozenset({"template.QBlocks.orig", "template"})

    def _partition_key(self, api: FrameworkAPI) -> Optional[str]:
        if api.spec.name in self.P1_APIS:
            return "p1-init-and-load"
        if api.spec.name in self.P2_APIS:
            self._note_gui_breakage(api)
            return "p2-imshow"
        # The third partition holds the remaining APIs *and* the rest of
        # the application code (Fig. 2-a), so those calls are local.
        return None

    def _note_gui_breakage(self, api: FrameworkAPI) -> None:
        message = (
            f"{api.spec.qualname}: GUI window global lives in another "
            "process; windowing functionality is broken"
        )
        if message not in self.functionality_warnings:
            self.functionality_warnings.append(message)

    def host_alloc(self, tag: str, payload: Any) -> Buffer:
        """Critical init data lands in P1 next to the loading code."""
        if tag in self.P1_DATA_TAGS:
            process = self._worker("p1-init-and-load")
            buffer = process.memory.alloc_object(payload, tag=tag)
            self._host_buffers[tag] = buffer.buffer_id
            self._foreign_buffers = getattr(self, "_foreign_buffers", {})
            self._foreign_buffers[tag] = process
            return buffer
        return super().host_alloc(tag, payload)

    def _buffer_home(self, tag: str):
        foreign = getattr(self, "_foreign_buffers", {})
        return foreign.get(tag, self.host)

    def host_read(self, tag: str) -> Any:
        process = self._buffer_home(tag)
        if process is not self.host:
            # Reading P1-resident data from P3 code costs an IPC round.
            channel = self._channels[process.pid]
            channel.request.send(self.host.pid, "read", tag)
            channel.request.receive()
            value = process.memory.load(self._host_buffer_id(tag))
            channel.response.send(process.pid, "value", value)
            channel.response.receive()
            return value
        return super().host_read(tag)

    def host_write(self, tag: str, payload: Any) -> None:
        process = self._buffer_home(tag)
        if process is not self.host:
            channel = self._channels[process.pid]
            channel.request.send(self.host.pid, "write", payload)
            channel.request.receive()
            process.memory.store(self._host_buffer_id(tag), payload)
            channel.response.send(process.pid, "ack", True)
            channel.response.receive()
            return
        super().host_write(tag, payload)
