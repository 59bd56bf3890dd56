"""Simulated OS substrate.

This subpackage stands in for the native mechanisms FreePart uses on
Linux: processes, page permissions (``mprotect``), seccomp-BPF syscall
filters, shared-memory IPC, the filesystem, devices (camera/network), and
the GUI subsystem.  See DESIGN.md §2 for the substitution argument.
"""

from repro.sim.clock import CostModel, VirtualClock
from repro.sim.devices import Camera, DeviceBoard, Network
from repro.sim.files import SimFileSystem
from repro.sim.filters import FilterSpec, SyscallFilter, permissive_filter
from repro.sim.gui import GuiSubsystem
from repro.sim.ipc import Channel, ChannelPair, IpcAccounting, Message
from repro.sim.kernel import SimKernel
from repro.sim.memory import AddressSpace, Buffer, MemoryLayout, Permission
from repro.sim.process import ProcessState, SimProcess
from repro.sim.syscalls import SYSCALL_TABLE, Syscall, lookup

__all__ = [
    "AddressSpace",
    "Buffer",
    "Camera",
    "Channel",
    "ChannelPair",
    "CostModel",
    "DeviceBoard",
    "FilterSpec",
    "GuiSubsystem",
    "IpcAccounting",
    "MemoryLayout",
    "Message",
    "Network",
    "Permission",
    "ProcessState",
    "SYSCALL_TABLE",
    "SimFileSystem",
    "SimKernel",
    "SimProcess",
    "Syscall",
    "SyscallFilter",
    "VirtualClock",
    "lookup",
    "permissive_filter",
]
