"""Simulated per-process virtual memory with page-level permissions.

This module stands in for the MMU + ``mprotect`` mechanism the paper uses
to enforce temporal read-only permissions on data objects (Fig. 3).  Each
:class:`AddressSpace` belongs to exactly one simulated process; a write
from one process can never reach another process's buffers because the
spaces are disjoint Python objects — the same guarantee real page tables
give.

Data objects (images, tensors, model weights) live in :class:`Buffer`
records: a page-aligned range plus an arbitrary Python payload.  Exploit
code operates on raw addresses (``raw_write``), while well-behaved
framework APIs operate on payloads (``load``/``store``); both paths go
through the same permission check.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import SegmentationFault
from repro.sim.clock import VirtualClock

PAGE_SIZE = 4096
_HEAP_BASE = 0x0001_0000
_GUARD_PAGES = 1


class Permission(enum.IntFlag):
    """POSIX-style page protection bits."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4

    @classmethod
    def rw(cls) -> "Permission":
        return cls.READ | cls.WRITE

    @classmethod
    def ro(cls) -> "Permission":
        return cls.READ


#: The protection bits as plain ints.  The page table stores and tests
#: ints, because ``IntFlag`` arithmetic costs ~30x an int operation.
_WRITE = int(Permission.WRITE)
_RW = int(Permission.rw())


def page_of(address: int) -> int:
    """Return the page index containing ``address``."""
    return address // PAGE_SIZE


def pages_spanned(address: int, size: int) -> range:
    """Return the range of page indices covered by ``[address, address+size)``."""
    first = address // PAGE_SIZE
    if size <= 0:
        return range(first, first)
    return range(first, (address + size - 1) // PAGE_SIZE + 1)


@dataclass
class SharedSegment:
    """Pages shared between address spaces by a zero-copy transfer.

    Instead of serializing a large payload through a channel, the kernel
    can remap the owning process's pages into the destination — the
    Polytope-style "move mappings, not bytes" crossing.  Every mapping
    of the segment references the same payload; a write through any
    mapping first triggers a copy-on-write downgrade (see
    :meth:`AddressSpace.store`), so the sharing is never observable.
    """

    segment_id: int
    nbytes: int
    payload: Any = None
    #: How many buffers currently map this segment.
    mappings: int = 0

    @property
    def npages(self) -> int:
        return (max(self.nbytes, 1) + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class Buffer:
    """A contiguous allocation holding one data object.

    ``payload`` is the live Python object (numpy array, bytes, model
    weights, ...).  ``nbytes`` is the simulated size used for cost and
    permission accounting; it tracks the payload where possible.

    ``origin_state`` records the framework state during which the buffer
    was defined — FreePart's temporal permission enforcement flips every
    buffer of the *previous* state to read-only on a state transition.

    ``segment`` marks a zero-copy mapping: the buffer's pages belong to
    a :class:`SharedSegment` and the first write must pay the
    copy-on-write downgrade before it lands.

    ``released`` marks a buffer whose object its owner let go of: the
    payload is gone.  ``freed`` marks one whose pages are unmapped too.
    """

    buffer_id: int
    pid: int
    address: int
    nbytes: int
    tag: str = ""
    payload: Any = None
    origin_state: str = "initialization"
    freed: bool = False
    segment: Optional[SharedSegment] = None
    released: bool = False

    @property
    def end(self) -> int:
        return self.address + self.nbytes

    def contains(self, address: int) -> bool:
        """Does the address fall inside this buffer?"""
        return self.address <= address < self.end


def payload_nbytes(payload: Any) -> int:
    """Best-effort simulated size of an arbitrary payload object."""
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    return 64


def _retire(buffer: Buffer) -> None:
    """Mark a buffer released: drop its payload and its mapping of a
    shared segment."""
    if buffer.segment is not None:
        buffer.segment.mappings -= 1
        buffer.segment = None
    buffer.released = True
    buffer.payload = None


class PageTable:
    """Page protections kept as *runs*: page ranges sharing one permission.

    A run is ``[start, stop)`` with one set of protection bits, stored as
    a plain int.  Runs are sorted, disjoint and non-empty, and a page in
    no run is unmapped.  A page mapped with no bits is still mapped:
    :meth:`first_unmapped` tells the two apart, while :meth:`get` and
    :meth:`first_lacking` read both as granting nothing.  Each operation
    bisects to the first run it touches, so it costs the runs a range
    spans rather than its pages.  Guard pages keep two buffers' runs
    apart, so a buffer's range is usually exactly one run.
    """

    __slots__ = ("_starts", "_stops", "_bits")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._stops: List[int] = []
        self._bits: List[int] = []

    def runs(self) -> List[Tuple[int, int, int]]:
        """Every run as ``(start, stop, bits)``, in page order."""
        return list(zip(self._starts, self._stops, self._bits))

    def get(self, page: int) -> int:
        """The bits one page grants (0 when it is unmapped)."""
        i = bisect_right(self._starts, page) - 1
        if i >= 0 and page < self._stops[i]:
            return self._bits[i]
        return 0

    def first_lacking(
        self, pages: range, needed: int
    ) -> Optional[Tuple[int, int]]:
        """The first page in ``pages`` missing a bit of ``needed``, with
        the bits it grants; None when every page grants them all.  An
        unmapped page grants nothing."""
        if not needed:
            return None
        page, stop = pages.start, pages.stop
        starts, stops, bits = self._starts, self._stops, self._bits
        count = len(starts)
        i = bisect_right(starts, page) - 1
        while page < stop:
            # Past the first run, the next one must start right here.
            if i < 0 or i >= count or starts[i] > page or stops[i] <= page:
                return page, 0
            granted = bits[i]
            if needed & ~granted:
                return page, granted
            page = stops[i]
            i += 1
        return None

    def first_unmapped(self, pages: range) -> Optional[int]:
        """The first page in ``pages`` outside every run; None if none."""
        page, stop = pages.start, pages.stop
        starts, stops = self._starts, self._stops
        count = len(starts)
        i = bisect_right(starts, page) - 1
        while page < stop:
            if i < 0 or i >= count or starts[i] > page or stops[i] <= page:
                return page
            page = stops[i]
            i += 1
        return None

    def set(self, pages: range, bits: int) -> None:
        """Map ``pages`` with ``bits``, replacing what covered them."""
        start, stop = pages.start, pages.stop
        if start >= stop:
            return
        starts, stops = self._starts, self._stops
        if not stops or start >= stops[-1]:  # the heap top: every alloc
            starts.append(start)
            stops.append(stop)
            self._bits.append(bits)
            return
        i = bisect_right(starts, start) - 1
        if i >= 0 and starts[i] == start and stops[i] == stop:
            self._bits[i] = bits  # exactly one run: every protect_buffer
            return
        self._carve(start, stop, [(start, stop, bits)])

    def clear(self, pages: range) -> None:
        """Unmap ``pages``."""
        start, stop = pages.start, pages.stop
        if start >= stop:
            return
        starts = self._starts
        i = bisect_left(starts, start)
        if i < len(starts) and starts[i] == start and self._stops[i] == stop:
            # Exactly one run: every free of an unsplit buffer.
            del starts[i], self._stops[i], self._bits[i]
            return
        self._carve(start, stop, [])

    def _carve(self, start: int, stop: int,
               middle: List[Tuple[int, int, int]]) -> None:
        """Replace the runs overlapping ``[start, stop)`` with ``middle``,
        keeping the parts of the end runs that lie outside the range."""
        starts, stops, bits = self._starts, self._stops, self._bits
        lo = bisect_right(stops, start)  # first run ending past start
        hi = bisect_left(starts, stop)  # first run starting at or past stop
        runs = list(middle)
        if lo < hi:
            if starts[lo] < start:
                runs.insert(0, (starts[lo], start, bits[lo]))
            if stops[hi - 1] > stop:
                runs.append((stop, stops[hi - 1], bits[hi - 1]))
        starts[lo:hi] = [run[0] for run in runs]
        stops[lo:hi] = [run[1] for run in runs]
        bits[lo:hi] = [run[2] for run in runs]


class AddressSpace:
    """The virtual memory of a single simulated process."""

    def __init__(
        self,
        pid: int,
        clock: Optional[VirtualClock] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.pid = pid
        self.clock = clock
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer
        #: Machine-wide IPC/copy accounting (installed by the kernel at
        #: spawn time); copy-on-write downgrades report into it.
        self.accounting: Optional[Any] = None
        self._next_address = _HEAP_BASE
        self._next_buffer_id = 1
        self._buffers: Dict[int, Buffer] = {}
        #: The freeze scan's index: per origin state, in allocation
        #: order, the live buffers that, since they last gained WRITE,
        #: no freeze has taken and no read-only :meth:`protect_buffer`
        #: has reached.  A raw :meth:`mprotect` that drops WRITE leaves
        #: a buffer here (the scan's probe decides).
        self._unfrozen: Dict[str, Dict[int, Buffer]] = {}
        #: Every mapped page's protection bits, kept as runs.
        self._pages = PageTable()
        self.mprotect_calls = 0
        #: Copy-on-write downgrades performed on shared-segment buffers.
        self.cow_downgrades = 0
        self.cow_bytes = 0
        #: Write attempts the permission check denied (SIGSEGV delivered).
        #: Real denied writes only: an :meth:`is_writable` probe never
        #: counts.
        self.write_denials = 0
        #: Writes that *completed* against a page lacking WRITE — an
        #: independent audit re-check after every successful store;
        #: the chaos campaign asserts this stays 0 under any fault
        #: schedule ("no frozen-page write ever succeeds").
        self.frozen_write_granted = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(
        self,
        nbytes: int,
        tag: str = "",
        payload: Any = None,
        origin_state: str = "initialization",
        permission: Permission = Permission.READ | Permission.WRITE,
    ) -> Buffer:
        """Allocate a page-aligned buffer and map its pages."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate a negative size ({nbytes})")
        nbytes = max(nbytes, 1)
        bits = int(permission)
        buffer = Buffer(
            buffer_id=self._next_buffer_id,
            pid=self.pid,
            address=self._map_fresh(nbytes, bits),
            nbytes=nbytes,
            tag=tag,
            payload=payload,
            origin_state=origin_state,
        )
        self._next_buffer_id += 1
        self._buffers[buffer.buffer_id] = buffer
        if bits & _WRITE:
            self._unfrozen.setdefault(origin_state, {})[buffer.buffer_id] = buffer
        return buffer

    def _map_fresh(self, nbytes: int, bits: int) -> int:
        """Map pages for ``nbytes`` at the top of the heap; their address."""
        address = self._next_address
        npages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        self._next_address += (npages + _GUARD_PAGES) * PAGE_SIZE
        self._pages.set(pages_spanned(address, nbytes), bits)
        return address

    def alloc_object(
        self,
        payload: Any,
        tag: str = "",
        origin_state: str = "initialization",
    ) -> Buffer:
        """Allocate a buffer sized to hold ``payload``."""
        return self.alloc(
            payload_nbytes(payload),
            tag=tag,
            payload=payload,
            origin_state=origin_state,
        )

    def map_shared(
        self,
        segment: SharedSegment,
        tag: str = "",
        origin_state: str = "initialization",
    ) -> Buffer:
        """Map a shared segment's pages into this space (zero-copy).

        The buffer references the segment's payload without a byte copy;
        the caller (the kernel's transfer path) charges the page-remap
        cost.  Pages are mapped read-write like a private allocation —
        the first write through :meth:`store`/:meth:`raw_write` pays the
        copy-on-write downgrade *after* the ordinary permission check,
        so temporal freezing still faults before any COW happens.
        """
        buffer = self.alloc(
            segment.nbytes,
            tag=tag,
            payload=segment.payload,
            origin_state=origin_state,
        )
        buffer.segment = segment
        segment.mappings += 1
        return buffer

    def free(self, buffer_id: int) -> None:
        """Unmap a buffer; later accesses through it fault."""
        buffer = self._buffers.pop(buffer_id, None)
        if buffer is None:
            raise SegmentationFault(
                self.pid, 0, "free", f"buffer {buffer_id} is not mapped"
            )
        # pages_spanned, inline: every released result is unmapped
        # here, and the per-call frame budget counts each call.
        address = buffer.address
        self._pages.clear(range(
            address // PAGE_SIZE, (address + buffer.nbytes - 1) // PAGE_SIZE + 1
        ))
        if not buffer.released:
            _retire(buffer)
        buffer.freed = True
        self._unfrozen.get(buffer.origin_state, {}).pop(buffer_id, None)

    def release_buffer(self, buffer_id: int) -> None:
        """The owner let go of a buffer's object.

        A buffer the freeze scan's index still holds keeps its pages:
        its payload is dropped, and its state's next freeze protects it
        like any other buffer of that state and then unmaps it.  So a
        release never changes what a freeze protects or charges.  Any
        other buffer is unmapped at once.
        """
        buffer = self._buffers[buffer_id]
        if buffer_id in self._unfrozen.get(buffer.origin_state, ()):
            _retire(buffer)
        else:
            self.free(buffer_id)

    def release(self) -> None:
        """Unmap every buffer in one pass (the process exited)."""
        for buffer in self._buffers.values():
            _retire(buffer)
            buffer.freed = True
        self._buffers.clear()
        self._unfrozen.clear()
        self._pages = PageTable()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_buffer(self, buffer_id: int) -> Buffer:
        """Look up a live buffer by id (faults if unmapped)."""
        try:
            return self._buffers[buffer_id]
        except KeyError:
            raise SegmentationFault(
                self.pid, 0, "access", f"buffer {buffer_id} is not mapped"
            ) from None

    def find_buffer(self, tag: str) -> Optional[Buffer]:
        """Return the most recently allocated live buffer with ``tag``."""
        match = None
        for buffer in self._buffers.values():
            if buffer.tag == tag:
                match = buffer
        return match

    def buffer_at(self, address: int) -> Optional[Buffer]:
        """The buffer containing an address, if any."""
        for buffer in self._buffers.values():
            if buffer.contains(address):
                return buffer
        return None

    def buffers(self) -> Iterator[Buffer]:
        """Iterate over the live buffers."""
        return iter(list(self._buffers.values()))

    def buffers_in_state(self, origin_state: str) -> List[Buffer]:
        """Buffers defined during one framework state."""
        return [b for b in self._buffers.values() if b.origin_state == origin_state]

    def unfrozen_in_state(self, origin_state: str) -> List[Buffer]:
        """The freeze scan's index of one state, in allocation order."""
        return list(self._unfrozen.get(origin_state, {}).values())

    def take_unfrozen(
        self, origin_state: str, tags: Optional[FrozenSet[str]] = None
    ) -> List[Buffer]:
        """Take one state's buffers out of the freeze scan's index, in
        allocation order: all of them, or only those tagged with one of
        ``tags``.  A buffer taken is one a freeze has passed, protected
        or not, so its release unmaps it at once."""
        index = self._unfrozen.get(origin_state)
        if not index:
            return []
        if tags is None:
            del self._unfrozen[origin_state]
            return list(index.values())
        taken = [buffer for buffer in index.values() if buffer.tag in tags]
        for buffer in taken:
            del index[buffer.buffer_id]
        return taken

    @property
    def resident_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    # ------------------------------------------------------------------
    # Permission checks and protection changes
    # ------------------------------------------------------------------

    def permission_of(self, address: int) -> Permission:
        """Page protection bits at an address."""
        return Permission(self._pages.get(page_of(address)))

    def check(self, address: int, nbytes: int, needed: Permission) -> None:
        """Fault unless every page in the range grants ``needed``."""
        needed_bits = int(needed)
        lacking = self._pages.first_lacking(
            pages_spanned(address, max(nbytes, 1)), needed_bits
        )
        if lacking is None:
            return
        page, granted = lacking
        if needed_bits & _WRITE:
            self.write_denials += 1
        raise SegmentationFault(
            self.pid,
            page * PAGE_SIZE,
            needed.name.lower() if needed.name else str(needed),
            f"page grants {Permission(granted)!r}",
        )

    def _audit_write(self, address: int, nbytes: int) -> None:
        """Post-write audit: count any write that got past the check onto
        a non-writable page (must never happen; the chaos invariant)."""
        pages = pages_spanned(address, max(nbytes, 1))
        if self._pages.first_lacking(pages, _WRITE) is not None:
            self.frozen_write_granted += 1

    def mprotect(self, address: int, nbytes: int, permission: Permission) -> None:
        """Change page protections for a mapped range (must be mapped)."""
        spanned = pages_spanned(address, max(nbytes, 1))
        unmapped = self._pages.first_unmapped(spanned)
        if unmapped is not None:
            raise SegmentationFault(
                self.pid, unmapped * PAGE_SIZE, "mprotect", "page is not mapped"
            )
        bits = int(permission)
        self._pages.set(spanned, bits)
        if bits & _WRITE:
            self._reindex(spanned)
        self.mprotect_calls += 1
        if self.clock is not None:
            tracer = self.tracer
            # Hot (~15k calls/suite pass): a guard costs less than a no-op span.
            if tracer.enabled:
                with tracer.span("mprotect", category="mprotect",
                                 pid=self.pid, bytes=nbytes,
                                 permission=str(permission)):
                    self.clock.advance(self.clock.cost_model.mprotect_ns)
            else:
                self.clock.advance(self.clock.cost_model.mprotect_ns)

    def _reindex(self, pages: range) -> None:
        """Return every live buffer overlapping ``pages`` to the freeze
        scan's index.  Rare: only an explicit mprotect regains WRITE."""
        touched = set()
        for buffer in self._buffers.values():
            if (page_of(buffer.address) < pages.stop
                    and page_of(buffer.end - 1) >= pages.start):
                index = self._unfrozen.setdefault(buffer.origin_state, {})
                index[buffer.buffer_id] = buffer
                touched.add(buffer.origin_state)
        for state in touched:  # back into allocation order
            self._unfrozen[state] = dict(sorted(self._unfrozen[state].items()))

    def protect_buffer(self, buffer_id: int, permission: Permission) -> None:
        """mprotect an entire buffer's page range."""
        buffer = self.get_buffer(buffer_id)
        self.mprotect(buffer.address, buffer.nbytes, permission)
        if not int(permission) & _WRITE:
            self._unfrozen.get(buffer.origin_state, {}).pop(buffer_id, None)

    def is_writable(self, buffer_id: int) -> bool:
        """Is every page of the buffer writable?

        A probe: it never faults and never counts as a denied write.  An
        unmapped buffer has no writable pages.
        """
        buffer = self._buffers.get(buffer_id)
        if buffer is None:
            return False
        pages = pages_spanned(buffer.address, buffer.nbytes)
        return self._pages.first_lacking(pages, _WRITE) is None

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def load(self, buffer_id: int) -> Any:
        """Read a buffer's payload (checks READ permission)."""
        buffer = self.get_buffer(buffer_id)
        self.check(buffer.address, buffer.nbytes, Permission.READ)
        return buffer.payload

    def load_live(self, buffer_id: int) -> Any:
        """Read a payload like :meth:`load`, or None once the buffer is
        released or unmapped: an object store's stale ref, not a fault."""
        buffer = self._buffers.get(buffer_id)
        if buffer is None or buffer.released:
            return None
        self.check(buffer.address, buffer.nbytes, Permission.READ)
        return buffer.payload

    def store(self, buffer_id: int, payload: Any) -> Buffer:
        """Replace a buffer's payload (checks WRITE permission).

        The simulated size is updated to follow the payload, modelling a
        ``realloc`` performed by the owning process: shrinking unmaps the
        tail pages, and growth beyond the buffer's own pages moves it to
        a fresh read-write range (the pages past its end are a guard page
        or another buffer's), unmapping the old one.
        """
        buffer = self.get_buffer(buffer_id)
        self.check(buffer.address, buffer.nbytes, Permission.WRITE)
        self._cow_downgrade(buffer)
        new_nbytes = max(payload_nbytes(payload), 1)
        old_pages = pages_spanned(buffer.address, buffer.nbytes)
        new_pages = pages_spanned(buffer.address, new_nbytes)
        if len(new_pages) > len(old_pages):
            self._pages.clear(old_pages)
            buffer.address = self._map_fresh(new_nbytes, _RW)
        else:
            self._pages.clear(old_pages[len(new_pages):])
        buffer.payload = payload
        buffer.nbytes = new_nbytes
        self._audit_write(buffer.address, buffer.nbytes)
        return buffer

    def raw_write(self, address: int, nbytes: int, value: Any = None) -> Buffer:
        """Write ``nbytes`` at a raw address, as exploit payloads do.

        Returns the buffer that was corrupted.  Faults if the address is
        unmapped or read-only — this is exactly the check that makes the
        temporal-permission mitigation of Fig. 3 effective.
        """
        self.check(address, nbytes, Permission.WRITE)
        buffer = self.buffer_at(address)
        if buffer is None:
            raise SegmentationFault(self.pid, address, "write", "no buffer mapped")
        self._cow_downgrade(buffer)
        if value is not None:
            buffer.payload = value
        self._audit_write(address, nbytes)
        return buffer

    def _cow_downgrade(self, buffer: Buffer) -> None:
        """First write to a shared-segment mapping: copy, then detach.

        Runs strictly *after* the permission check — a frozen (read-only)
        shared page still faults before any COW work happens, preserving
        the temporal-freezing semantics the zero-copy path must not
        weaken.  Charges the byte-copy cost the zero-copy transfer
        deferred and downgrades the buffer to a private allocation.
        """
        segment = buffer.segment
        if segment is None:
            return
        buffer.segment = None
        segment.mappings -= 1
        self.cow_downgrades += 1
        self.cow_bytes += buffer.nbytes
        if self.accounting is not None:
            self.accounting.record_cow(buffer.nbytes)
        if self.clock is not None:
            with self.tracer.span("cow_copy", category="zero_copy",
                                  pid=self.pid, bytes=buffer.nbytes,
                                  segment=segment.segment_id):
                self.clock.advance(
                    self.clock.cost_model.copy_cost(buffer.nbytes)
                )

    def raw_read(self, address: int, nbytes: int) -> Any:
        """Read from a raw address, as info-leak payloads do."""
        self.check(address, nbytes, Permission.READ)
        buffer = self.buffer_at(address)
        if buffer is None:
            raise SegmentationFault(self.pid, address, "read", "no buffer mapped")
        return buffer.payload


@dataclass
class MemoryLayout:
    """A user-provided annotation describing a protected data structure.

    The paper requires users to define "the memory layout of a customized
    data structure (e.g., buffer location and size of `template`)" so the
    runtime can set memory access permissions on it.
    """

    name: str
    tag: str
    nbytes: int
    constructor: str = ""
    accessors: tuple = field(default_factory=tuple)

    def validate(self) -> None:
        """Raise AnnotationError on an incomplete annotation."""
        from repro.errors import AnnotationError

        if not self.name:
            raise AnnotationError("annotation needs a name")
        if not self.tag:
            raise AnnotationError(f"annotation {self.name!r} needs a buffer tag")
        if self.nbytes <= 0:
            raise AnnotationError(
                f"annotation {self.name!r} needs a positive size, got {self.nbytes}"
            )
