"""The benchmark's host clock: op timings at a reference machine speed.

On a shared host the simulator's speed swings with its neighbours' load:
a fixed loop runs up to 1.6x slower for a second at a time, and 15%
slower or faster for minutes.  Identical runs then spread by 10-25%,
which hides the changes the benchmark exists to catch.  So the clock
times a fixed pure-Python loop, :func:`probe`, every
:data:`PROBE_INTERVAL_S` at an op boundary, and scales every host
duration by ``REF_PROBE_S / local probe time``: host times are given at
the speed where the probe takes :data:`REF_PROBE_S`.  The probes' own
time is left out of every measurement.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Tuple

#: How often the clock probes the host's speed (host seconds).
PROBE_INTERVAL_S = 0.05
#: The probe's duration at reference speed.
REF_PROBE_S = 0.0005
_PROBE_LOOPS = 6000


def probe() -> float:
    """Time a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(_PROBE_LOOPS):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


class OpClock:
    """Host start and duration of every op, and the host speed around it.

    Ops run inside *timed phases* (one per episode, from its first op to
    :meth:`stop`); the idle time between ops inside a phase counts too.
    Each op and each idle gap remembers how many probes preceded it, and
    is scaled by the mean of the probes just before and just after it,
    so a slowdown shorter than the probe interval is still corrected.
    Op bounds are forwarded to an optional
    :class:`~hostbench.layers.LayerTrace`.
    """

    def __init__(self, trace=None) -> None:
        self.trace = trace
        self.starts: List[float] = []
        self.probes: List[float] = []
        #: (op duration or idle gap, probes taken before it, is an op).
        self._pieces: List[Tuple[float, int, bool]] = []
        #: Probes taken before the first op: they time the set-up.
        self.setup_probes = 0
        self._open: Optional[float] = None
        self._idle_since: Optional[float] = None
        self._last_probe = float("-inf")

    def probe(self) -> None:
        self.probes.append(probe())
        self._last_probe = time.perf_counter()

    def begin(self) -> None:
        """An op starts (and the one still open, if any, ends)."""
        now = time.perf_counter()
        self._finish(now)
        if self._idle_since is not None:
            self._pieces.append((now - self._idle_since, len(self.probes),
                                 False))
        if now - self._last_probe >= PROBE_INTERVAL_S:
            self.probe()
            now = time.perf_counter()
        if not self.starts:
            self.setup_probes = len(self.probes)
        self._open = now
        self.starts.append(now)
        if self.trace is not None:
            self.trace.op_begin(now)

    def end(self) -> None:
        """The open op ends; the timed phase goes on."""
        now = time.perf_counter()
        self._finish(now)

    def stop(self) -> None:
        """End the timed phase (and the open op)."""
        self.end()
        self._idle_since = None

    def _finish(self, now: float) -> None:
        if self._open is not None:
            duration = now - self._open
            self._pieces.append((duration, len(self.probes), True))
            self._open = None
            self._idle_since = now
            if self.trace is not None:
                self.trace.op_end(now)

    # -- reference speed ------------------------------------------------

    def scale(self, probes_before: int) -> float:
        """Reference-speed factor for work done after that many probes."""
        if not self.probes:
            return 1.0
        window = self.probes[max(0, probes_before - 1):probes_before + 1]
        return REF_PROBE_S / statistics.fmean(window or self.probes[:1])

    def _scales(self) -> List[float]:
        return [self.scale(n) for n in range(len(self.probes) + 1)]

    def scaled_durations(self) -> List[float]:
        """Every op's duration at reference speed."""
        scales = self._scales()
        return [d * scales[n] for d, n, is_op in self._pieces if is_op]

    def timed_s(self) -> float:
        """Host seconds of the timed phases, probes left out."""
        return sum(d for d, _, _ in self._pieces)

    def timed_ref_s(self) -> float:
        """The same at reference speed."""
        scales = self._scales()
        return sum(d * scales[n] for d, n, _ in self._pieces)

    def probe_s(self) -> float:
        """Median probe time: the host's speed during the pass."""
        return statistics.median(self.probes) if self.probes else 0.0

    def setup_ref_s(self, started: float) -> float:
        """Reference-speed time from ``started`` (a ``perf_counter``
        reading) to the first op, the set-up probes left out."""
        setup = self.probes[:self.setup_probes] or self.probes[:1]
        first = self.starts[0] if self.starts else time.perf_counter()
        raw = first - started - sum(self.probes[:self.setup_probes])
        return raw * REF_PROBE_S / statistics.fmean(setup) if setup else raw
