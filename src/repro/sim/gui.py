"""Simulated GUI subsystem — the ``GUI`` storage class of Fig. 8.

Models the pieces the paper cares about:

* **named windows** holding displayed images (``g_windows`` /
  ``cvNamedWindow`` in the paper's formalism) — these are the GUI-relevant
  objects whose access marks an API as *visualizing*;
* a **key-event queue** so interactive loops (``pollKey() == 's'``) can be
  driven deterministically by workloads;
* a **connection handshake**: the first visualizing API call needs a
  ``connect`` syscall to reach the GUI subsystem, which is exactly the
  init-phase-only syscall case of Section 4.4.1;
* a **recent-files list** (``Gtk::RecentManager``) for the MComix3
  information-leak case study (Section 5.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import GuiError


@dataclass
class Window:
    """A named window with the last image shown in it."""

    name: str
    image: Any = None
    x: int = 0
    y: int = 0
    title: str = ""
    shown_count: int = 0


class GuiSubsystem:
    """Machine-wide GUI state."""

    def __init__(self) -> None:
        self._windows: Dict[str, Window] = {}
        self._key_queue: List[str] = []
        self._connected_pids: set = set()
        self.recent_files: List[str] = []
        self.draw_operations = 0

    # ------------------------------------------------------------------
    # Connection (init-phase connect syscall)
    # ------------------------------------------------------------------

    def connect(self, pid: int) -> None:
        self._connected_pids.add(pid)

    def is_connected(self, pid: int) -> bool:
        return pid in self._connected_pids

    def require_connection(self, pid: int) -> None:
        if pid not in self._connected_pids:
            raise GuiError(f"process {pid} has no GUI connection")

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------

    def named_window(self, name: str) -> Window:
        window = self._windows.get(name)
        if window is None:
            window = Window(name=name)
            self._windows[name] = window
        return window

    def show(self, name: str, image: Any) -> Window:
        window = self.named_window(name)
        window.image = image
        window.shown_count += 1
        self.draw_operations += 1
        return window

    def move_window(self, name: str, x: int, y: int) -> None:
        window = self._windows.get(name)
        if window is None:
            raise GuiError(f"no window named {name!r}")
        window.x, window.y = x, y

    def set_title(self, name: str, title: str) -> None:
        self.named_window(name).title = title

    def window(self, name: str) -> Optional[Window]:
        return self._windows.get(name)

    @property
    def windows(self) -> Dict[str, Window]:
        return dict(self._windows)

    def destroy_all(self) -> int:
        count = len(self._windows)
        self._windows.clear()
        return count

    # ------------------------------------------------------------------
    # Keyboard events
    # ------------------------------------------------------------------

    def queue_keys(self, keys: str) -> None:
        """Schedule key presses consumed by ``poll_key`` in order."""
        self._key_queue.extend(keys)

    def poll_key(self) -> str:
        """Return the next queued key, or '' when the queue is empty."""
        if not self._key_queue:
            return ""
        return self._key_queue.pop(0)

    # ------------------------------------------------------------------
    # Recent files (MComix3 case study)
    # ------------------------------------------------------------------

    def add_recent_file(self, path: str) -> None:
        if path in self.recent_files:
            self.recent_files.remove(path)
        self.recent_files.insert(0, path)
