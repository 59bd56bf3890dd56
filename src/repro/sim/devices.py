"""Simulated devices — the ``DEV`` storage class of Fig. 8.

Two devices matter for the paper's workloads:

* a **camera** producing image frames (the facial-recognition and drone
  examples fetch frames in a loop), and
* a **network** endpoint, used both legitimately (sending detection
  results to a server, downloading datasets) and by attacks (exfiltrating
  stolen data).  The network records every outbound message so the
  security analysis of Section 5.3 can check what actually left the
  machine.

Each device has a well-known file descriptor so the fd-argument checks of
the syscall filter (``ioctl``/``connect``/``select`` restricted to
designated fds) have something concrete to verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import DeviceError

CAMERA_FD = 10
NETWORK_FD = 20
GUI_SOCKET_FD = 30

FrameSource = Callable[[int], Optional[np.ndarray]]


def _default_frame_source(index: int) -> Optional[np.ndarray]:
    """Deterministic grey-gradient frames, 64x64 RGB."""
    rng = np.random.default_rng(1000 + index)
    return rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)


class Camera:
    """A frame-producing capture device."""

    def __init__(
        self,
        frame_source: FrameSource = _default_frame_source,
        frame_limit: Optional[int] = None,
        fd: int = CAMERA_FD,
    ) -> None:
        self.fd = fd
        self._frame_source = frame_source
        self._frame_limit = frame_limit
        self._index = 0
        self.frames_read = 0
        self._opened = False

    def open(self) -> int:
        self._opened = True
        return self.fd

    @property
    def opened(self) -> bool:
        return self._opened

    def read_frame(self) -> Optional[np.ndarray]:
        """Return the next frame, or ``None`` when the stream ends."""
        if not self._opened:
            raise DeviceError("camera is not opened")
        if self._frame_limit is not None and self._index >= self._frame_limit:
            return None
        frame = self._frame_source(self._index)
        if frame is None:
            return None
        self._index += 1
        self.frames_read += 1
        return frame

    def rewind(self) -> None:
        self._index = 0


@dataclass(frozen=True)
class NetworkMessage:
    """One outbound message recorded by the simulated network."""

    pid: int
    destination: str
    payload: Any
    nbytes: int


class Network:
    """A network endpoint with an outbound log and canned inbound data."""

    def __init__(self, fd: int = NETWORK_FD) -> None:
        self.fd = fd
        self._outbound: List[NetworkMessage] = []
        self._remote_content: Dict[str, Any] = {}
        self._connected_pids: set = set()

    def host_content(self, url: str, payload: Any) -> None:
        """Make ``payload`` downloadable at ``url``."""
        self._remote_content[url] = payload

    def connect(self, pid: int, destination: str = "server") -> int:
        self._connected_pids.add(pid)
        return self.fd

    def is_connected(self, pid: int) -> bool:
        return pid in self._connected_pids

    def send(self, pid: int, destination: str, payload: Any) -> NetworkMessage:
        from repro.sim.memory import payload_nbytes

        message = NetworkMessage(
            pid=pid,
            destination=destination,
            payload=payload,
            nbytes=payload_nbytes(payload),
        )
        self._outbound.append(message)
        return message

    def download(self, url: str) -> Any:
        try:
            return self._remote_content[url]
        except KeyError:
            raise DeviceError(f"no remote content hosted at {url!r}") from None

    def outbound_to(self, destination: str) -> List[NetworkMessage]:
        return [m for m in self._outbound if m.destination == destination]


@dataclass
class DeviceBoard:
    """All devices of one simulated machine."""

    camera: Camera = field(default_factory=Camera)
    network: Network = field(default_factory=Network)
