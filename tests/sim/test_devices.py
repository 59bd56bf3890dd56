"""Simulated devices: camera and network."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.sim.devices import (
    CAMERA_FD,
    Camera,
    DeviceBoard,
    NETWORK_FD,
    Network,
)


class TestCamera:
    def test_read_requires_open(self):
        camera = Camera()
        with pytest.raises(DeviceError):
            camera.read_frame()

    def test_frames_are_deterministic(self):
        a, b = Camera(), Camera()
        a.open(), b.open()
        assert np.array_equal(a.read_frame(), b.read_frame())

    def test_frame_limit_ends_stream(self):
        camera = Camera(frame_limit=2)
        camera.open()
        assert camera.read_frame() is not None
        assert camera.read_frame() is not None
        assert camera.read_frame() is None
        assert camera.frames_read == 2

    def test_custom_source(self):
        frames = [np.ones((2, 2)), None]
        camera = Camera(frame_source=lambda i: frames[i])
        camera.open()
        assert np.array_equal(camera.read_frame(), np.ones((2, 2)))
        assert camera.read_frame() is None

    def test_rewind(self):
        camera = Camera(frame_limit=1)
        camera.open()
        camera.read_frame()
        assert camera.read_frame() is None
        camera.rewind()
        assert camera.read_frame() is not None

    def test_well_known_fd(self):
        assert Camera().fd == CAMERA_FD


class TestNetwork:
    def test_send_is_recorded(self):
        net = Network()
        net.send(1, "server", {"x": 1})
        [message] = net.outbound_to("server")
        assert message.pid == 1
        assert message.nbytes > 0

    def test_outbound_to_filters(self):
        net = Network()
        net.send(1, "a", 1)
        net.send(1, "b", 2)
        assert len(net.outbound_to("a")) == 1

    def test_download_hosted_content(self):
        net = Network()
        net.host_content("https://x/y", [1, 2])
        assert net.download("https://x/y") == [1, 2]

    def test_download_missing_raises(self):
        with pytest.raises(DeviceError):
            Network().download("https://nothing")

    def test_connect_tracks_pids(self):
        net = Network()
        assert not net.is_connected(5)
        net.connect(5)
        assert net.is_connected(5)


class TestDeviceBoard:
    def test_fd_lookup(self):
        board = DeviceBoard()
        assert board.camera.fd == CAMERA_FD
        assert board.network.fd == NETWORK_FD
