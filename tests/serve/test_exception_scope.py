"""A simulator bug escapes the server instead of failing a request.

The servers turn ``repro.errors`` failures into failed responses; any
other exception is a bug in the simulator itself and must propagate, or
chaos goodput and SLO burn would quietly absorb it.
"""

import numpy as np
import pytest

from repro.core.runtime import FreePartGateway
from repro.serve.bench import standard_pipeline
from repro.serve.gateway import ServeGateway
from repro.serve.server import NaiveServer, PipelineServer
from repro.sim.kernel import SimKernel


def _simulator_bug(self, calls):
    raise TypeError("simulator bug")


def _load_one(server):
    server.kernel.fs.write_file("/data/t/in.png", np.zeros((8, 8)))
    server.submit("t", standard_pipeline("/data/t/in.png", "/out/t/out.png"))


def test_pipeline_server_lets_a_simulator_bug_escape(monkeypatch):
    server = PipelineServer(kernel=SimKernel(), pool_size=1)
    _load_one(server)
    monkeypatch.setattr(ServeGateway, "call_many", _simulator_bug)
    with pytest.raises(TypeError, match="simulator bug"):
        server.serve_one()


def test_naive_server_lets_a_simulator_bug_escape(monkeypatch):
    server = NaiveServer(kernel=SimKernel())
    _load_one(server)
    monkeypatch.setattr(FreePartGateway, "call_many", _simulator_bug)
    with pytest.raises(TypeError, match="simulator bug"):
        server.drain()
