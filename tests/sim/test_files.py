"""Simulated filesystem."""

import numpy as np
import pytest

from repro.errors import FileNotFoundInSim
from repro.sim.files import SimFileSystem


@pytest.fixture
def fs():
    return SimFileSystem()


def test_write_then_read(fs):
    fs.write_file("/a/b.png", [1, 2, 3])
    assert fs.read_file("/a/b.png") == [1, 2, 3]


def test_read_missing_raises(fs):
    with pytest.raises(FileNotFoundInSim):
        fs.read_file("/missing")


def test_overwrite_bumps_version(fs):
    fs.write_file("/f", "v1")
    fs.write_file("/f", "v2")
    assert fs.stat("/f").version == 2
    assert fs.read_file("/f") == "v2"


def test_nbytes_tracks_payload(fs):
    fs.write_file("/arr", np.zeros((8, 8)))
    assert fs.stat("/arr").nbytes == 512


def test_exists(fs):
    assert not fs.exists("/x")
    fs.write_file("/x", 1)
    assert fs.exists("/x")


def test_listdir_prefix(fs):
    fs.write_file("/data/a", 1)
    fs.write_file("/data/b", 2)
    fs.write_file("/other/c", 3)
    assert fs.listdir("/data/") == ["/data/a", "/data/b"]


def test_tempfile_paths_unique(fs):
    assert fs.tempfile() != fs.tempfile()

