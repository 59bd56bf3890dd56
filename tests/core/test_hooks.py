"""The API hooking façade (repro.core.hooks)."""

import numpy as np
import pytest

from repro.core.gateway import NativeGateway
from repro.core.hooks import hook
from repro.core.runtime import FreePart
from repro.core.rpc import RemoteHandle
from repro.errors import ReproError
from repro.sim.kernel import SimKernel


@pytest.fixture
def native():
    return NativeGateway(SimKernel())


def test_hooked_code_reads_like_the_original(native):
    cv2 = hook(native, "opencv")
    native.kernel.fs.write_file("/in.png", np.ones((8, 8, 3)))
    frame = cv2.imread("/in.png")
    blurred = cv2.GaussianBlur(frame)
    cv2.imshow("w", blurred)
    cv2.imwrite("/out.png", blurred)
    assert native.kernel.fs.exists("/out.png")
    assert native.kernel.gui.window("w") is not None


def test_hooked_calls_route_to_agents_under_freepart():
    freepart = FreePart()
    gateway = freepart.deploy()
    cv2 = hook(gateway, "opencv")
    freepart.kernel.fs.write_file("/in.png", np.ones((8, 8)))
    frame = cv2.imread("/in.png")
    assert isinstance(frame, RemoteHandle)
    assert gateway.agents[0].stats.requests == 1


def test_unknown_framework_fails_at_hook_time(native):
    with pytest.raises(ReproError):
        hook(native, "not-a-framework")


def test_unknown_api_raises_attribute_error(native):
    cv2 = hook(native, "opencv")
    with pytest.raises(AttributeError):
        cv2.imread_v99


def test_stub_identity_is_cached(native):
    cv2 = hook(native, "opencv")
    assert cv2.imread is cv2.imread


def test_stub_carries_doc_and_qualname(native):
    cv2 = hook(native, "opencv")
    assert cv2.imread.qualname == "cv2.imread"
    assert "image" in cv2.imread.doc.lower()
    assert "cv2.imread" in repr(cv2.imread)


def test_dir_lists_apis(native):
    cv2 = hook(native, "opencv")
    listing = dir(cv2)
    assert "imread" in listing and "imshow" in listing
