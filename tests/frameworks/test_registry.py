"""Framework registry, CVE wiring, and cost calibration."""

import os
import subprocess
import sys

import pytest

from repro.attacks.cves import ALL_CVES
from repro.core.apitypes import APIType
from repro.errors import ReproError
from repro.frameworks import registry
from repro.frameworks.base import APISpec, Framework
from repro.frameworks.registry import (
    FRAMEWORKS,
    MAJOR_FRAMEWORKS,
    get_api,
    get_framework,
    iter_apis,
    register_framework,
)


def test_major_frameworks_present():
    assert set(MAJOR_FRAMEWORKS) == {"opencv", "pytorch", "tensorflow", "caffe"}
    for name in MAJOR_FRAMEWORKS:
        assert len(get_framework(name)) > 0


def test_unknown_framework_raises():
    with pytest.raises(ReproError):
        get_framework("scikit")


def test_every_cve_is_wired_to_its_api():
    for record in ALL_CVES:
        api = get_api(record.framework, record.api_name)
        assert record.cve_id in api.spec.vulnerabilities, record.cve_id


def test_a_cve_naming_no_registered_api_fails_the_import():
    # A fresh interpreter: the failed re-import leaves the registry
    # module half-built.
    script = (
        "import importlib\n"
        "from repro.attacks import cves\n"
        "from repro.frameworks import registry\n"
        "cves.ALL_CVES += (cves.CveRecord('CVE-TYPO', 'opencv', 'imreed',\n"
        "    cves.VulnType.DOS, cves.APIType.LOADING),)\n"
        "importlib.reload(registry)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 1
    assert "ReproError" in result.stderr
    assert "'imreed'" in result.stderr


def test_a_registered_user_framework_is_used_as_written(monkeypatch):
    # Only the built-in frameworks' costs are scaled and CVEs attached.
    monkeypatch.setattr(registry, "FRAMEWORKS", dict(FRAMEWORKS))
    spec = APISpec(name="imread", framework="userfw", qualname="userfw.imread",
                   ground_truth=APIType.LOADING, base_cost_ns=1_234,
                   cost_ns_per_byte=0.5)
    framework = Framework("userfw")
    framework.add(spec, lambda ctx: None)
    register_framework(framework)
    assert get_api("userfw", "imread").spec is spec


def test_cve_api_types_match_registry():
    # A CVE whose record says DL must sit on a loading API, etc.
    for record in ALL_CVES:
        api = get_api(record.framework, record.api_name)
        assert api.spec.ground_truth is record.api_type, record.cve_id


def test_iter_apis_all():
    total = sum(len(fw) for fw in FRAMEWORKS.values())
    assert len(iter_apis()) == total
    assert total > 400  # the reproduction models a large API surface


def test_iter_apis_selected():
    apis = iter_apis(["opencv"])
    assert all(a.spec.framework == "opencv" for a in apis)


def test_framework_api_scale_matches_paper_shape():
    # OpenCV has by far the most APIs; each major framework has a
    # loading/processing/storing surface.
    opencv = get_framework("opencv")
    assert len(opencv.apis_of_type(APIType.PROCESSING)) >= 75
    assert len(opencv.apis_of_type(APIType.VISUALIZING)) >= 6
    for name in MAJOR_FRAMEWORKS:
        framework = get_framework(name)
        assert framework.apis_of_type(APIType.LOADING)
        assert framework.apis_of_type(APIType.PROCESSING)
        assert framework.apis_of_type(APIType.STORING)


def test_only_opencv_like_frameworks_have_visualizing():
    # Table 4 footnote: Caffe, PyTorch, TensorFlow have no visualizing APIs.
    for name in ("pytorch", "tensorflow", "caffe"):
        assert get_framework(name).apis_of_type(APIType.VISUALIZING) == []


def test_costs_are_calibrated_up():
    # The calibration pass must leave compute >> per-call IPC cost.
    from repro.sim.clock import CostModel

    ipc = CostModel().ipc_message_ns
    processing = get_framework("opencv").apis_of_type(APIType.PROCESSING)
    average = sum(a.spec.base_cost_ns for a in processing) / len(processing)
    assert average > 10 * ipc


def test_neutral_apis_exist_in_opencv():
    opencv = get_framework("opencv")
    neutrals = [a.spec.name for a in opencv if a.spec.neutral]
    assert "cvtColor" in neutrals
    assert "cvCreateMemStorage" in neutrals


def test_vulnerable_apis_listing():
    opencv = get_framework("opencv")
    names = [a.spec.name for a in opencv.vulnerable_apis()]
    assert "imread" in names
    assert "imshow" in names
