"""Framework registry: every mini-framework by name.

The built-in frameworks declare their APIs through
:func:`repro.frameworks._oplib.declare`, so each spec already carries
its scaled costs and its CVEs; a framework added through
:func:`register_framework` is used as written.  Use
:data:`FRAMEWORKS` or :func:`get_framework` to access them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.attacks.cves import ALL_CVES
from repro.errors import ReproError
from repro.frameworks.base import Framework, FrameworkAPI
from repro.frameworks.minicaffe import CAFFE
from repro.frameworks.minicv import OPENCV
from repro.frameworks.minitf import TENSORFLOW
from repro.frameworks.minitorch import PYTORCH
from repro.frameworks.minisklearn import SKLEARN
from repro.frameworks.miniutil import (
    GTK,
    JSONLIB,
    MATPLOTLIB,
    NUMPYLIB,
    PANDAS,
    PILLOW,
)

FRAMEWORKS: Dict[str, Framework] = {
    fw.name: fw
    for fw in (
        OPENCV, PYTORCH, TENSORFLOW, CAFFE, SKLEARN,
        PANDAS, JSONLIB, MATPLOTLIB, NUMPYLIB, PILLOW, GTK,
    )
}

#: The four frameworks the paper's evaluation centres on.
MAJOR_FRAMEWORKS: Tuple[str, ...] = ("opencv", "pytorch", "tensorflow", "caffe")


def register_framework(framework: Framework) -> Framework:
    """Add a user-provided framework so gateways can dispatch to it.

    FreePart is framework-agnostic (Section 4): anything declaring its
    APIs through :class:`~repro.frameworks.base.APISpec` can be analyzed,
    partitioned, and hooked.  Re-registering the same name replaces the
    previous registration.
    """
    FRAMEWORKS[framework.name] = framework
    return framework


def get_framework(name: str) -> Framework:
    """Resolve a framework by name (ReproError if unknown)."""
    try:
        return FRAMEWORKS[name]
    except KeyError:
        raise ReproError(f"unknown framework {name!r}") from None


def get_api(framework: str, api_name: str) -> FrameworkAPI:
    """Resolve (framework, api_name) to the FrameworkAPI."""
    try:
        return FRAMEWORKS[framework]._apis[api_name]
    except KeyError:  # the slow path raises the ReproError naming it
        return get_framework(framework).get(api_name)


def iter_apis(names: Iterable[str] = ()) -> List[FrameworkAPI]:
    """All APIs of the given frameworks (default: every framework)."""
    selected = list(names) or list(FRAMEWORKS)
    apis: List[FrameworkAPI] = []
    for name in selected:
        apis.extend(get_framework(name))
    return apis


# ``_oplib.declare`` attaches CVEs by API name, so a record naming an API
# that no framework registers (a typo in the table) fails the import here.
for _record in ALL_CVES:
    get_api(_record.framework, _record.api_name)
