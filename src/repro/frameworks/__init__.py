"""Mini data-processing frameworks (OpenCV/PyTorch/TensorFlow/Caffe + utils).

Import :mod:`repro.frameworks.registry` (or use the re-exports below) to
get every framework by name.  Each built-in API is declared with its
final spec: costs scaled and CVEs attached.
"""

from repro.frameworks.base import (
    APISpec,
    Blob,
    DataObject,
    ExecutionContext,
    Frame,
    Framework,
    FrameworkAPI,
    Mat,
    Model,
    StatefulKind,
    Tensor,
    Tracer,
    is_crafted,
)
from repro.frameworks.registry import (
    FRAMEWORKS,
    register_framework,
    MAJOR_FRAMEWORKS,
    get_api,
    get_framework,
    iter_apis,
)

__all__ = [
    "APISpec",
    "Blob",
    "DataObject",
    "ExecutionContext",
    "FRAMEWORKS",
    "Frame",
    "Framework",
    "FrameworkAPI",
    "MAJOR_FRAMEWORKS",
    "Mat",
    "Model",
    "StatefulKind",
    "Tensor",
    "Tracer",
    "get_api",
    "get_framework",
    "is_crafted",
    "iter_apis",
    "register_framework",
]
