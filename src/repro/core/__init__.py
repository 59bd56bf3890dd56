"""FreePart core: analysis, partitioning, RPC, enforcement, runtime.

Heavier members (gateway, runtime) are exported lazily to keep the
``frameworks ↔ core`` import graph acyclic: ``repro.core.apitypes`` and
``repro.core.dataflow`` are imported by the framework layer, while the
gateway/runtime modules import the framework layer back.
"""

from typing import Any

from repro.core.apitypes import APIType, CONCRETE_TYPES, FrameworkState

__all__ = [
    "APIType",
    "ApiGateway",
    "CONCRETE_TYPES",
    "Categorization",
    "CategorizedAPI",
    "FrameworkState",
    "FreePart",
    "FreePartConfig",
    "FreePartGateway",
    "HybridAnalyzer",
    "FrameworkNamespace",
    "NativeGateway",
    "PartitionPlan",
    "RunReport",
    "four_way_plan",
    "hook",
    "split_processing_plan",
]

_LAZY_EXPORTS = {
    "ApiGateway": ("repro.core.gateway", "ApiGateway"),
    "NativeGateway": ("repro.core.gateway", "NativeGateway"),
    "Categorization": ("repro.core.hybrid", "Categorization"),
    "CategorizedAPI": ("repro.core.hybrid", "CategorizedAPI"),
    "HybridAnalyzer": ("repro.core.hybrid", "HybridAnalyzer"),
    "PartitionPlan": ("repro.core.partitioner", "PartitionPlan"),
    "four_way_plan": ("repro.core.partitioner", "four_way_plan"),
    "split_processing_plan": ("repro.core.partitioner", "split_processing_plan"),
    "FrameworkNamespace": ("repro.core.hooks", "FrameworkNamespace"),
    "hook": ("repro.core.hooks", "hook"),
    "FreePart": ("repro.core.runtime", "FreePart"),
    "FreePartConfig": ("repro.core.runtime", "FreePartConfig"),
    "FreePartGateway": ("repro.core.runtime", "FreePartGateway"),
    "RunReport": ("repro.core.runtime", "RunReport"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
