"""Evaluation applications (Table 6) and case-study programs."""

# The 23 apps call scipy-backed operators throughout, so a process that
# runs them loads scipy here, in set-up, not inside its first call.
import scipy.ndimage  # noqa: F401

from repro.apps.base import (
    Application,
    AppResult,
    AppSpec,
    ArgSpec,
    CallSite,
    PipelineApp,
    TypeCounts,
    Workload,
    execute_app,
)
from repro.apps.suite import APP_SPECS, SAMPLE_IDS, all_apps, get_spec, make_app

__all__ = [
    "APP_SPECS",
    "AppResult",
    "AppSpec",
    "Application",
    "ArgSpec",
    "CallSite",
    "PipelineApp",
    "SAMPLE_IDS",
    "TypeCounts",
    "Workload",
    "all_apps",
    "execute_app",
    "get_spec",
    "make_app",
]
