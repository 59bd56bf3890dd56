"""Hybrid-categorizer edge cases the static linter depends on.

The linter resolves arbitrary call sites through
:func:`repro.core.hybrid.categorize_call_site`; these tests pin the
behaviors it leans on: ``UncategorizableAPI`` must carry the qualname,
``method == "dynamic"`` must mean the tracer actually ran, and fully
static verdicts must never invoke the tracer at all.
"""

import pytest

from repro.core.apitypes import APIType
from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core import hybrid
from repro.core.hybrid import HybridAnalyzer, categorize_call_site
from repro.core.static_analysis import summarize
from repro.errors import ReproError, UncategorizableAPI
from repro.frameworks.base import APISpec, FrameworkAPI
from repro.frameworks.registry import get_framework

#: Hooks chosen at run time: the static walk cannot name them.
_HOOKS = [lambda ctx: None]


def _hooked(ctx):
    return _HOOKS[0](ctx)


def clear_call_site_cache():
    """Drop every cached call-site verdict."""
    hybrid._CALL_SITE_CACHE.clear()


def opaque_api(name, example_args=None):
    """A throwaway-framework API whose flows hide behind a hook."""
    spec = APISpec(
        name=name,
        framework="testfw",
        qualname=f"testfw.{name}",
        ground_truth=APIType.PROCESSING,
        example_args=example_args,
    )
    return FrameworkAPI(spec, _hooked)


class CountingDynamic(DynamicAnalyzer):
    """Dynamic analyzer that records whether it was invoked."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def analyze(self, api):
        self.calls += 1
        return super().analyze(api)


def test_opaque_without_test_case_raises_with_qualname():
    api = opaque_api("opaque_noop")
    with pytest.raises(UncategorizableAPI) as err:
        HybridAnalyzer().categorize_api(api)
    assert "testfw.opaque_noop" in str(err.value)


def test_opaque_with_uninformative_trace_raises_with_qualname():
    """Dynamic fallback ran but traced no flows: still uncategorizable."""
    api = opaque_api("opaque_silent", example_args=lambda ctx: ((), {}))
    with pytest.raises(UncategorizableAPI) as err:
        HybridAnalyzer().categorize_api(api)
    assert "testfw.opaque_silent" in str(err.value)


def test_opaque_with_real_test_case_reports_dynamic_method():
    api = get_framework("pytorch").get("hub_load")
    assert not summarize(api.impl).complete
    counting = CountingDynamic()
    entry = HybridAnalyzer(dynamic=counting).categorize_api(api)
    assert entry.method == "dynamic"
    assert counting.calls == 1
    assert entry.api_type is APIType.LOADING


def test_static_verdict_never_invokes_the_tracer():
    api = get_framework("opencv").get("imread")
    counting = CountingDynamic()
    entry = HybridAnalyzer(dynamic=counting).categorize_api(api)
    assert entry.method == "static"
    assert counting.calls == 0


def test_categorize_call_site_matches_full_analysis():
    clear_call_site_cache()
    entry = categorize_call_site("opencv", "imread")
    assert entry.qualname == "cv2.imread"
    assert entry.api_type is APIType.LOADING
    assert entry.method == "static"


def test_categorize_call_site_caches_verdicts():
    clear_call_site_cache()
    first = categorize_call_site("opencv", "GaussianBlur")
    second = categorize_call_site("opencv", "GaussianBlur")
    assert first is second


def test_categorize_call_site_dynamic_method_means_tracer_ran():
    clear_call_site_cache()
    entry = categorize_call_site("pytorch", "hub_load")
    assert entry.method == "dynamic"


def test_categorize_call_site_unknown_names_raise():
    with pytest.raises(ReproError):
        categorize_call_site("no-such-framework", "imread")
    with pytest.raises(ReproError):
        categorize_call_site("opencv", "no_such_api")
