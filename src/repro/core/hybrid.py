"""Hybrid API categorization (Section 4.2): static first, dynamic fallback.

The driver runs the static analyzer over every API; wherever the static
walk is incomplete (indirect calls) or inconclusive, the dynamic tracer
resolves the category.  The result also carries each API's syscall
profile (declared steady-state + init-only syscalls, verified against the
dynamic trace) — the input to the syscall-restriction policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.apitypes import APIType
from repro.core.dynamic_analysis import DynamicAnalyzer, DynamicResult
from repro.core.static_analysis import StaticAnalyzer, StaticResult
from repro.errors import UncategorizableAPI
from repro.frameworks.base import FrameworkAPI, StatefulKind


@dataclass(frozen=True)
class CategorizedAPI:
    """One API's hybrid-analysis verdict."""

    qualname: str
    framework: str
    name: str
    api_type: APIType
    method: str  # "static" | "dynamic"
    neutral: bool
    stateful: StatefulKind
    syscalls: Tuple[str, ...]
    init_syscalls: Tuple[str, ...]
    covered: bool
    matches_ground_truth: bool


@dataclass
class Categorization:
    """The full categorization of a set of APIs."""

    entries: Dict[str, CategorizedAPI] = field(default_factory=dict)

    def add(self, entry: CategorizedAPI) -> None:
        self.entries[entry.qualname] = entry

    def get(self, qualname: str) -> CategorizedAPI:
        try:
            return self.entries[qualname]
        except KeyError:
            raise UncategorizableAPI(
                f"{qualname} was not part of the analyzed API set"
            ) from None

    def __contains__(self, qualname: str) -> bool:
        return qualname in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def of_type(self, api_type: APIType, include_neutral: bool = False) -> List[CategorizedAPI]:
        return [
            e for e in self.entries.values()
            if e.api_type is api_type and (include_neutral or not e.neutral)
        ]

    def neutrals(self) -> List[CategorizedAPI]:
        return [e for e in self.entries.values() if e.neutral]

    def counts_by_type(self) -> Dict[APIType, int]:
        counts = {t: 0 for t in APIType}
        for entry in self.entries.values():
            counts[entry.api_type] += 1
        return counts

    def accuracy(self) -> float:
        """Fraction of APIs whose verdict matches the spec ground truth."""
        if not self.entries:
            return 1.0
        good = sum(1 for e in self.entries.values() if e.matches_ground_truth)
        return good / len(self.entries)


class HybridAnalyzer:
    """Static-then-dynamic categorizer (Fig. 5, offline phase)."""

    def __init__(self, dynamic: Optional[DynamicAnalyzer] = None) -> None:
        self.static = StaticAnalyzer()
        self.dynamic = dynamic if dynamic is not None else DynamicAnalyzer()

    def categorize_api(self, api: FrameworkAPI) -> CategorizedAPI:
        spec = api.spec
        static_result = self.static.analyze(spec)
        method = "static"
        category = static_result.category
        dynamic_result: Optional[DynamicResult] = None
        if static_result.needs_dynamic:
            dynamic_result = self.dynamic.analyze(api)
            if dynamic_result.covered and dynamic_result.category is not None:
                category = dynamic_result.category
                method = "dynamic"
        if category is None:
            raise UncategorizableAPI(
                f"{spec.qualname}: static walk "
                f"{'incomplete' if not static_result.complete else 'inconclusive'}"
                " and no dynamic test case resolves it"
            )
        return CategorizedAPI(
            qualname=spec.qualname,
            framework=spec.framework,
            name=spec.name,
            api_type=category,
            method=method,
            neutral=spec.neutral,
            stateful=spec.stateful,
            syscalls=spec.syscalls,
            init_syscalls=spec.init_syscalls,
            covered=spec.has_test_case,
            matches_ground_truth=category is spec.ground_truth,
        )

    def categorize(self, apis: Iterable[FrameworkAPI]) -> Categorization:
        result = Categorization()
        for api in apis:
            result.add(self.categorize_api(api))
        return result

    def categorize_framework(self, framework) -> Categorization:
        return self.categorize(list(framework))


# ----------------------------------------------------------------------
# External call sites (the static partition linter's entry point)
# ----------------------------------------------------------------------

#: Per-API verdict cache keyed by framework name.  Each entry remembers
#: the Framework object it was built against so re-registering a
#: framework under the same name invalidates its stale verdicts.
_CALL_SITE_CACHE: Dict[str, Tuple[object, Dict[str, CategorizedAPI]]] = {}

#: One analyzer shared by every cached call-site lookup (the dynamic
#: tracer's scratch kernels are per-call, so sharing is safe).
_CALL_SITE_ANALYZER: Optional[HybridAnalyzer] = None


def categorize_call_site(framework_name: str, api_name: str) -> CategorizedAPI:
    """Hybrid verdict for one *external* call site ``framework.api``.

    Host-program analyses (``repro.staticcheck``) resolve the call sites
    they find in user source through this function instead of
    re-categorizing whole frameworks per site.  Verdicts are cached
    per API; the cache self-invalidates when a framework is re-registered
    under the same name.

    Raises :class:`~repro.errors.ReproError` for an unknown framework or
    API name and :class:`~repro.errors.UncategorizableAPI` when neither
    analysis phase can type the API.
    """
    global _CALL_SITE_ANALYZER
    from repro.frameworks.registry import get_framework

    framework = get_framework(framework_name)
    api = framework.get(api_name)
    cached = _CALL_SITE_CACHE.get(framework_name)
    if cached is None or cached[0] is not framework:
        cached = (framework, {})
        _CALL_SITE_CACHE[framework_name] = cached
    verdicts = cached[1]
    entry = verdicts.get(api.spec.qualname)
    if entry is None:
        if _CALL_SITE_ANALYZER is None:
            _CALL_SITE_ANALYZER = HybridAnalyzer()
        entry = _CALL_SITE_ANALYZER.categorize_api(api)
        verdicts[api.spec.qualname] = entry
    return entry


def clear_call_site_cache() -> None:
    """Drop every cached call-site verdict (tests re-register frameworks)."""
    _CALL_SITE_CACHE.clear()
