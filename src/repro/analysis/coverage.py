"""Dynamic-analysis coverage measurement (Table 11).

Wraps :func:`repro.core.dynamic_analysis.coverage_report` over the four
major frameworks and verifies the paper's footnote — every API an
evaluated application uses is covered by the dynamic analysis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.dynamic_analysis import CoverageReport, coverage_report
from repro.frameworks.registry import MAJOR_FRAMEWORKS, get_framework


def major_framework_coverage() -> Dict[str, CoverageReport]:
    """Table 11: API / code coverage per major framework."""
    return {
        name: coverage_report(get_framework(name))
        for name in MAJOR_FRAMEWORKS
    }


def apps_use_only_covered_apis() -> Tuple[bool, List[str]]:
    """The footnote check: no evaluated program touches an uncovered API."""
    from repro.apps.suite import SAMPLE_IDS, make_app

    offenders: List[str] = []
    for sample_id in SAMPLE_IDS:
        app = make_app(sample_id)
        for site in app.schedule:
            framework = get_framework(site.framework)
            api = framework.get(site.api)
            if not api.spec.has_test_case:
                offenders.append(f"{app.spec.name}: {api.spec.qualname}")
    return (not offenders, offenders)
