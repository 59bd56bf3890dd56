"""Design studies and measurement utilities (Section 4.1, Table 11)."""

from repro.analysis.coverage import (
    apps_use_only_covered_apis,
    major_framework_coverage,
)
from repro.analysis.study_cves import (
    FRAMEWORK_TOTALS,
    StudyCve,
    build_corpus as build_cve_corpus,
    counts_by_api_type,
    figure7_counts,
    framework_totals,
)
from repro.analysis.study_usage import (
    CORPUS_SIZE,
    StudyApp,
    all_follow_pipeline,
    build_corpus as build_usage_corpus,
    follows_pipeline,
    table3,
    table3_totals,
)

__all__ = [
    "CORPUS_SIZE",
    "FRAMEWORK_TOTALS",
    "StudyApp",
    "StudyCve",
    "all_follow_pipeline",
    "apps_use_only_covered_apis",
    "build_cve_corpus",
    "build_usage_corpus",
    "counts_by_api_type",
    "figure7_counts",
    "follows_pipeline",
    "framework_totals",
    "major_framework_coverage",
    "table3",
    "table3_totals",
]
