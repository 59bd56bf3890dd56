"""The two design studies (Section 4.1) and coverage (Table 11)."""

import pytest

from repro.analysis import (
    CORPUS_SIZE,
    FRAMEWORK_TOTALS,
    all_follow_pipeline,
    apps_use_only_covered_apis,
    build_cve_corpus,
    build_usage_corpus,
    counts_by_api_type,
    figure7_counts,
    follows_pipeline,
    framework_totals,
    major_framework_coverage,
    table3,
    table3_totals,
)
from repro.attacks.cves import VulnType
from repro.core.apitypes import APIType
from repro.frameworks.registry import get_framework


@pytest.fixture(scope="module")
def cve_corpus():
    return build_cve_corpus()


@pytest.fixture(scope="module")
def usage_corpus():
    return build_usage_corpus()


class TestStudy2Cves:
    def test_241_cves(self, cve_corpus):
        assert len(cve_corpus) == 241

    def test_framework_totals_match_paper(self, cve_corpus):
        assert framework_totals(cve_corpus) == {
            "tensorflow": 172, "pillow": 44, "opencv": 22, "numpy": 3,
        }
        assert FRAMEWORK_TOTALS == framework_totals(cve_corpus)

    def test_fig7_headline_bars(self, cve_corpus):
        counts = figure7_counts(cve_corpus)
        assert counts[(APIType.LOADING, VulnType.DOS)] == 59
        assert counts[(APIType.PROCESSING, VulnType.DOS)] == 54
        assert counts[(APIType.LOADING, VulnType.INFO_LEAK)] == 11
        assert counts[(APIType.STORING, VulnType.DOS)] == 3

    def test_loading_and_processing_dominate(self, cve_corpus):
        by_type = counts_by_api_type(cve_corpus)
        minority = by_type[APIType.STORING] + by_type[APIType.VISUALIZING]
        majority = by_type[APIType.LOADING] + by_type[APIType.PROCESSING]
        assert majority > 20 * minority

    def test_vulnerabilities_in_every_api_type(self, cve_corpus):
        by_type = counts_by_api_type(cve_corpus)
        for api_type in (APIType.LOADING, APIType.PROCESSING,
                         APIType.VISUALIZING, APIType.STORING):
            assert by_type[api_type] > 0

    def test_utility_cves_marked(self, cve_corpus):
        utility = [c for c in cve_corpus if c.utility]
        assert {c.cve_id for c in utility} == {
            "CVE-2019-16249", "CVE-2019-15939",
        }

    def test_years_in_study_window(self, cve_corpus):
        assert all(2018 <= c.year <= 2022 for c in cve_corpus)

    def test_corpus_is_deterministic(self, cve_corpus):
        assert build_cve_corpus() == cve_corpus


class TestStudy1Usage:
    def test_56_apps(self, usage_corpus):
        assert len(usage_corpus) == CORPUS_SIZE == 56

    def test_all_follow_pipeline(self, usage_corpus):
        assert all_follow_pipeline(usage_corpus)

    def test_pipeline_checker(self):
        assert follows_pipeline(("loading", "processing", "storing"))
        assert follows_pipeline(
            ("loading", "processing", "loading", "processing", "visualizing")
        )
        # loops back to loading are allowed; any other backward step isn't
        assert follows_pipeline(("processing", "loading", "processing"))
        assert not follows_pipeline(("storing", "processing"))
        assert not follows_pipeline(("loading", "storing", "processing"))
        assert not follows_pipeline(("loading", "unknown"))

    def test_table3_cells_match_paper(self, usage_corpus):
        cells = table3(usage_corpus)
        expectations = {
            ("opencv", APIType.LOADING): (0.6, 1, 1),
            ("opencv", APIType.PROCESSING): (0.2, 1, 1),
            ("tensorflow", APIType.LOADING): (0.3, 2, 2),
            ("tensorflow", APIType.PROCESSING): (2.3, 12, 24),
            ("pillow", APIType.LOADING): (0.4, 2, 2),
            ("pillow", APIType.VISUALIZING): (0.5, 1, 1),
            ("numpy", APIType.LOADING): (0.1, 1, 1),
            ("numpy", APIType.PROCESSING): (0.4, 1, 1),
        }
        for key, (avg, maximum, total) in expectations.items():
            cell = cells[key]
            assert cell.average == pytest.approx(avg, abs=0.05), key
            assert cell.maximum == maximum, key
            assert cell.total_distinct == total, key

    def test_table3_zero_cells(self, usage_corpus):
        cells = table3(usage_corpus)
        for framework in ("opencv", "tensorflow", "pillow", "numpy"):
            assert cells[(framework, APIType.STORING)].total_distinct == 0

    def test_table3_totals_row(self, usage_corpus):
        totals = table3_totals(usage_corpus)
        assert totals[APIType.LOADING].average == pytest.approx(1.4, abs=0.05)
        assert totals[APIType.LOADING].maximum == 5
        assert totals[APIType.LOADING].total_distinct == 6
        assert totals[APIType.PROCESSING].average == pytest.approx(2.9, abs=0.05)
        assert totals[APIType.PROCESSING].maximum == 14
        assert totals[APIType.PROCESSING].total_distinct == 26


class TestCoverage:
    def test_table11_shape(self):
        reports = major_framework_coverage()
        assert set(reports) == {"opencv", "pytorch", "tensorflow", "caffe"}
        # Paper: 73%-92% API coverage; ours sits in a comparable band.
        for report in reports.values():
            assert 0.7 <= report.api_coverage <= 1.0

    def test_opencv_has_uncovered_tail(self):
        names = [
            api.spec.qualname for api in get_framework("opencv")
            if not api.spec.has_test_case
        ]
        assert len(names) >= 15
        assert "cv2.grabCut" in names

    def test_footnote_apps_use_only_covered_apis(self):
        ok, offenders = apps_use_only_covered_apis()
        assert ok, offenders
