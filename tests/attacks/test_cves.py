"""The CVE registry (Table 5)."""

import pytest

from repro.attacks.cves import (
    ALL_CVES,
    CASE_STUDY_CVES,
    TABLE5_CVES,
    VulnType,
    cves_for_api,
    cves_for_sample,
    get,
)
from repro.core.apitypes import APIType


def test_table5_has_sixteen_rows():
    assert len(TABLE5_CVES) == 16


def test_table5_vuln_type_counts():
    counts = {}
    for record in TABLE5_CVES:
        counts[record.vuln_type] = counts.get(record.vuln_type, 0) + 1
    # Table 5: 4 memory-write, 3 RCE, 9 DoS rows.
    assert counts[VulnType.MEM_WRITE] == 4
    assert counts[VulnType.RCE] == 3
    assert counts[VulnType.DOS] == 9


def test_table5_api_types_match_paper():
    expectations = {
        "CVE-2017-12597": APIType.LOADING,
        "CVE-2017-17760": APIType.LOADING,
        "CVE-2019-5063": APIType.PROCESSING,
        "CVE-2017-14136": APIType.LOADING,
        "CVE-2019-14491": APIType.PROCESSING,
        "CVE-2021-29513": APIType.PROCESSING,
        "CVE-2021-41198": APIType.PROCESSING,
    }
    for cve_id, api_type in expectations.items():
        assert get(cve_id).api_type is api_type


def test_sample_lists_match_paper():
    assert get("CVE-2017-12597").samples == (1, 9, 10, 12)
    assert get("CVE-2017-17760").samples == (1, 7, 10, 12)
    assert get("CVE-2019-5063").samples == (1, 9, 10)
    assert get("CVE-2017-14136").samples == (1, 7, 9, 10, 12)
    assert get("CVE-2021-29513").samples == (21, 23)
    assert get("CVE-2021-29618").samples == (23,)
    assert get("CVE-2021-37661").samples == (21, 22, 23)
    assert get("CVE-2021-41198").samples == (20, 22)


def test_tensorflow_cves_on_tensorflow_apis():
    for record in TABLE5_CVES:
        if record.cve_id.startswith("CVE-2021-"):
            assert record.framework == "tensorflow"
        else:
            assert record.framework == "opencv"


def test_case_study_cves_present():
    ids = {record.cve_id for record in CASE_STUDY_CVES}
    assert "CVE-2020-10378" in ids       # MComix3 info leak
    assert "VULN-IMSHOW-DOS" in ids      # motivating example
    assert "STEGONET-TROJAN" in ids      # A.7


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("CVE-0000-0000")


def test_cves_for_sample():
    sample1 = {record.cve_id for record in cves_for_sample(1)}
    assert "CVE-2017-12597" in sample1
    assert "CVE-2019-5063" in sample1
    assert "CVE-2021-29513" not in sample1


def test_cves_for_api():
    imread = cves_for_api("opencv", "imread")
    assert len(imread) >= 5
    assert all(record.api_type is APIType.LOADING for record in imread)


def test_every_sample_reference_is_a_real_sample():
    from repro.apps.suite import SAMPLE_IDS

    for record in ALL_CVES:
        for sample in record.samples:
            assert sample in SAMPLE_IDS, (record.cve_id, sample)
