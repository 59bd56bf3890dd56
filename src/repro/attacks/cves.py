"""The CVE registry used by the evaluation (Table 5 + case studies).

Each record binds a real CVE id to the mini-framework API that carries it
in this reproduction, the vulnerability class, the API type the
vulnerable function belongs to (hence which agent process confines it),
and the evaluation sample ids (Table 6 numbering) affected by it.

The registry is pure data: the frameworks' spec builder
(``repro.frameworks._oplib.declare``) attaches each API's records as it
declares the API, and the attack scenarios construct exploits from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.apitypes import APIType


class VulnType(enum.Enum):
    """Vulnerability classes of Table 5 (+ info leak from Section 5.4.2)."""

    MEM_WRITE = "unauthorized_memory_write"
    RCE = "remote_code_execution"
    DOS = "denial_of_service"
    INFO_LEAK = "unauthorized_memory_read"


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability used in the evaluation."""

    cve_id: str
    framework: str
    api_name: str
    vuln_type: VulnType
    api_type: APIType
    samples: Tuple[int, ...] = ()
    year: int = 0
    note: str = ""


# Table 5, row by row.  API assignments follow the historical record where
# the paper names the function (imread for the 2017 OpenCV image-decoder
# CVEs, imshow for the motivating example's DoS) and otherwise pick a
# data-processing API that every affected sample exercises.
TABLE5_CVES: Tuple[CveRecord, ...] = (
    # Unauthorized memory write (data loading).
    CveRecord("CVE-2017-12604", "opencv", "imread", VulnType.MEM_WRITE,
              APIType.LOADING, samples=(1, 9, 10, 12), year=2017),
    CveRecord("CVE-2017-12605", "opencv", "imread", VulnType.MEM_WRITE,
              APIType.LOADING, samples=(1, 9, 10, 12), year=2017),
    CveRecord("CVE-2017-12606", "opencv", "imread", VulnType.MEM_WRITE,
              APIType.LOADING, samples=(1, 9, 10, 12), year=2017,
              note="also used for the drone configuration-corruption case"),
    CveRecord("CVE-2017-12597", "opencv", "imread", VulnType.MEM_WRITE,
              APIType.LOADING, samples=(1, 9, 10, 12), year=2017,
              note="the motivating example's out-of-bounds write"),
    # Remote code execution.
    CveRecord("CVE-2017-17760", "opencv", "imread", VulnType.RCE,
              APIType.LOADING, samples=(1, 7, 10, 12), year=2017),
    CveRecord("CVE-2019-5063", "opencv", "CascadeClassifier_detectMultiScale",
              VulnType.RCE, APIType.PROCESSING, samples=(1, 9, 10), year=2019),
    CveRecord("CVE-2019-5064", "opencv", "resize", VulnType.RCE,
              APIType.PROCESSING, samples=(1, 9, 10), year=2019),
    # Denial of service.
    CveRecord("CVE-2017-14136", "opencv", "imread", VulnType.DOS,
              APIType.LOADING, samples=(1, 7, 9, 10, 12), year=2017,
              note="also used for the drone DoS case study"),
    CveRecord("CVE-2018-5269", "opencv", "imread", VulnType.DOS,
              APIType.LOADING, samples=(1, 7, 9, 10, 12), year=2018),
    CveRecord("CVE-2019-14491", "opencv", "CascadeClassifier_detectMultiScale",
              VulnType.DOS, APIType.PROCESSING, samples=(1, 9, 10), year=2019,
              note="also used for the drone DoS case study"),
    CveRecord("CVE-2019-14492", "opencv", "GaussianBlur", VulnType.DOS,
              APIType.PROCESSING, samples=(1, 9, 10), year=2019),
    CveRecord("CVE-2019-14493", "opencv", "erode", VulnType.DOS,
              APIType.PROCESSING, samples=(1, 9, 10), year=2019),
    CveRecord("CVE-2021-29513", "tensorflow", "convert_to_tensor", VulnType.DOS,
              APIType.PROCESSING, samples=(21, 23), year=2021),
    CveRecord("CVE-2021-29618", "tensorflow", "transpose", VulnType.DOS,
              APIType.PROCESSING, samples=(23,), year=2021),
    CveRecord("CVE-2021-37661", "tensorflow", "cast", VulnType.DOS,
              APIType.PROCESSING, samples=(21, 22, 23), year=2021),
    CveRecord("CVE-2021-41198", "tensorflow", "tile", VulnType.DOS,
              APIType.PROCESSING, samples=(20, 22), year=2021),
)

# Case-study vulnerabilities (Sections 3, 5.4.2, A.7).
CASE_STUDY_CVES: Tuple[CveRecord, ...] = (
    CveRecord("CVE-2020-10378", "pillow", "Image_open", VulnType.INFO_LEAK,
              APIType.LOADING, samples=(), year=2020,
              note="MComix3 recent-file-names information leak"),
    CveRecord("VULN-IMSHOW-DOS", "opencv", "imshow", VulnType.DOS,
              APIType.VISUALIZING, samples=(8,), year=2017,
              note="the motivating example's imshow() crash (Fig. 1)"),
    CveRecord("STEGONET-TROJAN", "pytorch", "load", VulnType.RCE,
              APIType.LOADING, samples=(), year=2020,
              note="StegoNet: payload smuggled in model parameters (A.7); "
                   "detonates when the model is deserialized"),
)

ALL_CVES: Tuple[CveRecord, ...] = TABLE5_CVES + CASE_STUDY_CVES

CVE_INDEX: Dict[str, CveRecord] = {record.cve_id: record for record in ALL_CVES}


def get(cve_id: str) -> CveRecord:
    """Look up a CVE record by id (KeyError if unknown)."""
    try:
        return CVE_INDEX[cve_id]
    except KeyError:
        raise KeyError(f"unknown CVE {cve_id!r}") from None


def cves_for_sample(sample_id: int) -> List[CveRecord]:
    """All CVEs whose vulnerable API is used by evaluation sample ``n``."""
    return [record for record in ALL_CVES if sample_id in record.samples]


def cves_for_api(framework: str, api_name: str) -> List[CveRecord]:
    """All CVEs carried by one framework API."""
    return [
        record
        for record in ALL_CVES
        if record.framework == framework and record.api_name == api_name
    ]

