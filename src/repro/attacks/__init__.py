"""Attack layer: CVE registry, exploits, crafted inputs, scenarios."""

from repro.attacks.cves import ALL_CVES, CVE_INDEX, CveRecord, TABLE5_CVES, VulnType
from repro.attacks.exploits import (
    CodeRewriteExploit,
    DosExploit,
    ExfiltrationExploit,
    Exploit,
    ExploitOutcome,
    ForkBombExploit,
    MemoryCorruptionExploit,
)
from repro.attacks.payloads import CraftedInput, benign_image

__all__ = [
    "ALL_CVES",
    "CVE_INDEX",
    "CodeRewriteExploit",
    "CraftedInput",
    "CveRecord",
    "DosExploit",
    "ExfiltrationExploit",
    "Exploit",
    "ExploitOutcome",
    "ForkBombExploit",
    "MemoryCorruptionExploit",
    "TABLE5_CVES",
    "VulnType",
    "benign_image",
]
