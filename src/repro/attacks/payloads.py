"""Crafted inputs: how exploits travel into vulnerable APIs.

A :class:`CraftedInput` is the malicious image/model/record an attacker
submits (Fig. 1: the malicious student's OMR sheet).  It carries a benign
*cover* payload — so every non-vulnerable API processes it like a normal
input — plus the exploit that fires when a vulnerable API (matching the
``cve_id``) touches it.

The execution context's ``guard`` hook (``repro.frameworks.base``) is the
interception point: it fires the exploit *in the process the API runs
in* and hands the cover payload to the rest of the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.attacks.cves import get as get_cve
from repro.attacks.exploits import Exploit, ExploitOutcome
from repro.frameworks.base import ExecutionContext
from repro.sim.memory import payload_nbytes


@dataclass
class CraftedInput:
    """A malicious input targeting one CVE."""

    cve_id: str
    exploit: Exploit
    cover: Any = None
    outcomes: list = field(default_factory=list)

    def trigger(self, ctx: ExecutionContext) -> ExploitOutcome:
        before = len(ctx.kernel.security_events)
        try:
            outcome = self.exploit.fire(ctx, self.cve_id)
        except BaseException:
            # The payload crashed its process; the recorded outcome (with
            # what blocked it) is still the verdict we report.
            self.outcomes.extend(ctx.kernel.security_events[before:])
            raise
        self.outcomes.extend(ctx.kernel.security_events[before:])
        if outcome not in self.outcomes:
            self.outcomes.append(outcome)
        return outcome

    @property
    def nbytes(self) -> int:
        return payload_nbytes(self.cover) + 64

    @property
    def fired(self) -> bool:
        return bool(self.outcomes)

    @property
    def last_outcome(self) -> Optional[ExploitOutcome]:
        return self.outcomes[-1] if self.outcomes else None


def benign_image(seed: int = 99, size: int = 24) -> np.ndarray:
    """A deterministic cover image."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(size, size, 3)).astype(np.float64)


def crafted_image(cve_id: str, exploit: Exploit, seed: int = 99,
                  size: int = 24) -> CraftedInput:
    """A malicious image file payload for an image-decoding CVE."""
    get_cve(cve_id)  # validate the id
    return CraftedInput(cve_id=cve_id, exploit=exploit,
                        cover=benign_image(seed=seed, size=size))
