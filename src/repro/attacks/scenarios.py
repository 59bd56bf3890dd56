"""Attack scenarios: delivering exploits against protected applications.

Implements the evaluation's attack harness (Section 5.3 and the
motivating example of Section 3): build an application, protect it with a
technique (FreePart, a baseline, or nothing), run it on a benign workload
to establish state, then deliver a crafted input through a vulnerable
framework API — either by planting a malicious file the app's own loader
reads, or by invoking the vulnerable API directly with the crafted input
(the threat model's "attacker invokes a framework API with a maliciously
crafted input").

The verdict compares *attacker goals* against observable state: did the
critical variable change, did the host program die, did data leave the
machine, was code rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.base import Application, Workload, execute_app
from repro.apps.suite import make_app, used_api_objects
from repro.attacks.cves import CveRecord, VulnType, get as get_cve
from repro.attacks.exploits import (
    CodeRewriteExploit,
    DosExploit,
    ExfiltrationExploit,
    Exploit,
    ExploitOutcome,
    MemoryCorruptionExploit,
)
from repro.attacks.payloads import CraftedInput, benign_image
from repro.baselines import TECHNIQUES
from repro.core.gateway import ApiGateway, NativeGateway
from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import FrameworkCrash, ProcessCrashed, ReproError
from repro.frameworks.registry import get_api
from repro.sim.kernel import SimKernel

ATTACKER_SERVER = "attacker.example"


def build_gateway(
    technique: str,
    kernel: SimKernel,
    app: Optional[Application] = None,
    config: Optional[FreePartConfig] = None,
    extra_apis: tuple = (),
) -> ApiGateway:
    """Instantiate one protection technique over a kernel.

    ``extra_apis`` extends the analyzed API set beyond what the app's own
    schedule uses — an attack scenario needs the CVE-carrying API hooked
    even when the host program never calls it itself (the threat model's
    attacker-invoked API).
    """
    if technique == "freepart":
        if config is None:
            annotations = tuple(app.annotations) if app is not None else ()
            config = FreePartConfig(annotations=annotations)
        freepart = FreePart(kernel=kernel, config=config)
        used = used_api_objects(app) if app is not None else None
        if used is not None and extra_apis:
            present = {api.spec.qualname for api in used}
            used = list(used) + [
                api for api in extra_apis if api.spec.qualname not in present
            ]
        return freepart.deploy(used_apis=used)
    try:
        factory = TECHNIQUES[technique]
    except KeyError:
        raise ReproError(f"unknown technique {technique!r}") from None
    return factory(kernel)


@dataclass
class AttackResult:
    """Verdict of one delivered attack."""

    cve_id: str
    technique: str
    app_name: str
    vuln_type: VulnType
    delivered: bool
    outcomes: List[ExploitOutcome] = field(default_factory=list)
    data_corrupted: bool = False
    data_exfiltrated: bool = False
    host_crashed: bool = False
    code_rewritten: bool = False
    agent_crashes: int = 0
    blocked_by: Tuple[str, ...] = ()

    @property
    def prevented(self) -> bool:
        """Did the protection stop the attacker's goal?"""
        if not self.delivered:
            return False  # the experiment never armed; don't claim credit
        goals = {
            VulnType.MEM_WRITE: self.data_corrupted,
            VulnType.DOS: self.host_crashed,
            VulnType.RCE: self.code_rewritten,
            VulnType.INFO_LEAK: self.data_exfiltrated,
        }
        return not goals[self.vuln_type]


def exploit_for(record: CveRecord, target_tag: str = "template.QBlocks.orig") -> Exploit:
    """The payload effect matching a CVE's vulnerability class."""
    if record.vuln_type is VulnType.MEM_WRITE:
        return MemoryCorruptionExploit(target_tag, new_value="corrupted")
    if record.vuln_type is VulnType.DOS:
        return DosExploit()
    if record.vuln_type is VulnType.RCE:
        return CodeRewriteExploit()
    if record.vuln_type is VulnType.INFO_LEAK:
        return ExfiltrationExploit(target_tag, destination=ATTACKER_SERVER)
    raise ReproError(f"no exploit template for {record.vuln_type}")


def _direct_call_args(
    gateway: ApiGateway, record: CveRecord, crafted: CraftedInput, app: Application
) -> tuple:
    """Arguments for invoking the vulnerable API directly."""
    name = record.api_name
    if name in ("imread", "Image_open", "cvLoad", "imreadmulti"):
        path = f"/attack/{record.cve_id}.png"
        gateway.kernel.fs.write_file(path, crafted)
        return (path,)
    if name == "imshow":
        return (f"{app.spec.name}-window", crafted)
    if name == "CascadeClassifier_detectMultiScale":
        classifier = gateway.call("opencv", "CascadeClassifier")
        return (classifier, crafted)
    return (crafted,)


def run_attack(
    cve_id: str,
    technique: str = "freepart",
    sample_id: Optional[int] = None,
    workload: Optional[Workload] = None,
    config: Optional[FreePartConfig] = None,
    target_tag: str = "template.QBlocks.orig",
    app: Optional[Application] = None,
    kernel: Optional[SimKernel] = None,
) -> AttackResult:
    """Deliver one CVE's exploit against one protected application.

    ``kernel`` lets callers supply a pre-built machine (the trace CLI
    passes one so the attack's span tracer outlives the run); by default
    each attack gets a fresh kernel.
    """
    record = get_cve(cve_id)
    if sample_id is None:
        sample_id = record.samples[0] if record.samples else 8
    workload = workload if workload is not None else Workload(items=2, image_size=16)

    if app is None:
        app = make_app(sample_id)
    if kernel is None:
        kernel = SimKernel()
    gateway = build_gateway(
        technique, kernel, app=app, config=config,
        extra_apis=(get_api(record.framework, record.api_name),),
    )
    app.setup(kernel, workload)

    # Phase 1: benign run to establish program state and critical data.
    warmup = execute_app(app, gateway, workload, setup=False)

    # Record the value the attacker wants to change / steal.  When the
    # named variable does not exist in this program, fall back to the
    # app's generic host-resident configuration (every pipeline app
    # defines one) so memory-write/leak attacks always have a live
    # target.
    original: Any = None
    have_target = True
    try:
        original = gateway.host_read(target_tag)
    except KeyError:
        fallback = getattr(type(app), "CONFIG_TAG", "app.config")
        try:
            original = gateway.host_read(fallback)
            target_tag = fallback
        except KeyError:
            have_target = False

    exploit = exploit_for(record, target_tag=target_tag)
    crafted = CraftedInput(cve_id=cve_id, exploit=exploit, cover=benign_image())

    # Phase 2: deliver the crafted input through the vulnerable API.
    delivered_error: Optional[str] = None
    args = _direct_call_args(gateway, record, crafted, app)
    try:
        gateway.call(record.framework, record.api_name, *args)
    except (FrameworkCrash, ProcessCrashed) as exc:
        delivered_error = str(exc)

    result = AttackResult(
        cve_id=cve_id,
        technique=technique,
        app_name=app.spec.name,
        vuln_type=record.vuln_type,
        delivered=crafted.fired,
        outcomes=list(crafted.outcomes),
    )
    result.blocked_by = tuple(
        o.blocked_by for o in crafted.outcomes if o.blocked_by
    )
    result.host_crashed = not gateway.host.alive
    result.agent_crashes = getattr(gateway, "total_crashes", lambda: 0)()
    if isinstance(gateway, NativeGateway):
        result.agent_crashes = 0

    if have_target:
        try:
            current = gateway.host_read(target_tag)
            result.data_corrupted = _differs(original, current)
        except Exception:
            # Unreadable target (its process crashed): not corrupted.
            result.data_corrupted = False
    else:
        # Fall back to the exploit's own report.
        result.data_corrupted = any(
            o.succeeded and o.kind == "memory_corruption"
            for o in crafted.outcomes
        )
    result.data_exfiltrated = bool(
        kernel.devices.network.outbound_to(ATTACKER_SERVER)
    )
    result.code_rewritten = any(
        getattr(p, "code_compromised", False) for p in kernel.processes()
    )
    del warmup, delivered_error
    return result


def _differs(original: Any, current: Any) -> bool:
    import numpy as np

    if isinstance(original, np.ndarray) or isinstance(current, np.ndarray):
        try:
            return not np.array_equal(np.asarray(original), np.asarray(current))
        except Exception:
            return True
    return original != current


def run_table5_attacks(
    technique: str = "freepart",
    workload: Optional[Workload] = None,
) -> List[AttackResult]:
    """Every Table 5 CVE against its first affected sample."""
    from repro.attacks.cves import TABLE5_CVES

    return [
        run_attack(record.cve_id, technique=technique, workload=workload)
        for record in TABLE5_CVES
    ]


# ----------------------------------------------------------------------
# The motivating example (Section 3 / Table 1)
# ----------------------------------------------------------------------

#: The four attacks of Fig. 1 / Table 8, as (label, builder) pairs.
MOTIVATING_ATTACKS = (
    ("mem-write-template", "CVE-2017-12597", VulnType.MEM_WRITE,
     "template.QBlocks.orig"),
    ("mem-write-omrcrop", "CVE-2017-12604", VulnType.MEM_WRITE, "OMRCrop"),
    ("code-rewrite", "CVE-2017-17760", VulnType.RCE, "template.QBlocks.orig"),
    ("dos-imread", "CVE-2017-14136", VulnType.DOS, "template.QBlocks.orig"),
    ("dos-imshow", "VULN-IMSHOW-DOS", VulnType.DOS, "template.QBlocks.orig"),
)


@dataclass
class MotivatingVerdict:
    """Per-technique outcome on the motivating example (a Table 1 row)."""

    technique: str
    attacks: Dict[str, AttackResult] = field(default_factory=dict)

    def prevented(self, label: str) -> bool:
        return self.attacks[label].prevented


def run_motivating_example(technique: str) -> MotivatingVerdict:
    """Run all five motivating-example attacks under one technique."""
    verdict = MotivatingVerdict(technique=technique)
    for label, cve_id, _vuln, target in MOTIVATING_ATTACKS:
        verdict.attacks[label] = run_attack(
            cve_id, technique=technique, sample_id=8, target_tag=target,
        )
    return verdict
