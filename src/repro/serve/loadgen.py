"""Seeded open-loop traffic: load profiles, tenant populations, drivers.

Real traffic does not wait for the server — requests arrive on the
clients' schedule, pile up when the service slows, and follow heavy
tails in both *who* sends them and *how big* they are.  This module
generates that traffic deterministically and replays it against the
serving layer in virtual time:

* :class:`LoadProfile` — a rate curve over the run: ``diurnal`` (a
  raised-cosine day), ``burst`` (periodic storm windows at a multiple of
  the base rate), ``flash`` (a flash crowd: instant onset, exponential
  decay);
* :class:`TenantPopulation` — Zipf-weighted tenant popularity (a few
  tenants are most of the traffic) with priority classes derived from
  rank: the head of the popularity curve is ``gold`` (priority 0), then
  ``silver`` (1), the long tail ``bronze`` (2);
* :func:`generate_schedule` — tick-based Poisson thinning of the rate
  curve into an :class:`ArrivalSchedule`: a sorted, sha256-digestable
  list of :class:`Arrival`\\ s.  Same seed + profile ⇒ byte-identical
  schedule;
* :func:`run_open_loop` — drive a
  :class:`~repro.serve.server.PipelineServer` or
  :class:`~repro.cluster.serve.ClusterServer` open-loop: the virtual
  clocks jump to the next arrival when idle, due arrivals are admitted
  (or rejected/shed — the *client* remembers, even when the server never
  saw the request), and one request is dispatched per step.

Slow clients are modelled as payload inflation: a slow arrival carries a
``slow_multiplier``-times larger image, so its service time grows through
the same serialize/IPC cost model as everything else — no special-cased
sleep.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AdmissionRejected, BrownoutShed
from repro.obs.slo import RequestEvent
from repro.sim.clock import NS_PER_SEC

__all__ = [
    "PROFILE_NAMES",
    "LoadProfile",
    "TenantPopulation",
    "Arrival",
    "ArrivalSchedule",
    "generate_schedule",
    "profile_by_name",
    "LoadgenResult",
    "arrival_paths",
    "run_open_loop",
    "run_open_loop_cluster",
]

PROFILE_NAMES = ("diurnal", "burst", "flash")

#: Priority classes, by Zipf rank: the head of the popularity curve pays
#: for the service, the tail rides along.
GOLD, SILVER, BRONZE = 0, 1, 2
PRIORITY_NAMES = {GOLD: "gold", SILVER: "silver", BRONZE: "bronze"}


@dataclass(frozen=True)
class LoadProfile:
    """A named arrival-rate curve: ``rate_at(t)`` in requests/second.

    All three shapes multiply ``base_rps``:

    ``diurnal``
        ``trough + (peak - trough) * (1 - cos(2*pi*t/period)) / 2`` —
        starts at the trough, peaks mid-period.
    ``burst``
        1.0 except inside storm windows (every ``storm_every_ns``, for
        ``storm_ns``), where it is ``storm_multiplier``.
    ``flash``
        1.0 until ``flash_onset_ns``; then
        ``1 + (flash_multiplier - 1) * exp(-(t-onset)/flash_decay_ns)``
        — the flash crowd arrives all at once and loses interest
        exponentially.
    """

    name: str
    base_rps: float
    duration_ns: int
    # diurnal
    diurnal_period_ns: int = 200_000_000
    diurnal_peak: float = 1.4
    diurnal_trough: float = 0.6
    # burst
    storm_every_ns: int = 100_000_000
    storm_ns: int = 25_000_000
    storm_offset_ns: int = 40_000_000
    storm_multiplier: float = 6.0
    # flash
    flash_onset_ns: int = 60_000_000
    flash_multiplier: float = 8.0
    flash_decay_ns: int = 25_000_000

    def __post_init__(self) -> None:
        if self.name not in PROFILE_NAMES:
            raise ValueError(
                f"unknown load profile {self.name!r} "
                f"(expected one of {PROFILE_NAMES})"
            )
        if self.base_rps <= 0:
            raise ValueError(f"base_rps must be > 0, got {self.base_rps}")
        if self.duration_ns <= 0:
            raise ValueError(
                f"duration_ns must be > 0, got {self.duration_ns}"
            )

    def multiplier_at(self, t_ns: int) -> float:
        """The rate multiplier at virtual time ``t_ns``."""
        if self.name == "diurnal":
            phase = (1 - math.cos(
                2 * math.pi * t_ns / self.diurnal_period_ns
            )) / 2
            return self.diurnal_trough + (
                self.diurnal_peak - self.diurnal_trough
            ) * phase
        if self.name == "burst":
            into = (t_ns - self.storm_offset_ns) % self.storm_every_ns
            if t_ns >= self.storm_offset_ns and into < self.storm_ns:
                return self.storm_multiplier
            return 1.0
        # flash
        if t_ns < self.flash_onset_ns:
            return 1.0
        return 1.0 + (self.flash_multiplier - 1.0) * math.exp(
            -(t_ns - self.flash_onset_ns) / self.flash_decay_ns
        )

    def rate_at(self, t_ns: int) -> float:
        """Requests per second at virtual time ``t_ns``."""
        return self.base_rps * self.multiplier_at(t_ns)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base_rps": self.base_rps,
            "duration_ns": self.duration_ns,
        }


def profile_by_name(
    name: str, base_rps: float = 600.0, duration_ns: int = 200_000_000,
    **overrides: Any,
) -> LoadProfile:
    """Build one of the three named profiles with shared defaults."""
    return LoadProfile(
        name=name, base_rps=base_rps, duration_ns=duration_ns, **overrides
    )


class TenantPopulation:
    """Zipf-weighted tenant popularity with rank-derived priority.

    Tenant rank ``r`` (0-based) has weight ``1 / (r + 1) ** alpha``; the
    top ``gold_fraction`` of ranks are priority 0, the next
    ``silver_fraction`` priority 1, the rest priority 2.
    """

    def __init__(
        self,
        tenants: int,
        zipf_alpha: float = 1.1,
        gold_fraction: float = 0.2,
        silver_fraction: float = 0.3,
    ) -> None:
        if tenants < 1:
            raise ValueError(f"population needs >= 1 tenant, got {tenants}")
        self.tenants = tenants
        self.zipf_alpha = zipf_alpha
        weights = [1.0 / (rank + 1) ** zipf_alpha for rank in range(tenants)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cumulative = cumulative
        gold_cut = max(1, math.ceil(gold_fraction * tenants))
        silver_cut = max(
            gold_cut, math.ceil((gold_fraction + silver_fraction) * tenants)
        )
        self._gold_cut = gold_cut
        self._silver_cut = silver_cut

    def draw(self, u: float) -> int:
        """Rank of the tenant at cumulative-probability point ``u``."""
        import bisect

        return min(
            bisect.bisect_left(self._cumulative, u), self.tenants - 1
        )

    def priority(self, rank: int) -> int:
        if rank < self._gold_cut:
            return GOLD
        if rank < self._silver_cut:
            return SILVER
        return BRONZE

    def tenant_id(self, rank: int) -> str:
        return f"tenant-{rank}"


@dataclass(frozen=True, order=True)
class Arrival:
    """One client request on the open-loop schedule."""

    at_ns: int
    tenant: str
    priority: int
    slow: bool
    image_size: int

    def line(self) -> str:
        """Canonical one-line encoding (the digest input)."""
        return (
            f"{self.at_ns} {self.tenant} {self.priority} "
            f"{int(self.slow)} {self.image_size}"
        )


@dataclass
class ArrivalSchedule:
    """A sorted, digestable arrival stream for one (profile, seed)."""

    profile: str
    seed: int
    arrivals: Tuple[Arrival, ...]

    def digest(self) -> str:
        """sha256 over the canonical encoding: the determinism anchor."""
        hasher = hashlib.sha256()
        hasher.update(f"{self.profile}/{self.seed}\n".encode())
        for arrival in self.arrivals:
            hasher.update(arrival.line().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def counts(self) -> Dict[str, Any]:
        by_priority = {name: 0 for name in PRIORITY_NAMES.values()}
        tenants = set()
        slow = 0
        for arrival in self.arrivals:
            by_priority[PRIORITY_NAMES[arrival.priority]] += 1
            tenants.add(arrival.tenant)
            slow += int(arrival.slow)
        return {
            "arrivals": len(self.arrivals),
            "tenants": len(tenants),
            "slow_clients": slow,
            "by_priority": by_priority,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "digest": self.digest(),
            **self.counts(),
        }


def generate_schedule(
    profile: LoadProfile,
    seed: int,
    tenants: int = 20,
    zipf_alpha: float = 1.1,
    slow_fraction: float = 0.05,
    slow_multiplier: int = 4,
    image_size: int = 8,
    tick_ns: int = 1_000_000,
) -> ArrivalSchedule:
    """Thin the rate curve into a concrete arrival schedule.

    Per ``tick_ns`` grid cell, the arrival count is Poisson with mean
    ``rate_at(t) * tick/1s``; each arrival gets a uniform offset inside
    the tick, a Zipf-drawn tenant, and a slow-client Bernoulli draw
    (payload inflated ``slow_multiplier`` x).  Everything comes from one
    ``numpy`` generator seeded with ``seed``, so the schedule is a pure
    function of its arguments.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    population = TenantPopulation(tenants, zipf_alpha=zipf_alpha)
    arrivals: List[Arrival] = []
    t = 0
    while t < profile.duration_ns:
        expected = profile.rate_at(t) * tick_ns / NS_PER_SEC
        count = int(rng.poisson(expected))
        for _ in range(count):
            offset = int(rng.integers(0, tick_ns))
            rank = population.draw(float(rng.random()))
            slow = bool(rng.random() < slow_fraction)
            arrivals.append(Arrival(
                at_ns=t + offset,
                tenant=population.tenant_id(rank),
                priority=population.priority(rank),
                slow=slow,
                image_size=image_size * (slow_multiplier if slow else 1),
            ))
        t += tick_ns
    arrivals.sort()
    return ArrivalSchedule(
        profile=profile.name, seed=seed, arrivals=tuple(arrivals)
    )


# ----------------------------------------------------------------------
# Open-loop drivers
# ----------------------------------------------------------------------


@dataclass
class LoadgenResult:
    """What one open-loop replay of a schedule produced.

    ``client_events`` is the *client's* view: one
    :class:`~repro.obs.slo.RequestEvent` per offered arrival, including
    the ones the server refused (admission rejections and brownout
    sheds are failures at the arrival's own timestamp with zero
    latency).  Goodput is judged on this stream — a shed request is not
    an excuse, it is a miss.
    """

    schedule_digest: str
    offered: int
    admitted: int
    rejected: int
    shed: int
    served_ok: int
    served_failed: int
    client_events: List[RequestEvent] = field(default_factory=list)
    sheds_by_priority: Dict[str, int] = field(default_factory=dict)

    def goodput(self, budget_ns: int) -> float:
        """Fraction of offered arrivals answered ok within ``budget_ns``."""
        if not self.offered:
            return 1.0
        good = sum(
            1 for event in self.client_events
            if event.ok and event.latency_ns <= budget_ns
        )
        return good / self.offered

    def p99_latency_ns(self) -> int:
        from repro.serve.metrics import percentile

        return percentile(
            sorted(e.latency_ns for e in self.client_events if e.ok), 0.99
        )


def _payload(image_size: int):
    import numpy as np

    return np.zeros((image_size, image_size))


def arrival_paths(sequence: int, arrival: Arrival) -> Tuple[str, str]:
    """Input and output paths of the ``sequence``-th arrival (1-based)."""
    return (
        f"/data/{arrival.tenant}/in-{sequence}.png",
        f"/out/{arrival.tenant}/out-{sequence}.png",
    )


def _count(result: LoadgenResult, responses) -> None:
    for response in responses:
        if response.ok:
            result.served_ok += 1
        else:
            result.served_failed += 1


def _refusal(arrival: Arrival, node: str) -> RequestEvent:
    """The client-side failure event for a refused arrival."""
    return RequestEvent(
        at_ns=arrival.at_ns, node=node, tenant=arrival.tenant,
        latency_ns=0, ok=False,
    )


def run_open_loop(
    server,
    schedule: ArrivalSchedule,
    deadline_ns: Optional[int] = None,
) -> LoadgenResult:
    """Replay a schedule open-loop against a serving front door.

    ``server`` is a :class:`~repro.serve.server.PipelineServer` or a
    :class:`~repro.cluster.serve.ClusterServer`.  Arrivals are admitted
    *one at a time, in schedule order*: the living nodes' clocks jump to
    the arrival, the input lands on the tenant's home node, and each
    admitted request (its ``enqueued_at_ns`` rewound to the arrival, so
    latency is client-perceived) is followed by exactly one ``step()``
    — a cluster consults its node-failure hook between dispatches, so
    traffic and failures interleave.  Open-loop queueing is modelled by
    each node's :class:`~repro.serve.metrics.ServingTimeline`; the
    admission queue is deliberately kept shallow, because its drain
    rate follows the *serial* drive clock (a different timebase from the
    lane replay) and deep fair-share rotation there would reorder
    dispatch against arrival order and corrupt the latency model.  The
    client stream is the refusals plus every node's request events.
    """
    from repro.serve.bench import standard_pipeline

    result = LoadgenResult(
        schedule_digest=schedule.digest(),
        offered=len(schedule.arrivals),
        admitted=0, rejected=0, shed=0, served_ok=0, served_failed=0,
    )
    for sequence, arrival in enumerate(schedule.arrivals, start=1):
        server.advance_to(arrival.at_ns)
        home = server.home(arrival.tenant)
        path, out = arrival_paths(sequence, arrival)
        home.kernel.fs.write_file(path, _payload(arrival.image_size))
        try:
            request = server.submit(
                arrival.tenant,
                standard_pipeline(path, out),
                deadline_ns=(
                    arrival.at_ns + deadline_ns
                    if deadline_ns is not None else None
                ),
                priority=arrival.priority,
            )
        except BrownoutShed:
            result.shed += 1
            name = PRIORITY_NAMES[arrival.priority]
            result.sheds_by_priority[name] = (
                result.sheds_by_priority.get(name, 0) + 1
            )
            result.client_events.append(_refusal(arrival, home.node_label))
            continue
        except AdmissionRejected:
            result.rejected += 1
            result.client_events.append(_refusal(arrival, home.node_label))
            continue
        # Latency is measured from the client's send time, not from
        # the instant the serial drive loop got around to admitting.
        request.enqueued_at_ns = arrival.at_ns
        result.admitted += 1
        _count(result, server.step())
    # Anything still queued drains at the end so the client always
    # hears back.
    _count(result, server.drain())
    for node in server.nodes():
        result.client_events.extend(node.events)
    return result


#: A cluster is driven the same way; the name stays for callers.
run_open_loop_cluster = run_open_loop
