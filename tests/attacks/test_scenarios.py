"""End-to-end attack scenarios (Sections 3, 5.3, 5.4)."""

import pytest

from repro.apps.drone import DroneApp, SPEED_TAG, DEFAULT_SPEED
from repro.apps.mcomix import MComixApp, RECENT_TAG
from repro.apps.base import Workload
from repro.attacks.cves import TABLE5_CVES
from repro.attacks.scenarios import (
    run_attack,
    run_motivating_example,
    run_table5_attacks,
)

WORKLOAD = Workload(items=2, image_size=16)


class TestMotivatingExample:
    def test_freepart_prevents_all_five_attacks(self):
        verdict = run_motivating_example("freepart")
        assert all(verdict.prevented(label) for label in verdict.attacks)
        assert len(verdict.attacks) == 5

    def test_no_isolation_prevents_nothing(self):
        verdict = run_motivating_example("none")
        assert not any(r.prevented for r in verdict.attacks.values())

    def test_memory_based_only_stops_template_corruption(self):
        verdict = run_motivating_example("memory_based")
        assert verdict.prevented("mem-write-template")
        assert not (verdict.prevented("dos-imread")
                    and verdict.prevented("dos-imshow"))
        assert not verdict.prevented("code-rewrite")

    def test_code_api_leaves_template_exposed(self):
        verdict = run_motivating_example("code_api")
        assert not verdict.prevented("mem-write-template")  # beside imread
        assert verdict.prevented("dos-imread")      # crashes confined
        assert verdict.prevented("dos-imshow")

    def test_entire_library_leaves_shared_omrcrop_exposed(self):
        verdict = run_motivating_example("lib_entire")
        assert verdict.prevented("mem-write-template")      # in host
        assert not verdict.prevented("mem-write-omrcrop")   # shared memory
        assert not verdict.prevented("code-rewrite")        # footnote 3

    def test_individual_apis_prevent_everything(self):
        verdict = run_motivating_example("lib_individual")
        assert all(r.prevented for r in verdict.attacks.values())


class TestTable5:
    def test_all_attacks_fire_and_are_prevented_under_freepart(self):
        results = run_table5_attacks("freepart", workload=WORKLOAD)
        assert len(results) == len(TABLE5_CVES)
        for result in results:
            assert result.delivered, result.cve_id
            assert result.prevented, result.cve_id

    def test_all_attacks_succeed_without_isolation(self):
        results = run_table5_attacks("none", workload=WORKLOAD)
        for result in results:
            assert result.delivered, result.cve_id
            assert not result.prevented, result.cve_id

    def test_loading_cves_blocked_in_loading_agent(self):
        result = run_attack("CVE-2017-12597", "freepart", workload=WORKLOAD)
        assert result.outcomes[0].process_role == "agent"
        assert "data_loading" in result.outcomes[0].process_name

    def test_processing_cves_blocked_in_processing_agent(self):
        result = run_attack("CVE-2019-14491", "freepart", workload=WORKLOAD)
        assert "data_processing" in result.outcomes[0].process_name
        assert result.prevented

    def test_tensorflow_dos_contained(self):
        result = run_attack("CVE-2021-37661", "freepart", workload=WORKLOAD)
        assert result.prevented
        assert not result.host_crashed
        assert result.agent_crashes == 1


class TestDroneCaseStudy:
    def test_dos_without_freepart_downs_the_drone(self):
        result = run_attack(
            "CVE-2017-14136", "none", app=DroneApp(),
            target_tag=SPEED_TAG, workload=WORKLOAD,
        )
        assert result.host_crashed  # the drone falls

    def test_dos_with_freepart_keeps_flying(self):
        result = run_attack(
            "CVE-2017-14136", "freepart", app=DroneApp(),
            target_tag=SPEED_TAG, workload=WORKLOAD,
        )
        assert not result.host_crashed
        assert result.agent_crashes == 1
        assert result.prevented

    def test_speed_corruption_without_freepart(self):
        result = run_attack(
            "CVE-2017-12606", "none", app=DroneApp(),
            target_tag=SPEED_TAG, workload=WORKLOAD,
        )
        assert result.data_corrupted

    def test_speed_corruption_contained_by_freepart(self):
        result = run_attack(
            "CVE-2017-12606", "freepart", app=DroneApp(),
            target_tag=SPEED_TAG, workload=WORKLOAD,
        )
        assert not result.data_corrupted
        assert result.prevented


class TestMComixCaseStudy:
    def test_leak_succeeds_without_isolation(self):
        result = run_attack(
            "CVE-2020-10378", "none", app=MComixApp(),
            target_tag=RECENT_TAG, workload=WORKLOAD,
        )
        assert result.data_exfiltrated

    def test_leak_blocked_by_freepart(self):
        result = run_attack(
            "CVE-2020-10378", "freepart", app=MComixApp(),
            target_tag=RECENT_TAG, workload=WORKLOAD,
        )
        assert not result.data_exfiltrated
        assert result.prevented
        assert result.blocked_by  # isolation or syscall restriction


class TestVerdictLogic:
    def test_undelivered_attack_not_counted_prevented(self):
        from repro.attacks.cves import VulnType
        from repro.attacks.scenarios import AttackResult

        result = AttackResult(
            cve_id="X", technique="freepart", app_name="a",
            vuln_type=VulnType.DOS, delivered=False,
        )
        assert not result.prevented
