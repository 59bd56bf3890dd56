"""Designated-path restriction and the restart budget (extensions of
Section 4.4's argument checks and restart support)."""

import numpy as np
import pytest

from repro.apps.base import Workload, execute_app
from repro.apps.suite import make_app, used_api_objects
from repro.attacks.exploits import DosExploit
from repro.attacks.payloads import CraftedInput, benign_image
from repro.core.apitypes import APIType
from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import AgentUnavailable, FrameworkCrash, SyscallDenied
from repro.sim.filters import SyscallFilter
from repro.sim.kernel import SimKernel

WORKLOAD = Workload(items=2, image_size=16)


class TestPathRestriction:
    def test_filter_checks_file_paths(self):
        built = SyscallFilter(allowed=["openat", "read"],
                              allowed_path_prefixes=["/data/"])
        built.check(1, "openat", path="/data/in.png")
        with pytest.raises(SyscallDenied):
            built.check(1, "openat", path="/etc/passwd")

    def test_non_file_syscalls_ignore_paths(self):
        built = SyscallFilter(allowed=["brk"], allowed_path_prefixes=["/data/"])
        built.check(1, "brk", path="/anything")  # memory call, no path check

    def test_pathless_calls_pass(self):
        built = SyscallFilter(allowed=["read"], allowed_path_prefixes=["/data/"])
        built.check(1, "read")  # fd-based read of an already-open file

    def test_runtime_policy_confines_storing_agent(self):
        """A storing agent restricted to /out cannot overwrite configs."""
        app = make_app(8)
        config = FreePartConfig(path_policies={
            APIType.STORING: ("/out/",),
        })
        freepart = FreePart(config=config)
        kernel = freepart.kernel
        gateway = freepart.deploy(used_apis=used_api_objects(app))
        report = execute_app(app, gateway, WORKLOAD)
        assert not report.failed, report.error  # legit writes go to /out

        from repro.frameworks.base import Mat

        kernel.fs.write_file("/config/settings", {"admin": False})
        with pytest.raises(FrameworkCrash):
            gateway.call("opencv", "imwrite", "/config/settings",
                         Mat(np.ones((4, 4))))
        # The write never landed.
        assert kernel.fs.read_file("/config/settings") == {"admin": False}

    def test_runtime_policy_confines_loading_agent(self):
        app = make_app(8)
        config = FreePartConfig(path_policies={
            APIType.LOADING: ("/data/", "/testdata/", "/dev/"),
        })
        freepart = FreePart(config=config)
        kernel = freepart.kernel
        gateway = freepart.deploy(used_apis=used_api_objects(app))
        app.setup(kernel, WORKLOAD)
        gateway.call("opencv", "imread", app.input_path(0))  # allowed
        kernel.fs.write_file("/secrets/key", "hunter2")
        with pytest.raises(FrameworkCrash):
            gateway.call("opencv", "imread", "/secrets/key")


class TestRestartBudget:
    def _poisoned_gateway(self, max_restarts):
        app = make_app(8)
        config = FreePartConfig(max_restarts_per_agent=max_restarts)
        freepart = FreePart(config=config)
        kernel = freepart.kernel
        gateway = freepart.deploy(used_apis=used_api_objects(app))
        crafted = CraftedInput("CVE-2017-14136", DosExploit(), benign_image())
        kernel.fs.write_file("/evil.png", crafted)
        return kernel, gateway

    def test_crash_loop_exhausts_budget(self):
        kernel, gateway = self._poisoned_gateway(max_restarts=2)
        for _ in range(2):
            with pytest.raises(FrameworkCrash):
                gateway.call("opencv", "imread", "/evil.png")
        # Third crash: restart happens on the next dispatch and the
        # budget check trips there.
        with pytest.raises(FrameworkCrash):
            gateway.call("opencv", "imread", "/evil.png")
        with pytest.raises(AgentUnavailable):
            gateway.call("opencv", "imread", "/evil.png")

    def test_unbounded_by_default(self):
        kernel, gateway = self._poisoned_gateway(max_restarts=None)
        for _ in range(5):
            with pytest.raises(FrameworkCrash):
                gateway.call("opencv", "imread", "/evil.png")
        assert gateway.total_restarts() == 5
