"""Framework API model: specs, data objects, execution contexts, guard."""

import numpy as np
import pytest

from repro.core.apitypes import APIType
from repro.core.dataflow import Storage
from repro.errors import ReproError
from repro.frameworks.base import (
    APISpec,
    DataObject,
    ExecutionContext,
    Framework,
    Mat,
    Model,
    StatefulKind,
    Tensor,
    Tracer,
    coerce_model,
    is_crafted,
)
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


@pytest.fixture
def ctx(kernel):
    process = kernel.spawn("p", charge=False)
    return ExecutionContext(kernel, process, tracer=Tracer())


def make_spec(**overrides):
    defaults = dict(
        name="op", framework="testfw", qualname="testfw.op",
        ground_truth=APIType.PROCESSING, syscalls=("brk",),
    )
    defaults.update(overrides)
    return APISpec(**defaults)


class TestDataObjects:
    def test_nbytes_follows_payload(self):
        assert Mat(np.zeros((4, 4))).nbytes == 128

    def test_copy_is_deep(self):
        data = np.zeros(4)
        original = Tensor(data)
        duplicate = original.copy()
        duplicate.data[0] = 9
        assert data[0] == 0

    def test_shapes(self):
        assert Mat(np.zeros((2, 3))).shape == (2, 3)
        assert Tensor(None).shape == ()

    def test_model_holds_weights_and_trojan(self):
        model = Model({"w": np.ones(2)}, architecture="cnn", trojan="payload")
        assert model.architecture == "cnn"
        assert model.trojan == "payload"
        assert model.nbytes > 0

    def test_coerce_model_passthrough_and_wrap(self):
        model = Model({"w": np.ones(1)})
        assert coerce_model(model) is model
        wrapped = coerce_model(Tensor(np.ones(3)))
        assert isinstance(wrapped, Model)
        assert "raw" in wrapped.data
        assert coerce_model(np.ones(2)).architecture == "raw"


class TestFrameworkRegistry:
    def test_register_and_get(self):
        fw = Framework("testfw")
        api = fw.add(make_spec(), lambda ctx: 1)
        assert fw.get("op") is api
        assert "op" in fw
        assert len(fw) == 1

    def test_duplicate_name_rejected(self):
        fw = Framework("testfw")
        fw.add(make_spec(), lambda ctx: 1)
        with pytest.raises(ReproError):
            fw.add(make_spec(), lambda ctx: 2)

    def test_get_missing_raises(self):
        with pytest.raises(ReproError):
            Framework("f").get("nothing")

    def test_apis_of_type(self):
        fw = Framework("testfw")
        fw.add(make_spec(name="a"), lambda ctx: 1)
        fw.add(make_spec(name="b", ground_truth=APIType.LOADING,
                         qualname="testfw.b"), lambda ctx: 1)
        assert [a.name for a in fw.apis_of_type(APIType.LOADING)] == ["b"]

    def test_covered_counts_test_cases(self):
        fw = Framework("testfw")
        fw.add(make_spec(name="a"), lambda ctx: 1)
        fw.add(make_spec(name="b", qualname="t.b",
                         example_args=lambda ctx: ((), {})), lambda ctx: 1)
        assert [a.name for a in fw.covered()] == ["b"]


class TestExecutionContext:
    def test_invoke_charges_compute_cost(self, ctx):
        spec = make_spec(base_cost_ns=10_000)
        api = Framework("f").add(spec, lambda c: "done")
        before = ctx.kernel.clock.now_ns
        assert ctx.invoke(api, ) == "done"
        assert ctx.kernel.clock.now_ns - before >= 10_000

    def test_invoke_charges_per_byte_for_data_args(self, ctx):
        spec = make_spec(base_cost_ns=0, cost_ns_per_byte=1.0)
        api = Framework("f").add(spec, lambda c, x: None)
        before = ctx.kernel.clock.now_ns
        ctx.invoke(api, Mat(np.zeros(128)))
        assert ctx.kernel.clock.now_ns - before >= 1024

    def test_init_syscalls_once_per_process(self, ctx):
        spec = make_spec(init_syscalls=("mprotect",))
        api = Framework("f").add(spec, lambda c: None)
        ctx.invoke(api)
        ctx.invoke(api)
        assert ctx.process.syscall_counts["mprotect"] == 1

    def test_init_syscalls_deduped_across_apis(self, ctx):
        fw = Framework("f")
        a = fw.add(make_spec(name="a", init_syscalls=("connect",)), lambda c: None)
        b = fw.add(make_spec(name="b", qualname="f.b",
                             init_syscalls=("connect",)), lambda c: None)
        ctx.invoke(a)
        ctx.invoke(b)
        assert ctx.process.syscall_counts["connect"] == 1

    def test_read_file_records_loading_flow(self, ctx):
        ctx.kernel.fs.write_file("/x", np.zeros(4))
        spec = make_spec()
        api = Framework("f").add(spec, lambda c: c.read_file("/x"))
        ctx.invoke(api)
        flows = ctx.tracer.flows.flows
        assert any(f.source is Storage.FILE and f.dest is Storage.MEM for f in flows)

    def test_write_file_records_storing_flow(self, ctx):
        api = Framework("f").add(make_spec(), lambda c: c.write_file("/o", [1]))
        ctx.invoke(api)
        assert any(
            f.dest is Storage.FILE and f.source is Storage.MEM
            for f in ctx.tracer.flows.flows
        )
        assert ctx.kernel.fs.read_file("/o") == [1]

    def test_gui_show_connect_once(self, ctx):
        api = Framework("f").add(
            make_spec(), lambda c: c.gui_show("w", np.zeros(2))
        )
        ctx.invoke(api)
        ctx.invoke(api)
        assert ctx.process.syscall_counts["connect"] == 1
        assert ctx.kernel.gui.window("w").shown_count == 2

    def test_stage_via_tempfile_reduces_to_processing(self, ctx):
        from repro.core.dataflow import categorize_flows

        api = Framework("f").add(
            make_spec(), lambda c: c.stage_via_tempfile(np.zeros(4), label="cache")
        )
        ctx.invoke(api)
        assert categorize_flows(ctx.tracer.flows.flows) is APIType.PROCESSING

    def test_charge_costs_disabled(self, kernel):
        process = kernel.spawn("p", charge=False)
        quiet = ExecutionContext(kernel, process, charge_costs=False)
        api = Framework("f").add(make_spec(base_cost_ns=1_000_000), lambda c: 1)
        before = kernel.clock.now_ns
        quiet.invoke(api)
        assert kernel.clock.now_ns == before


class FakeCrafted:
    cve_id = "CVE-TEST-1"
    cover = "benign"

    def __init__(self):
        self.fired = 0

    def trigger(self, ctx):
        self.fired += 1


class TestGuard:
    def test_is_crafted_duck_typing(self):
        assert is_crafted(FakeCrafted())
        assert not is_crafted("just data")
        assert not is_crafted(None)

    def test_guard_fires_on_vulnerable_api(self, ctx):
        crafted = FakeCrafted()
        spec = make_spec(vulnerabilities=("CVE-TEST-1",))
        api = Framework("f").add(spec, lambda c, x: c.guard(x))
        assert ctx.invoke(api, crafted) == "benign"
        # fired twice: once by the central arg scan, once by the impl guard
        assert crafted.fired >= 1

    def test_guard_skips_non_vulnerable_api(self, ctx):
        crafted = FakeCrafted()
        api = Framework("f").add(make_spec(), lambda c, x: c.guard(x))
        assert ctx.invoke(api, crafted) == "benign"
        assert crafted.fired == 0

    def test_guard_passes_plain_values(self, ctx):
        ctx.current_spec = make_spec()
        assert ctx.guard(42) == 42
