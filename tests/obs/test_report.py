"""The unified run report: determinism, sections, and verification."""

import pytest

from repro.errors import AccountingError
from repro.obs.report import (
    REPORT_SCHEMA,
    build_report,
    render_report_json,
    render_report_markdown,
    top_slowest,
)
from repro.obs.slo import RequestEvent
from repro.obs.tracer import Span


def _serve_run():
    from repro.core.runtime import FreePartConfig
    from repro.serve.bench import load_requests
    from repro.serve.server import PipelineServer
    from repro.sim.kernel import SimKernel

    server = PipelineServer(
        kernel=SimKernel(),
        config=FreePartConfig(trace=True),
        pool_size=2,
        batching=True,
    )
    load_requests(server, 2, 2, 16)
    server.drain()
    server.shutdown()
    return server


def _serve_report(server):
    kernel = server.kernel
    return build_report(
        "serve-bench", "serve",
        nodes=[("node0", kernel.tracer, kernel.clock.now_ns)],
        events=server.events,
        series=kernel.series,
    )


@pytest.fixture(scope="module")
def serve_report():
    return _serve_report(_serve_run())


def test_report_sections_and_schema(serve_report):
    assert serve_report["schema"] == REPORT_SCHEMA
    for key in ("slo", "critical_path", "rollup", "top_slowest",
                "series", "extra", "virtual_ns"):
        assert key in serve_report
    assert serve_report["slo"]["requests"] == 4
    assert serve_report["rollup"][-1]["category"] == "untraced"
    assert serve_report["critical_path"]["nodes"][0]["label"] == "node0"


def test_clean_serve_run_fires_zero_alerts(serve_report):
    assert serve_report["slo"]["alert_count"] == 0
    assert serve_report["slo"]["all_met"] is True


def test_report_is_byte_identical_across_reruns(serve_report):
    again = _serve_report(_serve_run())
    assert render_report_json(again) == render_report_json(serve_report)


def test_series_include_serving_and_mechanism_dimensions(serve_report):
    keys = list(serve_report["series"])
    assert any(key.startswith("serve.latency_ns{tenant=") for key in keys)
    assert any(key.startswith("admission.queue_depth{") for key in keys)
    assert any(key.startswith("pool.lease{agent_pool=") for key in keys)
    assert any(key.startswith("mechanism.self_ns{mechanism=")
               for key in keys)


def test_markdown_rendering_is_deterministic(serve_report):
    text = render_report_markdown(serve_report)
    assert text == render_report_markdown(serve_report)
    for heading in ("# Run report — serve-bench (serve)",
                    "## SLO verdicts",
                    "## Critical path",
                    "## Mechanism rollup (verified)",
                    "## Slowest tenants"):
        assert heading in text


def test_top_slowest_ranks_by_worst_latency_and_skips_unlabeled():
    events = [
        RequestEvent(at_ns=0, tenant="a", latency_ns=10),
        RequestEvent(at_ns=1, tenant="a", latency_ns=30, ok=False),
        RequestEvent(at_ns=2, tenant="b", latency_ns=50),
        RequestEvent(at_ns=3, tenant="", latency_ns=999),
    ]
    rows = top_slowest(events, "tenant", k=5)
    assert [row["tenant"] for row in rows] == ["b", "a"]
    assert rows[1] == {
        "tenant": "a", "requests": 2, "errors": 1,
        "max_latency_ns": 30, "mean_latency_ns": 20,
    }


def test_report_refuses_to_render_unbalanced_books():
    class StubTracer:
        def __init__(self, spans):
            self._spans = spans

        def closed_spans(self):
            return list(self._spans)

    orphaned = StubTracer([
        Span(span_id=1, name="root", category="compute", start_ns=0,
             end_ns=100, pid=100, parent_id=None, depth=0),
        Span(span_id=2, name="mark", category="pool", start_ns=0,
             end_ns=0, pid=100, parent_id=None, depth=0, kind="instant"),
        Span(span_id=3, name="stray", category="rpc", start_ns=10,
             end_ns=40, pid=100, parent_id=2, depth=1),
    ])
    with pytest.raises(AccountingError) as excinfo:
        build_report("bad", "test", nodes=[("node0", orphaned, 100)])
    assert "node0" in str(excinfo.value)
