"""SpanTracer: nesting, exception unwinding, instants, the null tracer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import NULL_TRACER, NullTracer, SpanTracer
from repro.sim.clock import VirtualClock


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def tracer(clock):
    return SpanTracer(clock)


def test_span_records_interval_from_virtual_clock(tracer, clock):
    with tracer.span("work", category="compute", pid=3, api="cv2.imread"):
        clock.advance(500)
    (span,) = tracer.closed_spans()
    assert span.name == "work"
    assert span.category == "compute"
    assert span.pid == 3
    assert (span.start_ns, span.end_ns, span.duration_ns) == (0, 500, 500)
    assert span.attrs["api"] == "cv2.imread"
    assert span.parent_id is None
    assert span.depth == 0


def test_tracer_never_advances_the_clock(tracer, clock):
    with tracer.span("outer", category="rpc"):
        tracer.instant("marker", category="state")
        with tracer.span("inner", category="syscall"):
            pass
    assert clock.now_ns == 0


def test_nested_spans_link_parent_child_and_depth(tracer, clock):
    with tracer.span("outer", category="rpc") as outer:
        clock.advance(100)
        with tracer.span("inner", category="ipc") as inner:
            clock.advance(50)
        clock.advance(25)
    assert inner.parent_id == outer.span_id
    assert inner.depth == outer.depth + 1
    assert outer.duration_ns == 175
    assert inner.duration_ns == 50
    assert tracer.current is None


def test_exception_unwinds_all_open_frames(tracer, clock):
    with pytest.raises(RuntimeError):
        with tracer.span("outer", category="rpc"):
            clock.advance(10)
            inner_cm = tracer.span("inner", category="syscall")
            inner_cm.__enter__()
            clock.advance(5)
            raise RuntimeError("agent crashed")
    spans = {s.name: s for s in tracer.closed_spans()}
    # The inner frame never reached __exit__, but closing the outer span
    # must still complete it at the same end time.
    assert spans["inner"].end_ns == spans["outer"].end_ns == 15
    assert tracer.current is None


def test_instant_is_zero_duration_and_not_pushed(tracer, clock):
    clock.advance(42)
    span = tracer.instant("transition", category="state", pid=1)
    assert span.kind == "instant"
    assert span.start_ns == span.end_ns == 42
    assert tracer.current is None


def test_add_span_is_out_of_band_by_default(tracer):
    span = tracer.add_span(
        "admission_wait", category="admission", start_ns=10, end_ns=90
    )
    assert span.out_of_band
    assert span.duration_ns == 80


def test_annotate_after_open(tracer, clock):
    with tracer.span("rpc", category="rpc") as span:
        span.annotate(agent="data_loading", agent_pid=7)
    assert tracer.closed_spans()[0].attrs["agent"] == "data_loading"


def test_name_track_first_name_wins(tracer):
    tracer.name_track(4, "agent:data_loading")
    tracer.name_track(4, "agent:replacement")
    assert tracer.track_names[4] == "agent:data_loading"


def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("x", category="y") as opened:
        opened.annotate(ignored=True)
    assert NULL_TRACER.instant("x", category="y") is None
    assert NULL_TRACER.add_span("x", "y", 0, 1) is None
    NULL_TRACER.name_track(1, "nope")
    assert NULL_TRACER.closed_spans() == []
    assert NULL_TRACER.current is None
    assert isinstance(NULL_TRACER, NullTracer)


# ----------------------------------------------------------------------
# Property: arbitrary open/advance/close interleavings keep the tree sound
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.sampled_from(["open", "close", "advance", "instant"]), max_size=60,
))
def test_span_tree_invariants_hold_for_any_interleaving(ops):
    clock = VirtualClock()
    tracer = SpanTracer(clock)
    open_cms = []
    for op in ops:
        if op == "open":
            cm = tracer.span(f"s{len(tracer.spans)}", category="t")
            cm.__enter__()
            open_cms.append(cm)
        elif op == "close" and open_cms:
            open_cms.pop().__exit__(None, None, None)
        elif op == "advance":
            clock.advance(100)
        else:
            tracer.instant("i", category="t")
    while open_cms:
        open_cms.pop().__exit__(None, None, None)

    spans = tracer.closed_spans()
    assert len(spans) == len(tracer.spans)  # everything closed
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        assert span.end_ns >= span.start_ns
        if span.parent_id is None:
            assert span.depth == 0
            continue
        parent = by_id[span.parent_id]
        assert span.depth == parent.depth + 1
        # A child's interval nests inside its parent's.
        assert parent.start_ns <= span.start_ns
        assert span.end_ns <= parent.end_ns
