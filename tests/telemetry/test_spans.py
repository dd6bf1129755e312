"""Span model: hierarchy, abandonment, finalization."""

import pytest

from repro.sim import Simulator
from repro.telemetry import ROOT_PARENT, SpanContext, Telemetry
from repro.telemetry.spans import SpanTracker


def make_tracker():
    sim = Simulator()
    return sim, SpanTracker(sim)


def test_begin_end_records_times_and_ids():
    sim, tracker = make_tracker()
    root = tracker.begin("req", "request", actor="app0", request_id=3)
    sim.run(until=1.5)
    done = tracker.end(root, failed=False)
    assert done.span_id == 0
    assert done.parent_id == ROOT_PARENT
    assert done.request_id == 3
    assert (done.start, done.end) == (0.0, 1.5)
    assert done.duration == 1.5
    assert done.attrs == {"failed": False}
    assert tracker.open_count == 0


def test_parenting_accepts_span_and_id():
    sim, tracker = make_tracker()
    root = tracker.begin("root", "request")
    by_span = tracker.begin("a", "stage", parent=root)
    by_id = tracker.begin("b", "stage", parent=root.span_id)
    assert by_span.parent_id == root.span_id
    assert by_id.parent_id == root.span_id


def test_end_twice_rejected():
    sim, tracker = make_tracker()
    span = tracker.begin("x", "stage")
    tracker.end(span)
    with pytest.raises(ValueError, match="not open"):
        tracker.end(span)


def test_add_post_hoc_span_and_time_checks():
    sim, tracker = make_tracker()
    span = tracker.add("queue", "queue", start=1.0, end=2.0, request_id=5)
    assert span.duration == 1.0
    with pytest.raises(ValueError):
        tracker.add("bad", "queue", start=2.0, end=1.0)


def test_instant_defaults_to_sim_now():
    sim, tracker = make_tracker()
    sim.run(until=2.0)
    event = tracker.instant("retry", "fault", actor="dma", site="dma")
    assert event.time == 2.0
    assert event.attrs == {"site": "dma"}
    explicit = tracker.instant("late", "fault", time=9.0)
    assert explicit.time == 9.0


def test_mark_abandoned_closes_and_flags_subtree():
    sim, tracker = make_tracker()
    attempt = tracker.begin("attempt", "attempt")
    child = tracker.begin("dma", "dma", parent=attempt)
    grandchild = tracker.begin("leg", "dma", parent=child)
    tracker.end(grandchild)  # finished descendants are flagged too
    marked = tracker.mark_abandoned(attempt)
    assert marked == 3
    assert tracker.open_count == 0
    assert all(s.abandoned for s in tracker.spans)


def test_late_end_of_an_abandoned_span_is_a_no_op():
    """A drained leg's child unwinds after the rescue path abandoned its
    subtree: its own end must leave the span exactly as abandoned."""
    sim, tracker = make_tracker()
    attempt = tracker.begin("attempt", "attempt")
    child = tracker.begin("dma", "dma", parent=attempt)
    sim.run(until=1.0)
    tracker.mark_abandoned(attempt)
    sim.run(until=2.0)
    assert tracker.end(child, error="Interrupt") is child
    assert child.end == 1.0
    assert child.attrs == {"abandoned": True}
    assert len(tracker.spans) == 2


def test_finalize_truncates_stragglers():
    sim, tracker = make_tracker()
    tracker.begin("open", "stage")
    sim.run(until=1.0)
    assert tracker.finalize() == 1
    assert tracker.spans[-1].attrs["truncated"] is True
    assert tracker.finalize() == 0


def test_disabled_telemetry_is_a_noop():
    sim = Simulator()
    telemetry = Telemetry(sim, enabled=False)
    span = telemetry.begin("x", "stage")
    assert telemetry.end(span) is None
    assert telemetry.add("q", "queue", start=0.0, end=1.0) is None
    assert telemetry.instant("e", "fault") is None
    assert telemetry.mark_abandoned(span) == 0
    assert telemetry.finalize() == 0
    assert telemetry.spans == [] and telemetry.instants == []


def test_span_context_threads_parent_and_request():
    sim = Simulator()
    telemetry = Telemetry(sim)
    root = telemetry.begin("root", "request", request_id=7)
    ctx = telemetry.context(root, request_id=7)
    assert isinstance(ctx, SpanContext)
    child = ctx.begin("dma", "dma")
    assert child.parent_id == root.span_id
    assert child.request_id == 7
    grand = ctx.child(child).begin("leg", "dma")
    assert grand.parent_id == child.span_id


def test_wrap_closes_span_on_interrupt():
    from repro.sim import Interrupt

    sim = Simulator()
    telemetry = Telemetry(sim)

    def body():
        yield sim.timeout(10.0)

    proc = sim.spawn(telemetry.wrap(body(), "work", "dma"))

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt("deadline")

    sim.spawn(killer())
    sim.run()
    assert telemetry.tracker.open_count == 0
    (span,) = telemetry.spans
    assert span.abandoned and span.end == 1.0
