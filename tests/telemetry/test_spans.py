"""Span model: hierarchy, abandonment, finalization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.telemetry import ROOT_PARENT, SpanContext, SpanStep, Telemetry
from repro.telemetry.spans import Span, SpanTracker


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


# -- SpanStep: one open/close lifecycle for every timed operation -----------


def _step_run(body, **step_kwargs):
    """Run ``body(step)`` under one ``ctx.step("op", "dma", "eng",
    bytes=8)`` in a process; returns (telemetry, the step, the error
    the block raised or None)."""
    sim = Simulator()
    telemetry = Telemetry(sim)
    ctx = telemetry.context(telemetry.begin("root", "request"), 5)
    seen = {"error": None}

    def proc():
        step = seen["step"] = ctx.step("op", "dma", "eng", **step_kwargs)
        try:
            with step as entered:
                assert entered is step
                yield from body(step)
        except KeyError as exc:
            seen["error"] = exc

    sim.spawn(proc())
    sim.run()
    return telemetry, seen["step"], seen["error"]


def test_step_opens_its_span_at_once_under_the_context():
    sim = Simulator()
    telemetry = Telemetry(sim)
    root = telemetry.begin("root", "request")
    step = telemetry.context(root, 5).step("op", "dma", "eng", bytes=8)
    assert isinstance(step, SpanStep)
    span = step.span
    assert (span.name, span.category, span.actor, span.phase) == (
        "op", "dma", "eng", ""
    )
    assert (span.parent_id, span.request_id) == (root.span_id, 5)
    assert span.attrs == {"bytes": 8}
    assert telemetry.tracker.open_count == 2


@pytest.mark.parametrize("end_attrs", [None, {"queued_s": 0.5}])
def test_a_clean_block_closes_the_span_with_its_end_attrs(end_attrs):
    def body(step):
        yield step.telemetry.sim.timeout(1.0)
        step.end_attrs = end_attrs

    telemetry, step, error = _step_run(body, bytes=8)
    assert error is None
    assert step.span.end == 1.0
    assert step.span.attrs == {"bytes": 8, **(end_attrs or {})}
    assert telemetry.tracker.open_count == 1  # the root only


@pytest.mark.parametrize("errors", [True, False])
def test_a_raising_block_closes_the_span_abandoned_and_reraises(errors):
    def body(step):
        yield step.telemetry.sim.timeout(2.0)
        step.end_attrs = {"queued_s": 0.5}  # not used on a raise
        raise KeyError("lost")

    telemetry, step, error = _step_run(body, errors=errors, bytes=8)
    assert isinstance(error, KeyError)
    assert step.span.end == 2.0
    expected = {"bytes": 8, "abandoned": True}
    if errors:
        expected["error"] = "KeyError"
    assert list(step.span.attrs.items()) == list(expected.items())
    assert telemetry.tracker.open_count == 1


# -- mark_abandoned: differential oracle against the child-index walk ----------


class _ChildIndexTracker:
    """The span tracker's abandonment bookkeeping as it was before the
    one-list index: a dict of spans by id plus a per-parent child list,
    both written on every ``begin``/``add`` and read only by
    :meth:`mark_abandoned`. The one-list walk must reproduce it exactly:
    the same counts, and open descendants closed in the same order."""

    def __init__(self, sim):
        self.sim = sim
        self.spans = []
        self._ids = itertools.count()
        self._open = {}
        self._children = {}
        self._by_id = {}

    def begin(self, name, category, parent=None, **attrs):
        parent_id = ROOT_PARENT if parent is None else parent
        sid = next(self._ids)
        span = Span(sid, parent_id, -1, name, category, "", "",
                    self.sim.now, None, attrs)
        self._open[sid] = span
        self._by_id[sid] = span
        if parent_id != ROOT_PARENT:
            self._children.setdefault(parent_id, []).append(sid)
        return span

    def end(self, span, **attrs):
        if self._open.pop(span.span_id, None) is None:
            if span.attrs.get("abandoned"):
                return span
            raise ValueError(f"span {span.span_id} is not open")
        if attrs:
            span.attrs.update(attrs)
        span.end = self.sim.now
        self.spans.append(span)
        return span

    def add(self, name, category, start, end, parent=None, **attrs):
        parent_id = ROOT_PARENT if parent is None else parent
        span = Span(next(self._ids), parent_id, -1, name, category, "", "",
                    start, end, attrs)
        if parent_id != ROOT_PARENT:
            self._children.setdefault(parent_id, []).append(span.span_id)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def mark_abandoned(self, root_id):
        marked = 0
        stack = [root_id]
        while stack:
            span_id = stack.pop()
            span = self._by_id.get(span_id)
            if span is None:
                continue
            if span_id in self._open:
                self.end(span)
            span.attrs["abandoned"] = True
            marked += 1
            stack.extend(self._children.get(span_id, ()))
        return marked

    def finalize(self):
        stragglers = list(self._open.values())
        for span in stragglers:
            self.end(span, truncated=True)
        return len(stragglers)


def _stream(spans):
    return [
        (s.span_id, s.parent_id, s.name, s.start, s.end, s.attrs)
        for s in spans
    ]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return ("raised", str(exc))


_OPS = st.lists(
    st.tuples(
        st.sampled_from(("root", "begin", "end", "add", "abandon", "tick")),
        st.integers(0, 10**6),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_mark_abandoned_matches_the_child_index_walk(ops):
    """Random span forests with interleaved begin / end / add / abandon:
    the one-list walk returns the same counts and leaves the same span
    stream (order and attrs) as the per-parent child-index walk."""
    sims = Simulator(), Simulator()
    tracker, reference = SpanTracker(sims[0]), _ChildIndexTracker(sims[1])
    ours, theirs = [], []  # spans by id, one list per tracker
    for kind, pick in ops:
        n = len(ours)
        if kind == "tick":
            for sim in sims:
                sim.run(until=sim.now + pick % 3)
        elif kind in ("root", "begin"):
            parent = None if kind == "root" or not n else pick % n
            ours.append(tracker.begin(f"s{n}", "stage", parent=parent, k=pick))
            theirs.append(reference.begin(f"s{n}", "stage", parent=parent,
                                          k=pick))
        elif kind == "add":
            parent = pick % n if n else None
            start = max(0.0, sims[0].now - pick % 2)
            ours.append(tracker.add(f"s{n}", "queue", start, sims[0].now,
                                    parent=parent))
            theirs.append(reference.add(f"s{n}", "queue", start, sims[1].now,
                                        parent=parent))
        elif kind == "end" and n:
            i = pick % n
            got = _outcome(lambda: tracker.end(ours[i], done=True).span_id)
            want = _outcome(lambda: reference.end(theirs[i], done=True).span_id)
            assert got == want
        elif kind == "abandon":
            # Ids just outside the stream (-1, n) abandon nothing.
            root_id = pick % (n + 2) - 1
            root = ours[root_id] if 0 <= root_id < n and pick % 2 else root_id
            assert tracker.mark_abandoned(root) == \
                reference.mark_abandoned(root_id)
        assert tracker.open_count == len(reference._open)
        assert _stream(tracker.spans) == _stream(reference.spans)
    assert tracker.finalize() == reference.finalize()
    assert _stream(tracker.spans) == _stream(reference.spans)
