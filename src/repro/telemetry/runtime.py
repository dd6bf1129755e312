"""The always-on :class:`Telemetry` facade and span-context plumbing.

One :class:`Telemetry` instance rides on each
:class:`~repro.core.system.DMXSystem` (and is shared by the serving
frontend driving it) and on each
:class:`~repro.core.collectives.CollectiveSystem`. It bundles the span
tracker and the metrics registry behind one object that model
components accept, and adds the :class:`SpanContext` value that call
chains thread downward so leaf components (DMA engine, notification
model, device jobs) can attach their spans under the right parent
without knowing about the system. Every span opened around a modeled
operation opens and closes through one :class:`SpanStep`. Recording is
always on: there is no off switch.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import ActiveSpan, Instant, Span, SpanTracker, _parent_id

__all__ = ["Telemetry", "SpanContext", "SpanStep"]


class Telemetry:
    """Span tracker + metrics registry for one simulated run."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.tracker = SpanTracker(sim)
        self.metrics = MetricsRegistry()
        # Recording is on the DES hot path: bind the tracker's methods
        # so each call dispatches straight to it.
        self.begin = self.tracker.begin
        self.end = self.tracker.end
        self.add = self.tracker.add
        self.instant = self.tracker.instant
        self.mark_abandoned = self.tracker.mark_abandoned
        self.finalize = self.tracker.finalize

    # -- span API ------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return self.tracker.spans

    @property
    def instants(self) -> List[Instant]:
        return self.tracker.instants

    def wrap(
        self,
        op: Generator,
        name: str,
        category: str,
        actor: str = "",
        parent: Union[int, ActiveSpan, Span, None] = None,
        request_id: int = -1,
        phase: str = "",
        **attrs: object,
    ) -> Generator:
        """Run process ``op`` under a span (closed ``abandoned``, with no
        ``error``, on interrupt)."""
        with SpanStep(self, self.begin(
            name, category, actor, parent, request_id, phase, None, **attrs
        ), errors=False):
            result = yield from op
        return result

    # -- metrics API -----------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self.metrics.histogram(name, **labels)

    def sample_gauge(self, name: str, value: float, **labels: str) -> None:
        """Record one gauge sample at the current sim time."""
        self.metrics.gauge(name, **labels).sample(self.sim.now, value)

    def context(
        self,
        parent: Union[int, ActiveSpan, Span, None] = None,
        request_id: int = -1,
    ) -> "SpanContext":
        return SpanContext(self, _parent_id(parent), request_id)


class SpanContext:
    """Where a component's spans should attach: telemetry + parent +
    request. Passed down call chains (system → dma/notify/drx)."""

    __slots__ = ("telemetry", "parent_id", "request_id")

    def __init__(
        self,
        telemetry: Telemetry,
        parent_id: int = -1,
        request_id: int = -1,
    ) -> None:
        self.telemetry = telemetry
        self.parent_id = parent_id
        self.request_id = request_id

    def begin(
        self, name: str, category: str, actor: str = "",
        phase: str = "", **attrs: object,
    ) -> ActiveSpan:
        # Positional: this runs once per modeled operation, where
        # binding five keyword arguments is a measurable share of it.
        return self.telemetry.begin(
            name, category, actor, self.parent_id, self.request_id, phase,
            None, **attrs,
        )

    def end(self, span: ActiveSpan, **attrs: object) -> Optional[Span]:
        return self.telemetry.end(span, **attrs)

    def step(
        self, name: str, category: str, actor: str = "",
        errors: bool = True, **attrs: object,
    ) -> "SpanStep":
        """Open a span here now and return the :class:`SpanStep` that
        closes it: ``with ctx.step(name, category, actor) as step:``."""
        telemetry = self.telemetry
        return SpanStep(telemetry, telemetry.begin(
            name, category, actor, self.parent_id, self.request_id, "",
            None, **attrs,
        ), errors)

    def child(self, span: Union[int, ActiveSpan, Span]) -> "SpanContext":
        return SpanContext(
            self.telemetry,
            span if type(span) is int else span.span_id,
            self.request_id,
        )


class SpanStep:
    """One timed operation under an open span, as ``with step:``.

    :meth:`SpanContext.step` opens the span and makes the step. Leaving
    the block closes the span with :attr:`end_attrs` (none unless the
    block set some). A block that raised closes it ``abandoned`` (plus
    ``error``, the exception's type name, when ``errors`` is set) and
    the exception propagates. A context manager rather than a
    generator, so a step adds no frame to the ``yield from`` chain
    every resume of its block walks.
    """

    __slots__ = ("telemetry", "span", "errors", "end_attrs")

    def __init__(
        self, telemetry: Telemetry, span: ActiveSpan, errors: bool
    ) -> None:
        self.telemetry = telemetry
        self.span = span
        self.errors = errors
        #: Attributes the span closes with on a clean exit.
        self.end_attrs: Optional[dict] = None

    def __enter__(self) -> "SpanStep":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if self.end_attrs is None:
                self.telemetry.end(self.span)
            else:
                self.telemetry.end(self.span, **self.end_attrs)
        elif self.errors:
            self.telemetry.end(
                self.span, abandoned=True, error=exc_type.__name__
            )
        else:
            self.telemetry.end(self.span, abandoned=True)
