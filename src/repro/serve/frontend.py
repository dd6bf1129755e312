"""The serving frontend: admission control and dispatch.

One :class:`ServingFrontend` fronts one :class:`~repro.core.system.DMXSystem`:
per-tenant arrival processes generate open-loop traffic, a bounded
admission queue per tenant absorbs (or sheds) bursts, and a dispatcher
with a bounded in-flight window issues admitted requests into the
shared system via :meth:`DMXSystem.submit_batch` (a lone request is a
batch of one), collecting each request's
:class:`~repro.core.system.RequestRecord` and charging the full
arrival→completion latency against the SLO.

The pieces map onto the standard serving pipeline::

    arrivals ──> admission (token bucket | bounded queue | shed)
        ──> dispatch (FCFS | WRR | EDF | priority)
        ──> DMXSystem.submit_batch
        ──> SLO accounting (p50/p95/p99, goodput)

Two resilience hooks from :mod:`repro.resilience` plug in here:
per-tenant **token buckets** police a tenant's sustained admission rate
at the door (protecting co-tenants from a bursty neighbour), and the
**brownout ladder** — driven by windowed tail latency vs. the SLO —
sheds low-priority arrivals, coalesces dispatch by tenant, and finally
forces motion stages onto the CPU (``submit_batch(..., force_cpu=True)``).

Orthogonally to the dispatch discipline, a
:class:`~repro.serve.batching.BatchingConfig` arms **batch formation**:
dispatched same-tenant requests accumulate in a
:class:`~repro.serve.batching.BatchFormer` and execute as one coalesced
submission (:meth:`DMXSystem.submit_batch`) — one descriptor chain +
doorbell + completion ISR for all members. The brownout ``COALESCE``
tier escalates the formation window, turning the tier from a dispatch
heuristic into real control-path coalescing.

Everything runs on the system's own simulator, and all stochasticity
comes from one ``random.Random(seed)``, so a serving run — including one
with a :class:`~repro.faults.FaultPlan` armed — replays exactly.
"""

from __future__ import annotations

import enum
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Generator, List, Optional, \
    Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import ActiveSpan
    from ..telemetry.alerts import ObservationConfig

from ..control import ClosedLoopController, ControllerConfig
from ..core.system import DMXSystem, RequestRecord
from ..resilience.admission import TokenBucket, TokenBucketConfig
from ..resilience.brownout import BrownoutConfig, BrownoutController, \
    BrownoutTier
from ..sim import Event
from .arrivals import ArrivalProcess
from .batching import BatchFormer, BatchingConfig, FormingBatch
from .slo import LatencyTracker, QueueSample, ServeResult, TenantStats

__all__ = [
    "ShedPolicy",
    "Discipline",
    "TenantSpec",
    "FrontendConfig",
    "ServingFrontend",
]


class ShedPolicy(enum.Enum):
    """What admission does when a tenant's queue is full.

    ``REJECT`` sheds the new arrival (bounded queue, load shedding);
    ``QUEUE`` admits unconditionally — ``TenantSpec.queue_capacity`` is
    *deliberately ignored* under this policy: the queue is unbounded and
    latency, not errors, absorbs overload (the right setting for knee
    curves, where a capacity bound would clip the very tail the sweep
    measures). This is by design, not an oversight; a test pins it.
    """

    REJECT = "reject"
    QUEUE = "queue"


class Discipline(enum.Enum):
    """Dispatch order across tenant queues.

    ``FCFS`` takes the globally earliest arrival; ``WRR`` cycles tenants
    by weight; ``EDF`` takes the earliest absolute deadline (arrival +
    the tenant's ``deadline_s``, defaulting to the frontend SLO — exact,
    since per-tenant queues are FIFO and the offset is constant);
    ``PRIORITY`` is strict priority, FCFS among equals.
    """

    FCFS = "fcfs"
    WRR = "wrr"
    EDF = "edf"
    PRIORITY = "priority"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its chain, traffic model, and admission limits.

    ``name`` must match an application chain in the fronted system;
    ``weight`` is the tenant's weighted-round-robin share (ignored under
    FCFS); ``queue_capacity`` bounds the admission queue under
    ``ShedPolicy.REJECT``. ``priority`` orders tenants under
    ``Discipline.PRIORITY`` (higher dispatches first) and marks shedding
    victims for the brownout ladder; ``deadline_s`` is the tenant's
    per-request latency budget under ``Discipline.EDF``; ``rate_limit``
    arms a token-bucket policer at admission.
    """

    name: str
    arrivals: ArrivalProcess
    n_requests: int
    weight: int = 1
    queue_capacity: int = 16
    priority: int = 1
    deadline_s: Optional[float] = None
    rate_limit: Optional[TokenBucketConfig] = None

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ValueError(f"{self.name}: n_requests must be positive")
        if self.weight < 1:
            raise ValueError(f"{self.name}: weight must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError(f"{self.name}: queue_capacity must be >= 1")
        if self.priority < 0:
            raise ValueError(f"{self.name}: priority must be >= 0")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(
                f"{self.name}: deadline_s must be positive (not NaN)"
            )


@dataclass(frozen=True)
class FrontendConfig:
    """Dispatch-side knobs for one serving run.

    ``max_inflight`` bounds requests concurrently inside the fronted
    system (the dispatch window); ``slo_s`` is the client-observed
    latency target violations are counted against (None disables);
    ``sample_period_s`` is the queue-depth sampling period on the sim
    clock (None disables the timeline). ``brownout`` arms the graceful-
    degradation ladder (requires ``slo_s`` — the ladder is driven by
    p99-vs-SLO headroom).

    ``batching`` arms batch formation: dispatched requests accumulate
    per tenant and execute as coalesced submissions (orthogonal to
    ``discipline``, which still decides *which* request is dispatched
    next). ``max_affinity_run`` caps the brownout ``COALESCE`` tier's
    tenant-affinity fast path — at most this many consecutive dispatches
    may bypass the discipline for the last-served tenant (default: the
    tenant's WRR weight), after which dispatch falls through to the
    configured discipline so a backlogged tenant cannot starve its
    neighbours for as long as the tier holds.
    """

    max_inflight: int = 4
    shed: ShedPolicy = ShedPolicy.REJECT
    discipline: Discipline = Discipline.FCFS
    slo_s: Optional[float] = None
    sample_period_s: Optional[float] = 1e-3
    brownout: Optional[BrownoutConfig] = None
    batching: Optional[BatchingConfig] = None
    max_affinity_run: Optional[int] = None
    #: Arms the closed-loop controller (:mod:`repro.control`): live WRR
    #: weight driving, cheapest-sufficient-tier brownout selection, the
    #: standby-card capacity autoscaler, and crossing-minimizing chain
    #: placement — all on the sim clock. Requires ``slo_s`` (the loop
    #: senses p99-vs-SLO headroom); ``drive_tiers`` additionally
    #: requires ``brownout``. ``None`` (the default) changes nothing:
    #: disarmed runs are byte-identical to pre-controller builds.
    controller: Optional["ControllerConfig"] = None
    #: Arms the SLO observation plane (windowed rollups + burn-rate
    #: alerts). Evaluated strictly *after* the simulation drains, from
    #: recorded telemetry only — an armed run's simulation, telemetry,
    #: and summary are byte-identical to an unarmed run's.
    observation: Optional["ObservationConfig"] = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        for name in ("slo_s", "sample_period_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive (not NaN)")
        if self.brownout is not None and self.slo_s is None:
            raise ValueError("brownout control requires slo_s")
        if self.max_affinity_run is not None and self.max_affinity_run < 1:
            raise ValueError("max_affinity_run must be >= 1")
        if self.controller is not None:
            if self.slo_s is None:
                raise ValueError("the closed-loop controller requires slo_s")
            if self.controller.drive_tiers and self.brownout is None:
                raise ValueError(
                    "controller.drive_tiers requires the brownout ladder"
                )


class _Admitted:
    """One admitted request waiting for (or holding) a dispatch slot."""

    __slots__ = ("spec", "arrival", "seq", "deadline")

    def __init__(
        self, spec: TenantSpec, arrival: float, seq: int,
        deadline: float = math.inf,
    ):
        self.spec = spec
        self.arrival = arrival
        self.seq = seq
        self.deadline = deadline


class ServingFrontend:
    """Drive one :class:`DMXSystem` with online multi-tenant traffic.

    The frontend owns the run: construct it around a *fresh* system
    (whose simulator has not been run), then call :meth:`run` once.
    """

    def __init__(
        self,
        system: DMXSystem,
        tenants: Sequence[TenantSpec],
        config: FrontendConfig = FrontendConfig(),
        seed: int = 0,
    ):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if system.sim.now != 0.0:
            raise ValueError(
                "frontend requires a fresh system (simulator already ran)"
            )
        self.system = system
        self.sim = system.sim
        self.telemetry = system.telemetry
        self.config = config
        self.tenants = list(tenants)
        self._app_index = {t.name: system.app_index(t.name) for t in tenants}
        self._rng = random.Random(seed)
        self._queues: Dict[str, Deque[_Admitted]] = {
            t.name: deque() for t in tenants
        }
        self._stats: Dict[str, TenantStats] = {
            t.name: TenantStats(name=t.name) for t in tenants
        }
        self._latency = LatencyTracker()
        self._records: List[RequestRecord] = []
        self._client_latency: Optional[Dict[str, object]] = (
            {
                t.name: self.telemetry.histogram(
                    "client_latency", tenant=t.name
                )
                for t in tenants
            }
            if self.telemetry.enabled
            else None
        )
        self._inflight = 0
        self._open_arrivals = len(self.tenants)
        self._wake: Optional[Event] = None
        self._finished = False
        self._done_at = 0.0
        self._ran = False
        # Live per-tenant WRR weights. Seeded from the specs, but kept
        # in mutable state so a closed-loop controller can retune shares
        # mid-run (:meth:`set_weight`); every credit refresh reads this
        # table, never the frozen spec.
        self._weights: Dict[str, int] = {t.name: t.weight for t in tenants}
        # Weighted-round-robin cursor: current tenant + remaining credit.
        self._wrr_index = 0
        self._wrr_credit = self._weights[self.tenants[0].name]
        # Resilience hooks: per-tenant policers + the brownout ladder.
        self._buckets: Dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_limit)
            for t in tenants
            if t.rate_limit is not None
        }
        self._brownout: Optional[BrownoutController] = (
            BrownoutController(config.slo_s, config.brownout)
            if config.brownout is not None
            else None
        )
        # Tenant whose request was dispatched last — the COALESCE tier
        # prefers it, so completion notifications batch under the
        # driver's NAPI-style coalescing window. The affinity run is
        # capped (``_affinity_cap``) so the fast path cannot starve
        # other tenants while the tier holds.
        self._last_tenant: Optional[str] = None
        self._affinity_run = 0
        self._tenant_spec: Dict[str, TenantSpec] = {
            t.name: t for t in self.tenants
        }
        # Batch formation (None = per-request dispatch, the exact
        # pre-batching code path).
        self._former: Optional[BatchFormer] = (
            BatchFormer(self.sim, self._launch_batch)
            if config.batching is not None
            else None
        )
        self._batch_size_hist = None
        self._formation_delay_gauge = None
        if self._former is not None and self.telemetry.enabled:
            self._batch_size_hist = self.telemetry.histogram("batch_size")
            self._formation_delay_gauge = self.telemetry.metrics.gauge(
                "batch_formation_delay_s"
            )
        # Size-aware formation: per-tenant admission timestamps feeding
        # the arrival-rate estimate (None = fixed-window formation, the
        # exact pre-size-aware code path).
        self._admit_times: Optional[Dict[str, Deque[float]]] = (
            {
                t.name: deque(maxlen=config.batching.rate_window)
                for t in self.tenants
            }
            if self._former is not None and config.batching.size_aware
            else None
        )
        # Per-tenant in-flight counts: the controller's request-boundary
        # gate for live migration (a tenant moves cards only when none
        # of its requests are inside the system).
        self._tenant_inflight: Dict[str, int] = {
            t.name: 0 for t in tenants
        }
        self._controller: Optional[ClosedLoopController] = (
            ClosedLoopController(self, config.controller)
            if config.controller is not None
            else None
        )

    # -- live control surface ------------------------------------------------

    def weight(self, tenant: str) -> int:
        """The tenant's current (live) WRR weight."""
        return self._weights[tenant]

    def set_weight(self, tenant: str, weight: int) -> None:
        """Retune one tenant's WRR share mid-run.

        Takes effect at the next cursor advance onto the tenant (credit
        is always refreshed from the live table); the in-progress credit
        run is never retroactively grown or clawed back, so fairness
        accounting stays consistent across the change.
        """
        if tenant not in self._weights:
            raise KeyError(f"unknown tenant {tenant!r}")
        if weight < 1:
            raise ValueError(f"{tenant}: weight must be >= 1, got {weight}")
        self._weights[tenant] = weight

    # -- wakeup plumbing -----------------------------------------------------

    def _kick(self) -> None:
        """Wake the dispatcher if it is parked."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        self._wake = None

    def _park(self) -> Event:
        self._wake = self.sim.event()
        return self._wake

    # -- admission -----------------------------------------------------------

    def _deadline_offset(self, spec: TenantSpec) -> float:
        """The tenant's per-request deadline budget, resolved *now*.

        Resolved per arrival (not hoisted out of the arrival loop): the
        EDF deadline must track the SLO in effect when the request
        arrives, so a config- or controller-driven SLO change mid-run
        reaches subsequent arrivals instead of being frozen at
        arrival-loop start.
        """
        if spec.deadline_s is not None:
            return spec.deadline_s
        if self.config.slo_s is not None:
            return self.config.slo_s
        return math.inf

    def _arrival_loop(self, spec: TenantSpec) -> Generator:
        stats = self._stats[spec.name]
        queue = self._queues[spec.name]
        gaps = spec.arrivals.interarrivals(self._rng)
        bucket = self._buckets.get(spec.name)
        record_metrics = self.telemetry.enabled
        rate_limited_counter = None
        if record_metrics:
            arrivals_counter = self.telemetry.counter(
                "arrivals", tenant=spec.name
            )
            shed_counter = self.telemetry.counter("shed", tenant=spec.name)
            admitted_counter = self.telemetry.counter(
                "admitted", tenant=spec.name
            )
            if bucket is not None:
                rate_limited_counter = self.telemetry.counter(
                    "rate_limited", tenant=spec.name
                )
        for seq in range(spec.n_requests):
            yield self.sim.timeout(next(gaps))
            stats.arrived += 1
            if record_metrics:
                arrivals_counter.inc()
            # Policer first: a bursty tenant is throttled at the door,
            # before its burst can occupy queue slots.
            if bucket is not None and not bucket.try_take(self.sim.now):
                stats.shed += 1
                stats.rate_limited += 1
                if record_metrics:
                    shed_counter.inc()
                    rate_limited_counter.inc()
                    self.telemetry.instant(
                        "rate_limited", "admission", actor=spec.name, seq=seq
                    )
                continue
            if (
                self._brownout is not None
                and self._brownout.tier >= BrownoutTier.SHED_LOW
                and spec.priority <= self.config.brownout.shed_max_priority
            ):
                stats.shed += 1
                stats.brownout_shed += 1
                if record_metrics:
                    shed_counter.inc()
                    self.telemetry.instant(
                        "brownout_shed", "admission", actor=spec.name,
                        seq=seq, tier=int(self._brownout.tier),
                    )
                continue
            if (
                self.config.shed is ShedPolicy.REJECT
                and len(queue) >= spec.queue_capacity
            ):
                stats.shed += 1
                if record_metrics:
                    shed_counter.inc()
                    self.telemetry.instant(
                        "shed", "admission", actor=spec.name, seq=seq
                    )
                continue
            stats.admitted += 1
            if record_metrics:
                admitted_counter.inc()
            if self._admit_times is not None:
                self._admit_times[spec.name].append(self.sim.now)
            queue.append(
                _Admitted(
                    spec, self.sim.now, seq,
                    deadline=self.sim.now + self._deadline_offset(spec),
                )
            )
            self._kick()
        self._open_arrivals -= 1
        self._kick()

    # -- dispatch ------------------------------------------------------------

    def _queued_total(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _next_fcfs(self) -> Optional[_Admitted]:
        best: Optional[Deque[_Admitted]] = None
        for spec in self.tenants:
            queue = self._queues[spec.name]
            if queue and (best is None or queue[0].arrival < best[0].arrival):
                best = queue
        return best.popleft() if best is not None else None

    def _next_wrr(self) -> Optional[_Admitted]:
        n = len(self.tenants)
        for _ in range(n + 1):
            spec = self.tenants[self._wrr_index]
            queue = self._queues[spec.name]
            if self._wrr_credit > 0 and queue:
                self._wrr_credit -= 1
                return queue.popleft()
            self._wrr_index = (self._wrr_index + 1) % n
            # Credit refreshes from the *live* weight at every cursor
            # advance: a mid-run set_weight takes effect the next time
            # the cursor reaches the tenant, with no stale-credit skew.
            self._wrr_credit = self._weights[self.tenants[self._wrr_index].name]
        return None

    def _next_edf(self) -> Optional[_Admitted]:
        # Per-tenant queues are FIFO and each tenant's deadline offset is
        # constant, so queue heads are the only EDF candidates — this is
        # exact earliest-deadline-first, not an approximation.
        best: Optional[Deque[_Admitted]] = None
        for spec in self.tenants:
            queue = self._queues[spec.name]
            if queue and (
                best is None
                or (queue[0].deadline, queue[0].arrival)
                < (best[0].deadline, best[0].arrival)
            ):
                best = queue
        return best.popleft() if best is not None else None

    def _next_priority(self) -> Optional[_Admitted]:
        best: Optional[Deque[_Admitted]] = None
        best_key = None
        for spec in self.tenants:
            queue = self._queues[spec.name]
            if not queue:
                continue
            key = (-spec.priority, queue[0].arrival)
            if best is None or key < best_key:
                best, best_key = queue, key
        return best.popleft() if best is not None else None

    def _affinity_cap(self, tenant: str) -> int:
        """Longest same-tenant run the COALESCE fast path may extend."""
        if self.config.max_affinity_run is not None:
            return self.config.max_affinity_run
        return max(1, self._weights[tenant])

    def _next_affinity(self) -> Optional[_Admitted]:
        """The COALESCE tenant-affinity fast path — capped and
        credit-honest.

        Two fairness bugs lived here: the path (1) popped the last
        tenant's queue with no run-length cap, so one backlogged tenant
        starved every other (including higher-priority and earlier-
        deadline work) for as long as the tier held, and (2) bypassed
        WRR credit accounting entirely, corrupting fairness state past
        the brownout episode. Now the run is capped at
        :meth:`_affinity_cap` before falling through to the configured
        discipline, and under WRR an affinity pop is only allowed when
        it is the cursor tenant's turn with credit remaining — which it
        then debits, exactly as :meth:`_next_wrr` would.
        """
        tenant = self._last_tenant
        if self._affinity_run >= self._affinity_cap(tenant):
            return None
        queue = self._queues[tenant]
        if not queue:
            return None
        if self.config.discipline is Discipline.WRR:
            if (
                self.tenants[self._wrr_index].name != tenant
                or self._wrr_credit <= 0
            ):
                return None
            self._wrr_credit -= 1
        return queue.popleft()

    def _next_item(self) -> Optional[_Admitted]:
        if (
            self._brownout is not None
            and self._brownout.tier >= BrownoutTier.COALESCE
            and self._last_tenant is not None
        ):
            # Tenant-affinity dispatch: runs of the same tenant complete
            # back to back, so the notification model's coalescing
            # window batches their completion interrupts.
            item = self._next_affinity()
            if item is not None:
                return item
        if self.config.discipline is Discipline.FCFS:
            return self._next_fcfs()
        if self.config.discipline is Discipline.WRR:
            return self._next_wrr()
        if self.config.discipline is Discipline.EDF:
            return self._next_edf()
        return self._next_priority()

    def _dispatch_loop(self) -> Generator:
        while True:
            while self._inflight < self.config.max_inflight:
                item = self._next_item()
                if item is None:
                    break
                if item.spec.name == self._last_tenant:
                    self._affinity_run += 1
                else:
                    self._affinity_run = 1
                self._last_tenant = item.spec.name
                if self._former is not None:
                    self._form(item)
                    continue
                self._inflight += 1
                self._tenant_inflight[item.spec.name] += 1
                self.sim.spawn(
                    self._serve([item]),
                    name=f"serve:{item.spec.name}#{item.seq}",
                )
            if self._former is not None:
                self._feed_formers()
            if (
                self._open_arrivals == 0
                and self._queued_total() == 0
                and self._inflight == 0
            ):
                self._finished = True
                self._done_at = self.sim.now
                return
            yield self._park()

    def _serve(
        self, items: List[_Admitted], batch: Optional[FormingBatch] = None
    ) -> Generator:
        """Submit one tenant's ``items`` as one submission; book each.

        A client span covers arrival→completion (what the SLO sees). A
        formed ``batch`` gets a batch span, opened at formation start,
        that parents the client spans and the system's span tree; without
        one, the lone client span parents the request tree.
        """
        spec = items[0].spec
        dispatched = self.sim.now
        telemetry = self.telemetry
        bspan = None
        if batch is not None:
            bspan = telemetry.begin(
                f"batch:{spec.name}#{batch.seq}", "batch", actor=spec.name,
                start=batch.created, tenant=spec.name,
                batch_size=len(items), sealed_by=batch.sealed_by,
            )
        clients = [
            telemetry.begin(
                f"{item.spec.name}#{item.seq}", "client",
                actor=item.spec.name, start=item.arrival,
                tenant=item.spec.name, seq=item.seq, parent=bspan,
            )
            for item in items
        ]
        force_cpu = (
            self._brownout is not None
            and self._brownout.tier >= BrownoutTier.FORCE_CPU
        )
        root = bspan if bspan is not None else clients[0]
        records = yield from self.system.submit_batch(
            self._app_index[spec.name], len(items),
            parent_span=root.span_id, force_cpu=force_cpu,
        )
        if batch is not None:
            self._stats[spec.name].batches += 1
            if self._batch_size_hist is not None:
                self._batch_size_hist.observe(float(len(items)))
                self._formation_delay_gauge.sample(
                    self.sim.now, dispatched - batch.created
                )
        for item, client, record in zip(items, clients, records):
            self._complete(item, client, record, dispatched)
        if bspan is not None:
            telemetry.end(bspan)
        self._release(spec.name)

    def _complete(
        self,
        item: _Admitted,
        client: ActiveSpan,
        record: RequestRecord,
        dispatched: float,
    ) -> None:
        """Book one answered request (alone or as a batch member): its
        queue-wait span, latency and SLO accounting, the brownout and
        controller feedback, the record, and the closing client span."""
        stats = self._stats[item.spec.name]
        telemetry = self.telemetry
        client.request_id = record.request_id
        telemetry.add(
            "admission", "queue", start=item.arrival, end=dispatched,
            actor=item.spec.name, parent=client,
            request_id=record.request_id, phase="queue",
        )
        latency = self.sim.now - item.arrival
        stats.completed += 1
        if record.failed:
            stats.failed += 1
        elif self.config.slo_s is not None and latency > self.config.slo_s:
            stats.violations += 1
        stats.latency.add(latency)
        stats.queue_wait.add(dispatched - item.arrival)
        self._latency.add(latency)
        if self._brownout is not None:
            self._brownout.observe(latency)
        if self._controller is not None:
            self._controller.observe(item.spec.name, latency)
        self._records.append(record)
        telemetry.end(client, failed=record.failed)
        if self._client_latency is not None:
            self._client_latency[item.spec.name].observe(latency)

    def _release(self, tenant: str) -> None:
        """Free the dispatch slot a request or batch held."""
        self._inflight -= 1
        self._tenant_inflight[tenant] -= 1
        if self._controller is not None:
            self._controller.on_request_boundary(tenant)
        self._kick()

    # -- batched dispatch ----------------------------------------------------

    def _batch_terms(self, tenant: str) -> "tuple[int, float]":
        """(max_batch, window_s) for a batch the ``tenant`` opens *now*:
        the brownout COALESCE tier stretches the window (and optionally
        the cap) so overload buys more amortization per control-path
        invocation; size-aware formation then shrinks the window to what
        the tenant's admission rate can actually fill."""
        cfg = self.config.batching
        max_batch, window_s = cfg.max_batch, cfg.window_s
        if (
            self._brownout is not None
            and self._brownout.tier >= BrownoutTier.COALESCE
        ):
            window_s *= cfg.coalesce_window_factor
            if cfg.coalesce_max_batch is not None:
                max_batch = cfg.coalesce_max_batch
        if self._admit_times is not None:
            window_s = self._size_aware_window(tenant, max_batch, window_s)
        return max_batch, window_s

    def _size_aware_window(
        self, tenant: str, max_batch: int, window_s: float
    ) -> float:
        """Shrink ``window_s`` to the time the batch plausibly needs.

        With the tenant admitting at rate λ̂ (estimated from its last
        ``rate_window`` admission timestamps), a full window collects
        about ``λ̂·window_s`` more members. Waiting any longer than the
        expected time for ``min(max_batch-1, floor(λ̂·window_s))`` of
        them is pure added latency — and when that count is zero, the
        window buys nothing at all, so the batch seals immediately
        instead of idling out ``window_s`` as a singleton. Fewer than
        two samples means no estimate: keep the configured window.
        """
        times = self._admit_times[tenant]
        if len(times) < 2 or window_s <= 0:
            return window_s
        span = times[-1] - times[0]
        if span <= 0:
            return window_s  # same-instant burst: rate is unbounded
        rate = (len(times) - 1) / span
        fills = min(max_batch - 1, math.floor(rate * window_s))
        if fills <= 0:
            return 0.0
        return min(window_s, fills / rate)

    def _form(self, item: _Admitted) -> None:
        """Route one dispatched item into its tenant's forming batch.

        A forming batch holds one ``max_inflight`` slot from the moment
        it opens until its execution completes — formation must consume
        dispatch capacity, or it would drain admission queues without
        backpressure and void the discipline's ordering guarantees.
        """
        if not self._former.is_forming(item.spec.name):
            self._inflight += 1
            self._tenant_inflight[item.spec.name] += 1
        max_batch, window_s = self._batch_terms(item.spec.name)
        self._former.add(item, max_batch, window_s)

    def _feed_formers(self) -> None:
        """Drain queued same-tenant work into open forming batches.

        Joining an open batch consumes no dispatch slot, so this runs
        even when the inflight window is full — otherwise a forming
        batch would idle out its whole window while the members that
        could seal it sit in the admission queue behind a closed window
        (the worst case at small ``max_inflight``). At high load this is
        what makes batches size-out instantly instead of waiting.
        Within a tenant the queue is FIFO, so joining preserves the
        discipline's ordering guarantees.
        """
        for spec in self.tenants:
            if not self._former.is_forming(spec.name):
                continue
            queue = self._queues[spec.name]
            max_batch, window_s = self._batch_terms(spec.name)
            while queue and self._former.is_forming(spec.name):
                self._former.add(queue.popleft(), max_batch, window_s)

    def _launch_batch(self, batch: FormingBatch) -> None:
        self.sim.spawn(
            self._serve(batch.members, batch),
            name=f"serve-batch:{batch.tenant}#{batch.seq}",
        )

    # -- brownout control loop -----------------------------------------------

    def _brownout_loop(self, period: float) -> Generator:
        # Tier changes land in the metrics registry (gauge timeline) and
        # the instant stream, so artifacts show when the ladder moved.
        controller = self._brownout
        gauge = self.telemetry.metrics.gauge("brownout_tier")
        gauge.sample(self.sim.now, int(controller.tier))
        while not self._finished:
            yield self.sim.timeout(period)
            change = controller.update(self.sim.now)
            if change is not None:
                old, new = change
                gauge.sample(self.sim.now, int(new))
                self.telemetry.instant(
                    "brownout_tier", "brownout",
                    **{"from": old.name, "to": new.name},
                )

    # -- closed-loop controller ----------------------------------------------

    def _controller_loop(self, period: float) -> Generator:
        controller = self._controller
        while not self._finished:
            yield self.sim.timeout(period)
            controller.update(self.sim.now)

    @property
    def controller_actions(self) -> List[Tuple[float, str, str]]:
        """``(time, kind, detail)`` log of every decision the armed
        closed-loop controller applied; empty when disarmed."""
        if self._controller is None:
            return []
        return list(self._controller.actions)

    # -- queue-depth timeline ------------------------------------------------

    def _sampler_loop(self, period: float) -> Generator:
        # The occupancy timeline lives in the metrics registry (written
        # straight to the registry, not gated on ``telemetry.enabled``,
        # so ``ServeResult.timeline`` behaves identically either way).
        registry = self.telemetry.metrics
        inflight_gauge = registry.gauge("inflight")
        queue_gauges = {
            name: registry.gauge("queue_depth", tenant=name)
            for name in self._queues
        }
        while not self._finished:
            now = self.sim.now
            for name, queue in self._queues.items():
                queue_gauges[name].sample(now, len(queue))
            inflight_gauge.sample(now, self._inflight)
            yield self.sim.timeout(period)

    def _build_timeline(self) -> List[QueueSample]:
        """Reconstruct the legacy per-sample timeline from the gauges."""
        if self.config.sample_period_s is None:
            return []
        registry = self.telemetry.metrics
        per_tenant = {
            name: registry.gauge("queue_depth", tenant=name).samples
            for name in self._queues
        }
        return [
            QueueSample(
                time=time,
                queued={
                    name: int(samples[i][1])
                    for name, samples in per_tenant.items()
                },
                inflight=int(value),
            )
            for i, (time, value) in enumerate(
                registry.gauge("inflight").samples
            )
        ]

    # -- the run -------------------------------------------------------------

    def run(self) -> ServeResult:
        """Generate, admit, dispatch, and complete all tenant traffic."""
        if self._ran:
            raise RuntimeError("a ServingFrontend can only run once")
        self._ran = True
        for spec in self.tenants:
            self.sim.spawn(
                self._arrival_loop(spec), name=f"arrivals:{spec.name}"
            )
        self.sim.spawn(self._dispatch_loop(), name="dispatch")
        if self.config.sample_period_s is not None:
            self.sim.spawn(
                self._sampler_loop(self.config.sample_period_s),
                name="queue-sampler",
            )
        drives_tiers = (
            self._controller is not None
            and self.config.controller.drive_tiers
        )
        if self._brownout is not None and not drives_tiers:
            # With the closed-loop controller picking tiers, the open-
            # loop ladder stepping stands down (two writers would fight
            # over the same actuator); the ladder machinery still
            # applies whatever tier the controller sets.
            self.sim.spawn(
                self._brownout_loop(self.config.brownout.update_period_s),
                name="brownout-controller",
            )
        if self._controller is not None:
            # Arm-time pass at t=0 (park standby cards, settle initial
            # placement), then the periodic control loop on the sim
            # clock.
            self._controller.start(self.sim.now)
            self.sim.spawn(
                self._controller_loop(
                    self.config.controller.update_period_s
                ),
                name="closed-loop-controller",
            )
        self.sim.run()
        self.telemetry.finalize()
        self.system._record_run_metrics()
        rollups = None
        alerts: List = []
        if self.config.observation is not None:
            # Post hoc by construction: the DES has fully drained, so
            # the observation pass can only read what the run recorded.
            from ..telemetry.alerts import observe_run

            rollups, alerts = observe_run(
                self.telemetry,
                self.config.observation,
                slo_s=self.config.slo_s,
            )
        return ServeResult(
            tenants=self._stats,
            latency=self._latency,
            timeline=self._build_timeline(),
            elapsed=self._done_at,
            slo_s=self.config.slo_s,
            records=self._records,
            telemetry=self.telemetry,
            rollups=rollups,
            alerts=alerts,
        )
