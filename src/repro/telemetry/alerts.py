"""Multi-window burn-rate alerts with root-cause attribution.

The SRE burn-rate pattern on sim time: an SLO with a violation budget
(e.g. "at most 10% of completions over the latency target") burns at
rate 1.0 when violations arrive exactly at budget. The engine walks a
tenant's rollup windows (:mod:`repro.telemetry.rollup`) and fires when
**both** a fast window (reacts in one window) and a slow window
(filters one-off blips) burn above their thresholds — the standard
two-window guard against both paging latency and flappiness. A fired
alert stays active until the fast burn stays calm for
``clear_after`` consecutive windows (hysteresis dwell), then emits a
``clear`` event.

Every ``fire`` event is annotated with a **root cause**: the violating
requests inside the slow window are swept with the site-keyed
critical-path attribution (:func:`repro.telemetry.report
.site_critical_path`), and the dominant non-queue key names the cause —
"p99 burn driven by ``restructuring@drx.acc0.0`` for tenant B". Queue
and idle time are symptoms of a saturated server, not causes, so they
are reported alongside but never ranked first. Control-plane events
(breaker flips, brownout tier moves, fault injections) inside the slow
window ride along for correlation.

Like the rollup pass this runs **post hoc** over recorded telemetry:
alerts are evaluated after the DES drains and appended to the artifact,
so arming the engine cannot perturb the run it observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .rollup import RollupConfig, RunRollups, compute_rollups
from .spans import Instant, Span

__all__ = [
    "AlertConfig",
    "AlertEvent",
    "ObservationConfig",
    "evaluate_alerts",
    "observe_run",
    "SYMPTOM_PHASES",
]

#: Attribution phases that are symptoms of saturation, never root causes.
SYMPTOM_PHASES = ("queue", "idle")


@dataclass(frozen=True)
class AlertConfig:
    """Burn-rate thresholds for one alert policy.

    ``budget`` is the violation fraction the SLO tolerates (0.10 = one
    in ten completions may miss the target); burn rate is the observed
    violation fraction divided by the budget. The fast window spans
    ``fast_windows`` rollup windows and must burn at ``fast_burn``x, the
    slow window spans ``slow_windows`` and must burn at ``slow_burn``x —
    both at once to fire. ``min_count`` completions must exist in the
    slow window before it can fire (a single slow request in an idle
    run is not an incident), and the alert clears only after
    ``clear_after`` consecutive calm fast windows.
    """

    budget: float = 0.10
    fast_windows: int = 1
    slow_windows: int = 6
    fast_burn: float = 2.0
    slow_burn: float = 1.0
    min_count: int = 4
    clear_after: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        for name in ("fast_windows", "min_count", "clear_after"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1 (not NaN)")
        if not self.slow_windows >= self.fast_windows:
            raise ValueError("slow_windows must be >= fast_windows (not NaN)")
        for name in ("fast_burn", "slow_burn"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")


@dataclass(frozen=True)
class ObservationConfig:
    """Arms the observation plane on a serving run: windowed rollups,
    plus burn-rate alerts unless ``alerts`` is None."""

    rollup: RollupConfig = RollupConfig()
    alerts: Optional[AlertConfig] = AlertConfig()


@dataclass
class AlertEvent:
    """One burn-rate alert transition (``fire`` or ``clear``).

    ``span_s`` is the slow-window extent the fire looked at (consumers
    — trace sampling, dashboards — use it to bracket the incident);
    ``attribution`` is the full ``phase@site`` critical-path split of
    the violating requests, ``cause`` its dominant non-symptom key, and
    ``share`` that key's fraction of the attributed time.
    """

    time: float
    tenant: str
    state: str  # "fire" | "clear"
    window: int
    fast_burn: float
    slow_burn: float
    span_s: float
    cause: str = ""
    site: str = ""
    phase: str = ""
    share: float = 0.0
    attribution: Dict[str, float] = field(default_factory=dict)
    events: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line root-cause sentence for reports and demos."""
        if self.state != "fire":
            return f"alert cleared for tenant {self.tenant}"
        if not self.cause:
            return f"burn for tenant {self.tenant} (no attribution)"
        where = f" on {self.site}" if self.site else ""
        return (
            f"burn driven by {self.phase}{where} "
            f"({self.share:.0%} of violating critical path) "
            f"for tenant {self.tenant}"
        )

    def to_row(self) -> Dict[str, object]:
        return {
            "kind": "alert",
            "time": self.time,
            "tenant": self.tenant,
            "state": self.state,
            "window": self.window,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "span_s": self.span_s,
            "cause": self.cause,
            "site": self.site,
            "phase": self.phase,
            "share": self.share,
            "attribution": dict(self.attribution),
            "events": list(self.events),
        }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "AlertEvent":
        return cls(
            time=float(row["time"]), tenant=str(row["tenant"]),
            state=str(row["state"]), window=int(row["window"]),
            fast_burn=float(row["fast_burn"]),
            slow_burn=float(row["slow_burn"]),
            span_s=float(row["span_s"]), cause=str(row["cause"]),
            site=str(row["site"]), phase=str(row["phase"]),
            share=float(row["share"]),
            attribution=dict(row["attribution"]),
            events=list(row["events"]),
        )


# -- attribution ---------------------------------------------------------------


def pick_cause(attribution: Dict[str, float]) -> Tuple[str, float]:
    """(dominant non-symptom key, its share of all attributed time).

    Queue wait and idle gaps are what saturation *looks like*, not what
    caused it — they are skipped unless nothing else was attributed.
    Ties break toward the lexically smaller key for determinism.
    """
    total = sum(attribution.values())
    if total <= 0:
        return "", 0.0
    causes = {
        key: seconds for key, seconds in attribution.items()
        if key.split("@", 1)[0] not in SYMPTOM_PHASES
    } or attribution
    best = min(causes, key=lambda k: (-causes[k], k))
    return best, causes[best] / total


def _attribute(
    spans_by_request: Dict[int, List[Span]],
    violating: Sequence[Span],
) -> Dict[str, float]:
    from .report import site_critical_path

    out: Dict[str, float] = {}
    for client in violating:
        spans = spans_by_request.get(client.request_id)
        if not spans:
            continue
        for key, seconds in site_critical_path(spans).items():
            out[key] = out.get(key, 0.0) + seconds
    return out


# -- the engine ----------------------------------------------------------------


def evaluate_alerts(
    source,
    rollups: RunRollups,
    config: Optional[AlertConfig] = None,
) -> List[AlertEvent]:
    """Walk every tenant's rollup windows and emit the alert timeline.

    ``source`` (a live Telemetry or a loaded RunArtifact) provides the
    spans for root-cause attribution and the instants for control-plane
    correlation; ``rollups`` provides the windowed violation counts.
    Returns events in (time, tenant) order. With no SLO on the rollups
    there are no violations and therefore no alerts.
    """
    cfg = config or AlertConfig()
    if rollups.slo_s is None:
        return []
    w = rollups.window_s

    # Attribution inputs are only needed once an alert actually fires;
    # healthy runs (the common case the overhead budget is pinned on)
    # never pay for indexing the span stream.
    indexed: Dict[str, object] = {}

    def _indexes():
        if not indexed:
            spans_by_request: Dict[int, List[Span]] = {}
            clients_by_tenant: Dict[str, List[Span]] = {}
            for span in source.spans:
                if span.request_id >= 0:
                    spans_by_request.setdefault(
                        span.request_id, []
                    ).append(span)
                if span.category == "client" and span.end is not None:
                    tenant = str(span.attrs.get("tenant") or span.actor)
                    clients_by_tenant.setdefault(tenant, []).append(span)
            control: List[Instant] = [
                i for i in source.instants
                if i.category in ("breaker", "brownout", "fault")
            ]
            indexed["requests"] = spans_by_request
            indexed["clients"] = clients_by_tenant
            indexed["control"] = control
        return indexed["requests"], indexed["clients"], indexed["control"]

    events: List[AlertEvent] = []
    for tenant, windows in rollups.by_key("tenant").items():
        # prefix sums: sliding-window totals in O(1) per window (integer
        # arithmetic, so identical to summing the slices)
        cum_c = [0, *accumulate(
            int(x.stats.get("completed", 0)) for x in windows
        )]
        cum_v = [0, *accumulate(
            int(x.stats.get("violations", 0)) for x in windows
        )]
        active = False
        calm = 0
        for i, cell in enumerate(windows):
            fast_lo = max(0, i - cfg.fast_windows + 1)
            fast_c = cum_c[i + 1] - cum_c[fast_lo]
            fast_v = cum_v[i + 1] - cum_v[fast_lo]
            fast_burn = (fast_v / fast_c / cfg.budget) if fast_c else 0.0
            slow_lo = max(0, i - cfg.slow_windows + 1)
            slow_c = cum_c[i + 1] - cum_c[slow_lo]
            # Quiet windows, the common case, stop here: no slow burn to
            # price when the slow window is too thin or the fast one calm.
            if not active and not (
                slow_c >= cfg.min_count and fast_burn >= cfg.fast_burn
            ):
                continue
            slow_v = cum_v[i + 1] - cum_v[slow_lo]
            slow_burn = (slow_v / slow_c / cfg.budget) if slow_c else 0.0
            if not active:
                if not slow_burn >= cfg.slow_burn:
                    continue
                active, calm = True, 0
                span_s = (i + 1 - slow_lo) * w
                lo, hi = slow_lo * w, cell.end
                spans_by_request, clients_by_tenant, control = _indexes()
                violating = [
                    s for s in clients_by_tenant.get(tenant, ())
                    if lo <= s.end <= hi
                    and not s.attrs.get("failed")
                    and s.duration > rollups.slo_s
                ]
                attribution = _attribute(spans_by_request, violating)
                cause, share = pick_cause(attribution)
                phase, _, site = cause.partition("@")
                correlated = sorted({
                    f"{inst.name}@{inst.actor}" if inst.actor else inst.name
                    for inst in control
                    if lo <= inst.time <= hi
                })
                events.append(AlertEvent(
                    time=cell.end, tenant=tenant, state="fire",
                    window=i, fast_burn=fast_burn, slow_burn=slow_burn,
                    span_s=span_s, cause=cause, site=site, phase=phase,
                    share=share, attribution=attribution,
                    events=correlated,
                ))
                continue
            # Active: dwell until the fast window stays calm.
            if fast_burn >= cfg.fast_burn:
                calm = 0
                continue
            calm += 1
            if calm >= cfg.clear_after:
                active = False
                events.append(AlertEvent(
                    time=cell.end, tenant=tenant, state="clear",
                    window=i, fast_burn=fast_burn, slow_burn=slow_burn,
                    span_s=cfg.slow_windows * w,
                ))
    events.sort(key=lambda e: (e.time, e.tenant, e.state))
    return events


def observe_run(
    source,
    config: Optional[ObservationConfig] = None,
    slo_s: Optional[float] = None,
) -> Tuple[RunRollups, List[AlertEvent]]:
    """Rollups + alert timeline for one finished run, in one call.

    The serving frontend calls this after the DES drains when
    :attr:`~repro.serve.frontend.FrontendConfig.observation` is armed;
    it is equally callable on a loaded artifact.
    """
    cfg = config or ObservationConfig()
    rollups = compute_rollups(source, cfg.rollup, slo_s=slo_s)
    alerts = (
        evaluate_alerts(source, rollups, cfg.alerts)
        if cfg.alerts is not None
        else []
    )
    return rollups, alerts
