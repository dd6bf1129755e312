"""Windowed rollups: the run's metrics folded into fixed sim-time windows.

The raw telemetry a run records — spans, instants, gauges — answers
*per-request* questions (waterfalls, critical paths). A controller (and
the burn-rate alert engine in :mod:`repro.telemetry.alerts`) needs the
*time-series* view instead: what was tenant A's windowed p99 at t=40ms,
how busy was ``drx.acc0.0`` in that window, was its breaker open? This
module computes that view **post hoc**, purely from recorded telemetry,
so arming it cannot perturb the simulation: an observed run's span
stream, metrics, and :class:`~repro.serve.slo.ServeResult` are
byte-identical to an unobserved run's (a benchmark pins this).

Three scopes of :class:`RollupWindow` are emitted per fixed window of
``window_s`` simulated seconds, indexed from t=0:

* ``tenant`` — per-tenant completions, failures, SLO violations,
  windowed latency percentiles (exact, same interpolation as
  :class:`~repro.serve.slo.LatencyTracker`), goodput, queue depth, and
  sheds. Keyed by tenant name; completions land in the window of their
  *completion* time.
* ``site`` — per-executor busy time and leg counts (DRX units, the CPU
  fallback path, accelerators), plus health score and breaker state
  carried forward from the resilience plane's gauge/instant streams.
* ``backend`` — per planner backend kind (``drx``/``dsa``/``xdma``/
  ``cpu``): legs routed, busy time, and planner queue depth. Present
  only when the per-leg planner ran.

Determinism: windows are emitted for every key over the full run
horizon (empty windows included — a controller reading the series needs
the zeros), sorted by ``(scope, key, window)``, with all values derived
from sim-time quantities — equal-seed runs roll up byte-identically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.tracing import exact_percentile
from .spans import Instant, Span

__all__ = [
    "RollupConfig",
    "RollupWindow",
    "RunRollups",
    "compute_rollups",
]

#: Instant names admission emits when it turns an arrival away.
_SHED_NAMES = ("shed", "brownout_shed", "rate_limited")

#: Phases whose actor-carrying spans define a ``site`` (executors).
_SITE_PHASES = frozenset(
    ("kernel", "restructuring", "movement", "control", "recovery")
)

#: One gauge's labels, sample times and sample values.
_Series = Tuple[Tuple[Tuple[str, str], ...], Sequence[float], Sequence[float]]

#: The ``(times, values)`` of a key with no gauge.
_NO_SERIES: Tuple[Sequence[float], Sequence[float]] = ((), ())


@dataclass(frozen=True)
class RollupConfig:
    """Windowing knobs for one rollup pass.

    ``window_s`` is the fixed aggregation window on the sim clock;
    ``quantiles`` are the per-window latency percentiles computed for
    tenant windows (exact within the window, so tiny windows — a single
    sample — degrade gracefully to that sample).
    """

    window_s: float = 10e-3
    quantiles: Tuple[float, ...] = (0.50, 0.95, 0.99)

    def __post_init__(self) -> None:
        if not self.window_s > 0:
            raise ValueError("window_s must be positive (not NaN)")
        if not self.quantiles or any(
            not 0.0 < q < 1.0 for q in self.quantiles
        ):
            raise ValueError("quantiles must be in (0, 1)")


# Not frozen, and slotted: compute_rollups creates one per (scope, key,
# window) over the whole run horizon, and the frozen-dataclass __init__
# (six object.__setattr__ calls) dominated the rollup pass.
@dataclass(slots=True)
class RollupWindow:
    """One (scope, key, window) cell of the rolled-up run."""

    scope: str  # "tenant" | "site" | "backend"
    key: str
    window: int
    start: float
    end: float
    stats: Dict[str, object] = field(default_factory=dict)

    def to_row(self) -> Dict[str, object]:
        return {
            "kind": "rollup",
            "scope": self.scope,
            "key": self.key,
            "window": self.window,
            "start": self.start,
            "end": self.end,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "RollupWindow":
        return cls(
            scope=str(row["scope"]), key=str(row["key"]),
            window=int(row["window"]), start=float(row["start"]),
            end=float(row["end"]), stats=dict(row["stats"]),
        )


@dataclass
class RunRollups:
    """All rollup windows of one run, with series queries."""

    window_s: float
    quantiles: Tuple[float, ...]
    slo_s: Optional[float]
    windows: List[RollupWindow] = field(default_factory=list)

    def keys(self, scope: str) -> List[str]:
        """Distinct keys of a scope, sorted."""
        return sorted({w.key for w in self.windows if w.scope == scope})

    def for_key(self, scope: str, key: str) -> List[RollupWindow]:
        """One key's windows in ascending window order."""
        return sorted(
            (w for w in self.windows if w.scope == scope and w.key == key),
            key=lambda w: w.window,
        )

    def by_key(self, scope: str) -> Dict[str, List[RollupWindow]]:
        """Every key of a scope, sorted, with its windows in ascending
        window order: :meth:`keys` and :meth:`for_key` in one pass."""
        groups: Dict[str, List[RollupWindow]] = defaultdict(list)
        for w in self.windows:
            if w.scope == scope:
                groups[w.key].append(w)
        return {
            key: sorted(groups[key], key=attrgetter("window"))
            for key in sorted(groups)
        }

    def series(
        self, scope: str, key: str, stat: str
    ) -> List[Tuple[float, float]]:
        """``(window start, value)`` pairs for windows carrying ``stat``."""
        return [
            (w.start, float(w.stats[stat]))  # type: ignore[arg-type]
            for w in self.for_key(scope, key)
            if stat in w.stats
            and isinstance(w.stats[stat], (int, float))
        ]

    def to_rows(self) -> Iterable[Dict[str, object]]:
        for window in self.windows:
            yield window.to_row()


# -- source access (Telemetry or RunArtifact, duck-typed) ----------------------


def _gauge_series(source, name: str) -> List[_Series]:
    """Every ``(labels, times, values)`` of gauge ``name`` in the source:
    a live gauge's own columns, or a loaded artifact's samples split."""
    metrics = getattr(source, "metrics", None)
    if metrics is not None:  # a live Telemetry
        return [
            (g.labels, g.times, g.values)
            for g in metrics.gauges()
            if g.name == name
        ]
    return [  # a loaded RunArtifact
        (key[1], [t for t, _ in samples], [v for _, v in samples])
        for key, samples in source.gauges.items()
        if key[0] == name
    ]


def _label(labels: Tuple[Tuple[str, str], ...], key: str) -> Optional[str]:
    for k, v in labels:
        if k == key:
            return v
    return None


def _carry_window(
    samples: Sequence[Tuple[float, float]], start: float, end: float
) -> Optional[Tuple[float, float]]:
    """(time-weighted mean, max) of a LVCF gauge over ``[start, end)``.

    The sample preceding the window carries into it (last value carried
    forward); returns None when the gauge has no value anywhere in or
    before the window — the stat is then omitted rather than faked as 0.
    """
    prev: Optional[float] = None
    inside: List[Tuple[float, float]] = []
    for t, v in samples:
        if t < start:
            prev = v
        elif t < end:
            inside.append((t, v))
        else:
            break
    if prev is None and not inside:
        return None
    total = 0.0
    peak = prev if prev is not None else inside[0][1]
    cursor, value = start, (prev if prev is not None else inside[0][1])
    for t, v in inside:
        total += value * (t - cursor)
        cursor, value = t, v
        if v > peak:
            peak = v
    total += value * (end - cursor)
    return total / (end - start), peak


def _window_bounds(w: float, n_windows: int) -> List[float]:
    """Window edges: window ``i`` is ``[bounds[i], bounds[i + 1])``, and
    ``bounds[i]`` is the float ``i * w``."""
    return [i * w for i in range(n_windows + 1)]


def _carry_windows(
    times: Sequence[float], values: Sequence[float], bounds: Sequence[float]
) -> List[Optional[Tuple[float, float]]]:
    """:func:`_carry_window` for every window of the run (window ``i`` is
    ``[bounds[i], bounds[i + 1])``), in one pass over a gauge's time and
    value columns.

    Each time-sorted sample is read once, and the value a window ends on
    is the value carried into the next, so the whole run costs
    O(samples + windows) rather than O(samples x windows). A sample
    before the first window only sets the carried value; one past the
    last window is never reached. The per-window arithmetic is the exact
    operation sequence of :func:`_carry_window` — equal floats,
    byte-identical rollup rows.
    """
    n_windows = len(bounds) - 1
    out: List[Optional[Tuple[float, float]]] = [None] * n_windows
    i = 0
    cursor = start = bounds[0]
    end = bounds[1]
    # The value in force at ``cursor``; None until a sample is seen.
    value: Optional[float] = None
    total = 0.0
    peak = value
    for t, v in zip(times, values):
        if t < start:
            value = peak = v
            continue
        while not t < end:
            if value is not None:
                total += value * (end - cursor)
                out[i] = (total / (end - start), peak)
            i += 1
            if i == n_windows:
                return out
            cursor = start = bounds[i]
            end = bounds[i + 1]
            total = 0.0
            peak = value
        if value is None:
            value = peak = v
        total += value * (t - cursor)
        cursor, value = t, v
        if v > peak:
            peak = v
    while value is not None:
        total += value * (end - cursor)
        out[i] = (total / (end - start), peak)
        i += 1
        if i == n_windows:
            break
        cursor = start = bounds[i]
        end = bounds[i + 1]
        total = 0.0
        peak = value
    return out


# -- the rollup pass -----------------------------------------------------------


def _span_overlap(span: Span, start: float, end: float) -> float:
    """Seconds of ``span`` inside ``[start, end)`` (the reference
    definition :func:`_busy_windows` evaluates inline)."""
    return max(0.0, min(span.end, end) - max(span.start, start))


def _busy_windows(
    spans_here: Sequence[Span], w: float, bounds: Sequence[float]
) -> Tuple[List[float], List[int]]:
    """Per-window ``(busy seconds, landed legs)`` in one pass over spans.

    Each span contributes overlap only to the windows it actually
    touches (summing a zero overlap is a float no-op, so accumulation
    order matches the old per-window sweep bit for bit), and a leg
    lands in the window containing its end time. The overlap is
    :func:`_span_overlap` written out — the same ``min``/``max``
    operand order, so the same floats — because a call per span per
    window was most of this pass's cost.
    """
    n_windows = len(bounds) - 1
    busy = [0.0] * n_windows
    legs = [0] * n_windows
    for span in spans_here:
        # Span times can be NumPy scalars; float() is exact and keeps
        # the arithmetic below on (much cheaper) Python floats.
        start = float(span.start)
        end = float(span.end)
        first = int(start // w)
        if first < 0:
            first = 0
        land = int(end // w)
        last = land if land < n_windows else n_windows - 1
        for i in range(first, last + 1):
            # max(0.0, min(end, hi) - max(start, lo)), and a zero or
            # negative overlap adds nothing.
            hi = bounds[i + 1]
            lo = bounds[i]
            overlap = (hi if hi < end else end) - (lo if lo > start else start)
            if overlap > 0.0:
                busy[i] += overlap
        if 0 <= land < n_windows:
            legs[land] += 1
    return busy, legs


def _busy_cells(
    spans_here: Sequence[Span], w: float, bounds: Sequence[float]
) -> List[Dict[str, object]]:
    """Each window's ``busy_s``, ``utilization`` and ``legs`` stats."""
    busy, legs = _busy_windows(spans_here, w, bounds)
    return [
        {"busy_s": b, "utilization": b / w, "legs": n}
        for b, n in zip(busy, legs)
    ]


def compute_rollups(
    source,
    config: Optional[RollupConfig] = None,
    slo_s: Optional[float] = None,
) -> RunRollups:
    """Roll one run's telemetry up into fixed windows.

    ``source`` is a live :class:`~repro.telemetry.Telemetry` or a loaded
    :class:`~repro.telemetry.RunArtifact` — the pass reads only recorded
    spans/instants/gauges, so it can run long after the simulation (and
    its arming cannot change what the simulation recorded). ``slo_s``
    defaults to the artifact's ``meta["slo_s"]`` when loading from disk.
    """
    cfg = config or RollupConfig()
    w = cfg.window_s
    if slo_s is None:
        meta = getattr(source, "meta", None)
        if isinstance(meta, dict) and isinstance(
            meta.get("slo_s"), (int, float)
        ):
            slo_s = float(meta["slo_s"])

    spans: Sequence[Span] = source.spans
    instants: Sequence[Instant] = source.instants

    # One classifying pass over the span stream: horizon plus the three
    # scope groupings (the stream is the big input — rescanning it per
    # scope dominated large runs).
    horizon = 0.0
    clients: Dict[str, List[Span]] = defaultdict(list)
    site_spans: Dict[str, List[Span]] = defaultdict(list)
    backend_spans: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        end = span.end
        if end is None:
            continue
        if end > horizon:
            horizon = end
        category = span.category
        if category == "client":
            clients[str(span.attrs.get("tenant") or span.actor)].append(span)
        elif span.phase in _SITE_PHASES and span.actor and \
                category != "batch":
            site_spans[span.actor].append(span)
        if category == "stage":
            backend = span.attrs.get("backend")
            if backend:
                backend_spans[str(backend)].append(span)
    for inst in instants:
        if inst.time > horizon:
            horizon = inst.time
    queue_gauges = _gauge_series(source, "queue_depth")
    health_gauges = _gauge_series(source, "health_score")
    planner_gauges = _gauge_series(source, "planner_queue_depth")
    for _, times, _ in (*queue_gauges, *health_gauges, *planner_gauges):
        if times and times[-1] > horizon:
            horizon = times[-1]
    n_windows = int(horizon // w) + 1 if horizon > 0 else 1

    rollups = RunRollups(window_s=w, quantiles=cfg.quantiles, slo_s=slo_s)
    qlabels = [(q, f"p{round(q * 100)}_s") for q in cfg.quantiles]
    bounds = _window_bounds(w, n_windows)
    ends = bounds[1:]

    def emit(scope: str, key: str, cells: List[Dict[str, object]]) -> None:
        # Window i is [bounds[i], bounds[i + 1]). Scopes are emitted
        # backend, site, tenant, with keys sorted within each, so the
        # windows need no final (scope, key, window) sort.
        rollups.windows.extend(map(
            RollupWindow, repeat(scope), repeat(key), range(n_windows),
            bounds, ends, cells,
        ))

    # -- backend scope (planner kinds) ---------------------------------------
    backend_queue = {
        _label(labels, "backend"): (times, values)
        for labels, times, values in planner_gauges
        if _label(labels, "backend") is not None
    }
    for backend in sorted({*backend_spans, *backend_queue}):
        cells = _busy_cells(backend_spans.get(backend, ()), w, bounds)
        depths = _carry_windows(
            *backend_queue.get(backend, _NO_SERIES), bounds
        )
        for stats, depth in zip(cells, depths):
            if depth is not None:
                stats["queue_depth_mean"], stats["queue_depth_max"] = depth
        emit("backend", backend, cells)

    # -- site scope (executors: DRX units, cpu fallback, accelerators) -------
    site_health = {
        _label(labels, "target"): (times, values)
        for labels, times, values in health_gauges
        if _label(labels, "target") is not None
    }
    breaker_events: Dict[str, List[Tuple[float, str]]] = {}
    for inst in instants:
        if inst.category == "breaker" and inst.name.startswith("breaker_"):
            state = str(
                inst.attrs.get("state") or inst.name[len("breaker_"):]
            )
            if state != "reroute":
                breaker_events.setdefault(inst.actor, []).append(
                    (inst.time, state)
                )
    for site in sorted({*site_spans, *site_health, *breaker_events}):
        cells = _busy_cells(site_spans.get(site, ()), w, bounds)
        health = site_health.get(site)
        if health is not None:
            # The last health sample at or before each window's end.
            htimes, hvalues = health
            hidx, hlast = 0, None
            for stats, end in zip(cells, ends):
                while hidx < len(htimes) and htimes[hidx] <= end:
                    hlast = hvalues[hidx]
                    hidx += 1
                if hlast is not None:
                    stats["health"] = hlast
        transitions = breaker_events.get(site)
        if transitions:
            # The breaker state after the last transition at or before
            # each window's end.
            tidx, state = 0, "closed"
            for stats, end in zip(cells, ends):
                while tidx < len(transitions) and transitions[tidx][0] <= end:
                    state = transitions[tidx][1]
                    tidx += 1
                stats["breaker_state"] = state
        emit("site", site, cells)

    # -- tenant scope --------------------------------------------------------
    tenant_queue = {
        _label(labels, "tenant"): (times, values)
        for labels, times, values in queue_gauges
        if _label(labels, "tenant") is not None
    }
    sheds: Dict[str, List[float]] = {}
    for inst in instants:
        if inst.category == "admission" and inst.name in _SHED_NAMES:
            sheds.setdefault(inst.actor, []).append(inst.time)
    for tenant in sorted({*clients, *tenant_queue, *sheds}):
        by_window: Dict[int, List[Span]] = defaultdict(list)
        for span in clients.get(tenant, ()):
            by_window[int(span.end // w)].append(span)
        shed_by_window: Dict[int, int] = {}
        for t in sheds.get(tenant, ()):
            i = int(t // w)
            shed_by_window[i] = shed_by_window.get(i, 0) + 1
        depths = _carry_windows(
            *tenant_queue.get(tenant, _NO_SERIES), bounds
        )
        cells = []
        for i, depth in enumerate(depths):
            members = by_window.get(i, ())
            failed = violations = 0
            latencies = []
            for s in members:
                duration = s.end - s.start
                latencies.append(duration)
                if s.attrs.get("failed"):
                    failed += 1
                elif slo_s is not None and duration > slo_s:
                    violations += 1
            stats: Dict[str, object] = {
                "completed": len(members),
                "failed": failed,
                "violations": violations,
                "goodput_rps": (len(members) - failed - violations) / w,
                "shed": shed_by_window.get(i, 0),
            }
            if members:
                latencies.sort()
                stats["mean_s"] = sum(latencies) / len(latencies)
                stats["max_s"] = latencies[-1]
                for q, label in qlabels:
                    stats[label] = exact_percentile(latencies, q)
            if depth is not None:
                stats["queue_depth_mean"], stats["queue_depth_max"] = depth
            cells.append(stats)
        emit("tenant", tenant, cells)
    return rollups
