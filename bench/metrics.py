"""Metric definitions, summary statistics and the ``compare`` verdicts.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units, directions and bounds; ``BENCHMARK.json`` at the repo root
lists the same metrics (a test keeps the two equal).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ledger import metric_names as ledger_names
from .workloads import BACKEND_KINDS, CONTROL_KINDS, PHASES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: Share of the baseline median the metric may worsen by (end-to-end).
    bound: Optional[float] = None


#: What a user sees. The host's speed drifts by about +-10% over minutes
#: on a shared 2-core box, so the simulator's cost is gated as host time
#: over the reference loop's (``bench/reference.py``); raw ``wall_s`` is
#: reported per layer. Goodput varies with the seed by at most ~5% (IQR
#: over 10 seeds), hence its 15%.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_per_ref", "ratio", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("sim_goodput_rps", "1/s", "higher", 0.15),
)

#: Modeled latency and outcome metrics. Exact under the seed but too
#: seed-dependent (tails), constant (knee's p50) or zero on some
#: workloads to gate a run with a bound; ``compare`` reports each as
#: equal or changed, and the output digest covers them.
MODELED = (
    "sim_p50_ms", "sim_p99_ms", "sim_p999_ms", "slo_miss_frac",
    "shed_frac", "failed_frac", "sim_completed",
)


def _per_layer() -> Tuple[Metric, ...]:
    def count(name: str) -> Metric:
        return Metric(name, "count", "higher")

    def lower(name: str, unit: str) -> Metric:
        return Metric(name, unit, "lower")

    out: List[Metric] = []
    for name in ledger_names():
        if name.endswith(".share"):
            out.append(lower(name, "fraction"))
        elif name.endswith(".calls"):
            out.append(lower(name, "count"))
        else:
            out.append(lower(name, "s"))
    out += [
        lower("wall_s", "s"),
        Metric("sim_req_per_wall_s", "1/s", "higher"),
        lower("trace_overhead", "ratio"),
        lower("sim_p50_ms", "ms"),
        lower("sim_p99_ms", "ms"),
        lower("sim_p999_ms", "ms"),
        lower("slo_miss_frac", "fraction"),
        lower("shed_frac", "fraction"),
        lower("failed_frac", "fraction"),
        count("sim_completed"),
        lower("sim.events", "count"),
        lower("sim.host_us_per_event", "us"),
    ]
    out += [lower(f"core.phase.{p}_ms", "ms") for p in PHASES]
    out += [
        lower("drx.busy_s", "s"),
        lower("interconnect.bytes_moved_mb", "MB"),
        lower("serve.queue_wait_ms", "ms"),
        lower("serve.max_queue_depth", "count"),
        count("serve.batches"),
        count("serve.mean_batch_size"),
    ]
    out += [count(f"backends.legs.{k}") for k in BACKEND_KINDS]
    out.append(lower("backends.rerouted", "count"))
    out += [lower(f"control.actions.{k}", "count") for k in CONTROL_KINDS]
    out += [
        lower("resilience.rerouted", "count"),
        count("resilience.rescued"),
        lower("resilience.drained", "count"),
        lower("resilience.detect_ms", "ms"),
        lower("telemetry.spans", "count"),
        lower("telemetry.artifact_mb", "MB"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


# -- summary statistics -------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(values, n=4)``)."""
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def spread(summary: Dict[str, float]) -> float:
    """Quartile distance as a share of the median."""
    if summary["median"] == 0:
        return 0.0 if summary["q3"] == summary["q1"] else float("inf")
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(
    metric: Metric,
    old: Sequence[float],
    new: Sequence[float],
) -> Tuple[str, float]:
    """``(verdict, delta)`` of ``new`` against ``old`` for one metric.

    ``delta`` is the change of the median as a share of the old median,
    positive meaning worse. ``unresolved`` when either side's quartile
    spread is wider than the bound, unless every new value beats every
    old one; otherwise ``worse`` or ``better`` when the median moved by
    more than the bound, else ``within``.
    """
    a, b = summarize(old), summarize(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    base = a["median"]
    if base == 0:
        delta = 0.0 if b["median"] == 0 else sign * float("inf")
    else:
        delta = sign * (b["median"] - base) / abs(base)
    noisy = max(spread(a), spread(b)) > metric.bound
    if noisy and not all(sign * (y - x) > 0 for x in new for y in old):
        return "unresolved", delta
    if delta > metric.bound:
        return "worse", delta
    if delta < -metric.bound:
        return "better", delta
    return "within", delta
