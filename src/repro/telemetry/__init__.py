"""Always-on observability for the DMX reproduction.

The paper's evaluation is an *attribution* exercise — end-to-end time
split into kernel vs. restructuring vs. movement, per placement. This
package is the measurement substrate that makes the same attribution
possible on every simulated run without rerunning it:

* :mod:`repro.telemetry.spans` — hierarchical, causally-linked spans
  (request → stage → dma/drx/kernel/notify) emitted by the system
  model, the interconnect, the DRX devices, the fault plane, and the
  serving frontend;
* :mod:`repro.telemetry.metrics` — counters, gauges, and histograms
  sampled on simulated time (queue depths, utilizations, retries);
* :mod:`repro.telemetry.artifact` — deterministic JSON-lines run
  artifacts (``schema: 2``, v1 still loads), byte-identical given
  equal seeds;
* :mod:`repro.telemetry.export` — Chrome trace-event / Perfetto
  exporter (open any run at ``ui.perfetto.dev``), with rollup counter
  tracks and alert instants when the observation plane ran;
* :mod:`repro.telemetry.report` — per-request waterfalls, phase
  breakdown tables, and critical-path attribution;
* :mod:`repro.telemetry.rollup` / :mod:`repro.telemetry.alerts` — the
  SLO observation plane: windowed per-tenant/site/backend rollups and
  the multi-window burn-rate alert engine with root-cause attribution,
  both computed post hoc so arming them cannot perturb a run;
* :mod:`repro.telemetry.sampling` — deterministic head-based trace
  sampling that always keeps incident-relevant traces;
* :mod:`repro.telemetry.diff` / :mod:`repro.telemetry.dashboard` — the
  differential-diagnosis engine and the dependency-free SVG dashboard;
* ``python -m repro.telemetry`` — the report/diff/dashboard CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "artifact": (
        "SCHEMA_VERSION", "SUPPORTED_SCHEMAS", "RunArtifact",
        "artifact_lines", "write_artifact", "load_artifact",
        "validate_artifact",
    ),
    "export": ("chrome_trace", "write_chrome_trace"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "time_weighted_mean", "DEFAULT_LATENCY_BUCKETS",
    ),
    "report": (
        "IDLE_KEY", "critical_path", "critical_path_summary",
        "on_critical_path", "phase_totals", "run_phase_totals",
        "render_report", "report_dict", "site_critical_path",
        "site_critical_path_summary", "waterfall",
    ),
    "rollup": ("RollupConfig", "RollupWindow", "RunRollups", "compute_rollups"),
    "alerts": (
        "AlertConfig", "AlertEvent", "ObservationConfig", "evaluate_alerts",
        "observe_run",
    ),
    "sampling": ("SamplingConfig", "SamplePlan", "plan_sampling"),
    "diff": ("diff_runs", "render_diff"),
    "dashboard": ("render_dashboard",),
    "runtime": ("SpanContext", "SpanStep", "Telemetry"),
    "spans": ("ROOT_PARENT", "ActiveSpan", "Instant", "Span", "SpanTracker"),
})
