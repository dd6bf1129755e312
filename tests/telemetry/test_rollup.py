"""Windowed rollups: window edges, gauge carry, scopes, determinism."""

import json
from array import array

import pytest

from repro.telemetry import RollupConfig, RunArtifact, compute_rollups
from repro.telemetry.rollup import RollupWindow, _carry_window
from repro.telemetry.spans import ROOT_PARENT, Instant, Span

W = 10e-3


def client(span_id, tenant, start, end, failed=False, request_id=None):
    attrs = {"tenant": tenant}
    if failed:
        attrs["failed"] = True
    return Span(
        span_id=span_id, parent_id=ROOT_PARENT,
        request_id=span_id if request_id is None else request_id,
        name=f"req:{tenant}", category="client", actor=tenant,
        phase="", start=start, end=end, attrs=attrs,
    )


def site_span(span_id, actor, phase, start, end, request_id=0):
    return Span(
        span_id=span_id, parent_id=ROOT_PARENT, request_id=request_id,
        name=phase, category=phase, actor=actor, phase=phase,
        start=start, end=end,
    )


def artifact(spans=(), instants=(), gauges=None, meta=None):
    return RunArtifact(
        schema=2, meta=dict(meta or {}), spans=list(spans),
        instants=list(instants), gauges=dict(gauges or {}),
    )


def test_windows_key_on_completion_time():
    art = artifact([
        client(1, "a", start=1e-3, end=4e-3),       # window 0
        client(2, "a", start=2e-3, end=12e-3),      # window 1 (by end)
    ])
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    windows = rollups.for_key("tenant", "a")
    assert [x.stats["completed"] for x in windows] == [1, 1]
    assert windows[0].start == 0.0 and windows[0].end == W


def test_empty_windows_are_emitted_with_zeros():
    # One completion in window 0, one in window 3: windows 1-2 must
    # still exist (a controller reading the series needs the zeros).
    art = artifact([
        client(1, "a", 0.0, 2e-3),
        client(2, "a", 30e-3, 32e-3),
    ])
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    windows = rollups.for_key("tenant", "a")
    assert len(windows) == 4
    for empty in windows[1:3]:
        assert empty.stats["completed"] == 0
        assert empty.stats["goodput_rps"] == 0.0
        assert "mean_s" not in empty.stats  # no members: no latency stats
        assert "p99_s" not in empty.stats


def test_single_sample_window_percentiles_degrade_to_the_sample():
    art = artifact([client(1, "a", 0.0, 3e-3)])
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    (window,) = rollups.for_key("tenant", "a")
    assert window.stats["p50_s"] == pytest.approx(3e-3)
    assert window.stats["p95_s"] == pytest.approx(3e-3)
    assert window.stats["p99_s"] == pytest.approx(3e-3)
    assert window.stats["mean_s"] == pytest.approx(3e-3)
    assert window.stats["max_s"] == pytest.approx(3e-3)


def test_violations_and_goodput_respect_slo():
    art = artifact([
        client(1, "a", 0.0, 2e-3),                  # inside SLO
        client(2, "a", 0.0, 9e-3),                  # violates 5ms SLO
        client(3, "a", 1e-3, 6e-3, failed=True),    # failed: not a violation
    ])
    rollups = compute_rollups(art, RollupConfig(window_s=W), slo_s=5e-3)
    (window,) = rollups.for_key("tenant", "a")
    assert window.stats["completed"] == 3
    assert window.stats["failed"] == 1
    assert window.stats["violations"] == 1
    # goodput counts only non-failed, non-violating completions
    assert window.stats["goodput_rps"] == pytest.approx(1 / W)


def test_slo_defaults_from_artifact_meta():
    art = artifact([client(1, "a", 0.0, 9e-3)], meta={"slo_s": 5e-3})
    rollups = compute_rollups(art)
    assert rollups.slo_s == 5e-3
    (window,) = rollups.for_key("tenant", "a")
    assert window.stats["violations"] == 1


def test_shed_instants_count_per_window():
    art = artifact(
        [client(1, "a", 0.0, 1e-3)],
        instants=[
            Instant(time=2e-3, name="shed", category="admission", actor="a"),
            Instant(time=3e-3, name="brownout_shed", category="admission",
                    actor="a"),
            Instant(time=4e-3, name="other", category="admission", actor="a"),
        ],
    )
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    (window,) = rollups.for_key("tenant", "a")
    assert window.stats["shed"] == 2


def test_gauge_carry_window_lvcf():
    samples = [(2e-3, 4.0), (6e-3, 8.0)]
    mean, peak = _carry_window(samples, 0e-3, 10e-3)
    # no value before 2ms: first sample backfills; 4.0 until 6ms, then 8.0
    assert peak == 8.0
    assert mean == pytest.approx((4.0 * 6e-3 + 8.0 * 4e-3) / 10e-3)
    # carried forward into a later window with no samples of its own
    mean2, peak2 = _carry_window(samples, 10e-3, 20e-3)
    assert (mean2, peak2) == (8.0, 8.0)
    # nothing at or before the window: stat omitted, not faked as zero
    assert _carry_window([(15e-3, 1.0)], 0.0, 10e-3) is None


def test_carry_windows_matches_per_window_reference():
    # the streaming cursor variant, over a gauge's time and value
    # columns, must produce the exact floats of the per-window
    # reference scan over its samples, window for window
    from repro.telemetry.rollup import _carry_windows, _window_bounds

    def streamed(samples, n_windows):
        return _carry_windows(
            [t for t, _ in samples], array("d", [v for _, v in samples]),
            _window_bounds(W, n_windows),
        )

    samples = [
        (0.5e-3, 3.0), (2e-3, 4.0), (6e-3, 8.0), (13e-3, 1.0),
        (13.5e-3, 5.0), (31e-3, 2.0),
    ]
    for i, got in enumerate(streamed(samples, 5)):
        assert got == _carry_window(samples, i * W, (i + 1) * W)
    # a gauge starting mid-run: leading windows omitted, not zeroed
    late = streamed([(25e-3, 7.0)], 4)
    assert late[0] is None and late[1] is None
    assert late[2] == _carry_window([(25e-3, 7.0)], 2 * W, 3 * W)
    assert late[3] == _carry_window([(25e-3, 7.0)], 3 * W, 4 * W)
    assert streamed([], 3) == [None, None, None]


def test_queue_depth_from_tenant_gauge():
    art = artifact(
        [client(1, "a", 0.0, 1e-3)],
        gauges={("queue_depth", (("tenant", "a"),)): [(0.0, 2.0), (5e-3, 6.0)]},
    )
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    (window,) = rollups.for_key("tenant", "a")
    assert window.stats["queue_depth_max"] == 6.0
    assert window.stats["queue_depth_mean"] == pytest.approx(4.0)


def test_site_busy_time_splits_across_windows():
    art = artifact([
        site_span(1, "drx0", "restructuring", 8e-3, 14e-3),
    ])
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    windows = rollups.for_key("site", "drx0")
    assert windows[0].stats["busy_s"] == pytest.approx(2e-3)
    assert windows[1].stats["busy_s"] == pytest.approx(4e-3)
    assert windows[0].stats["utilization"] == pytest.approx(0.2)
    # the leg lands in the window of its end
    assert windows[0].stats["legs"] == 0
    assert windows[1].stats["legs"] == 1


def test_breaker_state_carries_forward():
    art = artifact(
        [site_span(1, "drx0", "restructuring", 0.0, 1e-3)],
        instants=[
            Instant(time=12e-3, name="breaker_open", category="breaker",
                    actor="drx0", attrs={"state": "open", "from": "closed"}),
            Instant(time=25e-3, name="breaker_half_open", category="breaker",
                    actor="drx0",
                    attrs={"state": "half_open", "from": "open"}),
        ],
    )
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    states = [
        x.stats["breaker_state"] for x in rollups.for_key("site", "drx0")
    ]
    assert states == ["closed", "open", "half_open"]


def test_health_score_gauge_lands_on_site():
    art = artifact(
        [site_span(1, "drx0", "restructuring", 0.0, 1e-3)],
        gauges={("health_score", (("target", "drx0"),)): [(2e-3, 0.5)]},
    )
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    (window,) = rollups.for_key("site", "drx0")
    assert window.stats["health"] == 0.5


def test_backend_scope_from_stage_spans_and_planner_gauge():
    stage = Span(
        span_id=1, parent_id=ROOT_PARENT, request_id=0, name="leg",
        category="stage", actor="", phase="", start=0.0, end=4e-3,
        attrs={"backend": "drx"},
    )
    art = artifact(
        [stage],
        gauges={
            ("planner_queue_depth", (("backend", "drx"),)): [(0.0, 3.0)],
        },
    )
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    (window,) = rollups.for_key("backend", "drx")
    assert window.stats["legs"] == 1
    assert window.stats["busy_s"] == pytest.approx(4e-3)
    assert window.stats["queue_depth_mean"] == 3.0


def test_series_skips_windows_missing_the_stat():
    art = artifact([
        client(1, "a", 0.0, 2e-3),
        client(2, "a", 30e-3, 32e-3),
    ])
    rollups = compute_rollups(art, RollupConfig(window_s=W))
    series = rollups.series("tenant", "a", "p99_s")
    assert [t for t, _ in series] == [0.0, 30e-3]
    # completed exists in every window, zeros included
    assert len(rollups.series("tenant", "a", "completed")) == 4


def test_rollup_rows_round_trip_and_are_deterministic():
    art = artifact(
        [client(1, "a", 0.0, 2e-3), site_span(2, "drx0", "kernel", 0.0, 1e-3)],
        meta={"slo_s": 5e-3},
    )
    one = compute_rollups(art)
    two = compute_rollups(art)
    dump = lambda r: json.dumps(  # noqa: E731
        list(r.to_rows()), sort_keys=True
    )
    assert dump(one) == dump(two)
    for row in one.to_rows():
        again = RollupWindow.from_row(row)
        assert again.to_row() == row


def test_config_validation():
    with pytest.raises(ValueError):
        RollupConfig(window_s=0.0)
    with pytest.raises(ValueError):
        RollupConfig(quantiles=(1.5,))
    with pytest.raises(ValueError):
        RollupConfig(quantiles=())
