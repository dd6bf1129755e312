"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

import cProfile
import json
import os
import pstats
import re
import statistics

import pytest

from bench import harness, ledger
from bench.ledger import LAYERS, layer_of, layer_self_times
from bench.metrics import (
    END_TO_END,
    MODELED,
    PER_LAYER,
    Metric,
    summarize,
    verdict,
)
from bench.workloads import WORKLOADS, run_part, tally_part

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(os.sep, "x", "src", "repro")


def _src(*parts):
    return os.path.join(PKG, *parts)


def test_layer_of_maps_module_paths():
    assert layer_of(_src("serve", "slo.py"), PKG) == "serve"
    assert layer_of(_src("core", "system.py"), PKG) == "core"
    assert layer_of(_src("drx", "compiler", "ir.py"), PKG) == "drx"
    assert layer_of(_src("profiles.py"), PKG) == "other"
    assert layer_of(_src("accelerators", "base.py"), PKG) == "other"
    assert layer_of(_src("__init__.py"), PKG) == "other"
    assert layer_of("/usr/lib/python3/json/encoder.py", PKG) is None
    assert layer_of("~", PKG) is None
    assert layer_of(PKG + "x" + os.sep + "serve.py", PKG) is None


def _edge(ct, nc=1):
    return (nc, nc, ct, ct)


def test_external_frames_are_charged_to_repro_callers():
    sim = (_src("sim", "engine.py"), 1, "run")
    spans = (_src("telemetry", "spans.py"), 2, "begin")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    encode = ("/usr/lib/python3/json/encoder.py", 3, "encode")
    iterencode = ("/usr/lib/python3/json/encoder.py", 4, "iterencode")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        sim: (1, 1, 1.0, 3.0, {}),
        spans: (1, 1, 0.5, 1.5, {sim: _edge(1.5)}),
        # 1/3 of the heap time comes through sim, 2/3 through spans.
        heappush: (3, 3, 0.3, 0.3, {sim: _edge(0.1), spans: _edge(0.2)}),
        # Non-repro called by non-repro (and by itself): charged through.
        encode: (1, 1, 0.4, 0.6, {spans: _edge(0.6)}),
        iterencode: (2, 1, 0.2, 0.2,
                     {encode: _edge(0.2), iterencode: _edge(0.1)}),
        orphan: (1, 1, 0.1, 0.1, {}),
    }
    out = layer_self_times(stats, PKG)
    assert set(out) == set(LAYERS)
    assert sum(out.values()) == pytest.approx(ledger.total_self_time(stats))
    assert out["sim"] == pytest.approx(1.0 + 0.1)
    assert out["telemetry"] == pytest.approx(0.5 + 0.2 + 0.4 + 0.2)
    assert out["external"] == pytest.approx(0.1)


def test_ledger_of_a_real_profile_sums_to_its_self_time(tmp_path):
    profile = cProfile.Profile()
    profile.enable()
    run_part(WORKLOADS["knee"], 0, str(tmp_path), check=True)
    profile.disable()
    stats = pstats.Stats(profile).stats
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    out, missing = ledger.ledger(stats, package_dir)
    total = ledger.total_self_time(stats)
    self_s = sum(out[f"layer.{layer}.self_s"] for layer in LAYERS)
    assert self_s == pytest.approx(total)
    assert sum(out[f"layer.{layer}.share"] for layer in LAYERS) == (
        pytest.approx(1.0)
    )
    assert out["layer.sim.self_s"] > 0 and out["layer.core.self_s"] > 0
    assert missing == []
    assert out["fn.Simulator.run.calls"] == 4  # one per knee point
    assert out["fn.TierCostModel.bids.calls"] == 0


def test_summarize_matches_statistics_quantiles():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "q1": 1.0, "q3": 3.0}
    assert summarize([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    values = [float(v) for v in range(1, 11)]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"median": median, "q1": q1, "q3": q3}
    with pytest.raises(ValueError):
        summarize([])


WALL = Metric("wall_s", "s", "lower", 0.10)
RATE = Metric("sim_req_per_wall_s", "1/s", "higher", 0.10)


@pytest.mark.parametrize("metric, old, new, expected", [
    (WALL, [1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "worse"),
    (WALL, [1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "better"),
    (WALL, [1.0, 1.01, 0.99], [1.02, 1.03, 1.01], "within"),
    (WALL, [1.0, 1.01, 0.99], [0.99, 1.0, 0.995], "within"),
    (WALL, [1.0, 1.01, 0.99], [0.93, 0.94, 0.92], "within"),
    (WALL, [1.0, 1.5, 0.7], [1.0, 1.01, 0.99], "unresolved"),
    (WALL, [1.0, 1.5, 0.7], [0.5, 0.6, 0.4], "better"),
    (RATE, [100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "worse"),
    (RATE, [100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "better"),
    (RATE, [100.0, 100.0, 100.0], [100.0, 100.0, 100.0], "within"),
])
def test_compare_verdicts(metric, old, new, expected):
    assert verdict(metric, old, new)[0] == expected


def test_verdict_delta_is_signed_towards_worse():
    assert verdict(WALL, [1.0], [1.1])[1] == pytest.approx(0.1)
    assert verdict(RATE, [100.0], [110.0])[1] == pytest.approx(-0.1)


def _report(name, sha, wall):
    end_to_end = {
        m.name: {"unit": m.unit, **summarize([1.0]), "values": [1.0]}
        for m in END_TO_END
    }
    end_to_end["wall_per_ref"] = {
        "unit": "ratio", **summarize(wall), "values": wall,
    }
    per_layer = {key: {"value": 1.0} for key in MODELED}
    return {"workload": name, "output_sha256": sha,
            "end_to_end": end_to_end, "per_layer": per_layer}


def _write(directory, report):
    directory.mkdir(exist_ok=True)
    path = directory / f"BENCH_{report['workload']}.json"
    path.write_text(json.dumps(report))
    return path


def test_compare_exits_nonzero_on_worse_or_changed_digest(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, _report("knee", "a", [1.0, 1.0, 1.0]))
    _write(new, _report("knee", "a", [1.02, 1.02, 1.02]))
    assert harness.compare(str(old), str(new)) == 0
    assert "digests: equal for 1 of 1" in capsys.readouterr().out
    _write(new, _report("knee", "b", [1.0, 1.0, 1.0]))
    assert harness.compare(str(old), str(new)) == 1
    assert "digests: CHANGED for knee" in capsys.readouterr().out
    path = _write(new, _report("knee", "a", [1.5, 1.5, 1.5]))
    assert harness.compare(str(old / "BENCH_knee.json"), str(path)) == 1
    assert "worse" in capsys.readouterr().out


def test_metric_names_are_valid_and_listed_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    every = [m.name for m in END_TO_END + PER_LAYER]
    assert all(name.match(n) for n in every)
    assert len(set(every)) == len(every)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert spec["run_seconds"] == harness.RUN_SECONDS
    assert any(m.name == "setup_s" for m in END_TO_END)
    assert len(PER_LAYER) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_digest_other_seed_other_digest(name, tmp_path):
    def digest(seed):
        return tally_part(
            run_part(WORKLOADS[name], seed, str(tmp_path), check=True)
        )[1]

    first = digest(0)
    assert digest(0) == first
    assert digest(1) != first


def test_check_mode_matches_pinned_outputs(capsys):
    assert harness.check() == 0, capsys.readouterr().out
