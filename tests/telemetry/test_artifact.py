"""Run artifacts: round-trip, validation, byte determinism, export."""

import json

import pytest

from repro.core import DMXSystem, Mode, SystemConfig
from repro.serve import (
    FrontendConfig,
    ServingFrontend,
    TenantSpec,
    make_arrivals,
)
from repro.telemetry import (
    SCHEMA_VERSION,
    chrome_trace,
    load_artifact,
    validate_artifact,
    write_artifact,
    write_chrome_trace,
)
from repro.workloads import build_benchmark_chains


def serve_once(seed, mode=Mode.BUMP_IN_WIRE, n_requests=6):
    chains = build_benchmark_chains("sound-detection", 2)
    system = DMXSystem(chains, SystemConfig(mode=mode))
    tenants = [
        TenantSpec(
            name=chain.name,
            arrivals=make_arrivals("poisson", 150.0),
            n_requests=n_requests,
        )
        for chain in chains
    ]
    frontend = ServingFrontend(
        system, tenants, FrontendConfig(slo_s=50e-3), seed=seed
    )
    return frontend.run()


def write_run(tmp_path, seed, name):
    result = serve_once(seed)
    path = tmp_path / name
    write_artifact(str(path), result.telemetry, meta={"seed": seed})
    return path, result


def test_artifact_round_trip(tmp_path):
    path, result = write_run(tmp_path, seed=3, name="run.jsonl")
    artifact = load_artifact(str(path))
    assert artifact.schema == SCHEMA_VERSION
    assert artifact.meta == {"seed": 3}
    assert len(artifact.spans) == len(result.telemetry.spans)
    assert artifact.request_ids() == sorted(
        {r.request_id for r in result.records}
    )
    # Metrics survive the round trip.
    tenant = result.records[0].app
    assert artifact.counter_value("arrivals", tenant=tenant) >= 1
    assert artifact.gauge_samples("inflight")  # sampler ran


def test_artifact_validates_clean(tmp_path):
    path, _ = write_run(tmp_path, seed=1, name="run.jsonl")
    assert validate_artifact(str(path)) == []


def test_same_seed_byte_identical_artifact(tmp_path):
    path_a, _ = write_run(tmp_path, seed=11, name="a.jsonl")
    path_b, _ = write_run(tmp_path, seed=11, name="b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_different_seed_differs(tmp_path):
    path_a, _ = write_run(tmp_path, seed=11, name="a.jsonl")
    path_c, _ = write_run(tmp_path, seed=12, name="c.jsonl")
    assert path_a.read_bytes() != path_c.read_bytes()


def test_chrome_trace_export_is_deterministic_and_loadable(tmp_path):
    result_a = serve_once(seed=5)
    result_b = serve_once(seed=5)
    trace_a = tmp_path / "a.trace.json"
    trace_b = tmp_path / "b.trace.json"
    write_chrome_trace(str(trace_a), result_a.telemetry)
    write_chrome_trace(str(trace_b), result_b.telemetry)
    assert trace_a.read_bytes() == trace_b.read_bytes()

    trace = json.loads(trace_a.read_text())
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in events}
    assert "X" in phases and "M" in phases
    # Every complete event sits on a named track.
    named = {e["tid"] for e in events if e["ph"] == "M"}
    assert all(e["tid"] in named for e in events if e["ph"] == "X")
    # Timestamps are microseconds, non-negative durations.
    assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")


def test_chrome_trace_from_loaded_artifact_matches_live(tmp_path):
    path, result = write_run(tmp_path, seed=7, name="run.jsonl")
    live = chrome_trace(result.telemetry)["traceEvents"]
    loaded = chrome_trace(load_artifact(str(path)))["traceEvents"]
    assert live == loaded


def test_validate_flags_structural_problems(tmp_path):
    path = tmp_path / "broken.jsonl"
    lines = [
        json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "meta": {}}),
        json.dumps({
            "kind": "span", "id": 1, "parent": 99, "req": 0, "name": "x",
            "cat": "dma", "actor": "a", "phase": "", "start": 2.0,
            "end": 1.0, "attrs": {},
        }),
        json.dumps({"kind": "gauge", "name": "g", "labels": {},
                    "samples": [[2.0, 1.0], [1.0, 1.0]]}),
        json.dumps({"kind": "histogram", "name": "h", "labels": {},
                    "bounds": [1.0], "counts": [1], "sum": 0.5, "count": 1}),
        json.dumps({"kind": "mystery"}),
    ]
    path.write_text("\n".join(lines) + "\n")
    problems = validate_artifact(str(path))
    text = "\n".join(problems)
    assert "ends before start" in text
    assert "parent 99" in text
    assert "unordered" in text
    assert "length mismatch" in text
    assert "unknown kind" in text


def test_validate_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        json.dumps({"kind": "meta", "schema": 0, "meta": {}}) + "\n"
    )
    assert any("schema" in p for p in validate_artifact(str(path)))


def test_first_non_blank_line_is_the_meta_record(tmp_path):
    path, result = write_run(tmp_path, seed=3, name="run.jsonl")
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n  \n" + path.read_text())
    artifact = load_artifact(str(padded))
    assert artifact.meta == {"seed": 3}
    assert len(artifact.spans) == len(result.telemetry.spans)
    assert validate_artifact(str(padded)) == []

    headless = tmp_path / "headless.jsonl"
    headless.write_text("\n" + path.read_text().split("\n", 1)[1])
    with pytest.raises(
        ValueError, match=r"headless\.jsonl:2: first line must be the meta"
    ):
        load_artifact(str(headless))


def test_load_rejects_a_second_meta_record(tmp_path):
    meta = json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "meta": {}})
    path = tmp_path / "twice.jsonl"
    path.write_text(meta + "\n\n" + meta + "\n")
    with pytest.raises(
        ValueError, match=r"twice\.jsonl:3: duplicate meta record"
    ):
        load_artifact(str(path))


def test_validate_numbers_file_lines(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n".join([
        "",
        json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "meta": {}}),
        json.dumps({
            "kind": "span", "id": 0, "parent": -1, "req": 0, "name": "x",
            "cat": "dma", "actor": "a", "phase": "", "start": 2.0,
            "end": 1.0, "attrs": {},
        }),
        "",
        "{",
        json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "meta": {}}),
    ]) + "\n")
    assert validate_artifact(str(path)) == [
        "line 3: span 0 ends before start",
        "line 5: invalid JSON (Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1))",
        "line 6: duplicate meta record",
    ]
