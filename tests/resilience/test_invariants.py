"""The conservation invariant checker: clean artifacts pass, seeded
accounting mutations fail loudly.

The checker is the accountability layer of the recovery work — a chaos
or recovery sweep whose artifact double-counts a rescued request, books
time onto a decommissioned domain, or loses an admitted request would
silently corrupt every result built on it. These tests prove the
checker (a) accepts everything the real pipeline produces and (b)
rejects each mutation class it exists to catch.
"""

import json

import pytest

from repro.faults import DomainCrash
from repro.resilience import (
    InvariantViolation,
    RecoveryScenarioConfig,
    run_recovery_scenario,
    verify_artifact_path,
)
from repro.telemetry.__main__ import main as telemetry_main

from .test_recovery import KILL, TARGET, chains, scenario


@pytest.fixture()
def artifact(tmp_path):
    path = str(tmp_path / "run.jsonl")
    run_recovery_scenario(scenario(KILL, artifact_path=path))
    return path


def _mutate(artifact, tmp_path, fn):
    with open(artifact) as fh:
        rows = [json.loads(line) for line in fh]
    fn(rows)
    path = str(tmp_path / "mutated.jsonl")
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return path


# -- clean artifacts pass ------------------------------------------------------


def test_recovery_artifact_passes_all_checks(artifact):
    report = verify_artifact_path(artifact)
    assert report.ok
    assert report.problems == []
    # Every check class ran (the artifact has counters, spans, a
    # decommissioned domain, and rescued requests).
    assert set(report.checked) == {
        "C1-conservation", "C2-containment", "C3-phase-tiling",
        "C4-decommission", "C5-rescue",
    }
    assert report.checked["C5-rescue"] > 0
    assert "PASS" in report.render()
    assert report.raise_on_problems() is report


def test_artifact_without_domains_skips_c4(tmp_path):
    path = str(tmp_path / "plain.jsonl")
    cfg = RecoveryScenarioConfig(
        offered_rps=40e3,
        crashes=(DomainCrash(target=TARGET, at_s=1e9),),
        n_tenants=4, requests_per_tenant=4, chain_factory=chains,
        artifact_path=path, verify=False,
    )
    # Crash far past run end: scheduled but never fires before the
    # frontend drains, so no domain_dead instant lands in the artifact.
    run_recovery_scenario(cfg)
    report = verify_artifact_path(path)
    assert report.ok
    assert "C4-decommission" in report.skipped


# -- each mutation class is caught ---------------------------------------------


def test_double_counted_rescue_fails_c5(artifact, tmp_path):
    def unabandon(rows):
        span = next(
            r for r in rows
            if r["kind"] == "span" and r["cat"] == "request"
            and r["attrs"].get("rescued")
        )
        for r in rows:
            if r["kind"] == "span" and r["req"] == span["req"]:
                r["attrs"].pop("abandoned", None)

    mutated = _mutate(artifact, tmp_path, unabandon)
    report = verify_artifact_path(mutated)
    assert not report.ok
    assert any(p.startswith("C5:") for p in report.problems)
    with pytest.raises(InvariantViolation) as exc:
        report.raise_on_problems()
    assert "C5" in str(exc.value)


def test_lost_request_fails_c1(artifact, tmp_path):
    def bump(rows):
        row = next(
            r for r in rows
            if r["kind"] == "counter" and r["name"] == "admitted"
        )
        row["value"] += 1

    report = verify_artifact_path(_mutate(artifact, tmp_path, bump))
    assert any(p.startswith("C1:") for p in report.problems)


def test_span_on_dead_domain_fails_c4(artifact, tmp_path):
    def forge(rows):
        dead = next(
            r for r in rows
            if r["kind"] == "instant" and r["name"] == "domain_dead"
        )
        top = max(r["id"] for r in rows if r["kind"] == "span")
        rows.append({
            "kind": "span", "id": top + 1, "parent": -1, "req": -1,
            "name": "ghost", "cat": "stage", "actor": dead["actor"],
            "phase": "", "start": dead["time"] + 1e-3,
            "end": dead["time"] + 2e-3, "attrs": {},
        })

    report = verify_artifact_path(_mutate(artifact, tmp_path, forge))
    assert any(p.startswith("C4:") for p in report.problems)


def test_escaped_child_span_fails_c2(artifact, tmp_path):
    def stretch(rows):
        spans = [r for r in rows if r["kind"] == "span"]
        parents = {r["parent"] for r in spans}
        child = next(
            r for r in spans
            if r["parent"] != -1 and r["cat"] != "client"
            and r["id"] not in parents
        )
        child["end"] = child["end"] + 1.0

    report = verify_artifact_path(_mutate(artifact, tmp_path, stretch))
    assert any(p.startswith("C2:") for p in report.problems)


def test_unbalanced_phase_books_fail_c3(artifact, tmp_path):
    def shrink(rows):
        req = next(
            r for r in rows
            if r["kind"] == "span" and r["cat"] == "request"
            and not r["attrs"].get("batched")
            and not r["attrs"].get("failed")
        )
        kernel = next(
            r for r in rows
            if r["kind"] == "span" and r["parent"] == req["id"]
            and r["phase"]
        )
        kernel["end"] = kernel["start"] + (kernel["end"] - kernel["start"]) / 2

    report = verify_artifact_path(_mutate(artifact, tmp_path, shrink))
    assert any(
        p.startswith(("C3:", "C2:")) for p in report.problems
    )


# -- the CLI spelling ----------------------------------------------------------


def test_cli_verify_passes_clean_artifact(artifact, capsys):
    assert telemetry_main(["verify", artifact]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_verify_fails_mutated_artifact(artifact, tmp_path, capsys):
    def bump(rows):
        row = next(
            r for r in rows
            if r["kind"] == "counter" and r["name"] == "admitted"
        )
        row["value"] += 1

    mutated = _mutate(artifact, tmp_path, bump)
    assert telemetry_main(["verify", artifact, mutated]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
