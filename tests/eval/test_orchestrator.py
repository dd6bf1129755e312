"""Sharded sweep orchestration: determinism, crash resume, incremental
re-runs, and the experiment store's claiming discipline."""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import Mode, SystemConfig
from repro.drx import DRXConfig
from repro.eval.orchestrator import (
    ExperimentStore,
    IncompleteGridError,
    OrchestratorError,
    _worker_main,
    collect,
    decode_experiment,
    encode_experiment,
    fill_store,
    grid_points,
    main,
    point_key,
    run_grid,
    run_workers,
)
from repro.faults import FaultPlan, FaultPolicy
from repro.interconnect import PCIeGen
from repro.resilience import ChaosSweepConfig, run_chaos_sweep
from repro.serve import ShedPolicy, SweepConfig, run_sweep
from repro.telemetry import (
    AlertConfig,
    ObservationConfig,
    RollupConfig,
    SamplingConfig,
)


def small_sweep(**overrides):
    defaults = dict(
        offered_loads_rps=(40.0, 160.0),
        benchmark="sound-detection",
        n_tenants=2,
        requests_per_tenant=4,
        modes=(Mode.MULTI_AXL, Mode.BUMP_IN_WIRE),
        sample_period_s=None,
        seed=5,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def observed_sweep():
    """Two points on a derated Gen 4 system with the observation plane
    and trace sampling armed, like the telemetry demo's sweeps."""
    return small_sweep(
        modes=(Mode.BUMP_IN_WIRE,),
        system=SystemConfig(
            pcie_gen=PCIeGen.GEN4, drx=DRXConfig(frequency_hz=0.5e9),
        ),
        observation=ObservationConfig(
            rollup=RollupConfig(window_s=5e-3),
            alerts=AlertConfig(budget=0.2),
        ),
        sampling=SamplingConfig(keep_fraction=0.5, seed=1),
    )


def small_chaos(**overrides):
    defaults = dict(
        offered_loads_rps=(60.0,),
        fault_intensities=(0.5,),
        requests_per_tenant=4,
        sample_period_s=None,
        seed=3,
    )
    defaults.update(overrides)
    return ChaosSweepConfig(**defaults)


# -- codec ---------------------------------------------------------------


def test_config_codec_round_trips_sweep_config():
    config = small_sweep(
        shed=ShedPolicy.REJECT,
        faults=FaultPlan(seed=9, drx=FaultPolicy(hang_p=0.2)),
    )
    kind, decoded = decode_experiment(
        json.loads(json.dumps(encode_experiment(config)))
    )
    assert kind == "sweep"
    assert decoded == config


def test_config_codec_round_trips_system_observation_and_sampling():
    config = observed_sweep()
    kind, decoded = decode_experiment(
        json.loads(json.dumps(encode_experiment(config)))
    )
    assert kind == "sweep"
    assert decoded == config


def test_config_codec_round_trips_chaos_config():
    config = small_chaos(control_plane=(False, True))
    kind, decoded = decode_experiment(
        json.loads(json.dumps(encode_experiment(config)))
    )
    assert kind == "chaos"
    assert decoded == config


def test_chain_factory_closures_are_rejected():
    config = small_sweep(chain_factory=lambda: [])
    with pytest.raises(OrchestratorError, match="chain_factory"):
        encode_experiment(config)


def test_point_keys_are_stable_and_coordinate_distinct():
    specs = grid_points(small_sweep())
    keys = [point_key(s) for s in specs]
    assert len(set(keys)) == len(keys)  # every grid point distinct
    assert keys == [point_key(s) for s in grid_points(small_sweep())]


# -- store discipline ----------------------------------------------------


def test_fill_is_idempotent_and_claim_is_exclusive(tmp_path):
    db = str(tmp_path / "exp.db")
    specs = grid_points(small_sweep())
    with ExperimentStore(db) as store:
        assert store.fill(specs) == len(specs)
        assert store.fill(specs) == 0  # nothing new on re-fill
        first = store.claim("w1")
        assert first is not None
        claimed = {first[0]}
        while True:
            nxt = store.claim("w2")
            if nxt is None:
                break
            assert nxt[0] not in claimed  # a row is handed out once
            claimed.add(nxt[0])
        assert len(claimed) == len(specs)
        assert store.counts()["running"] == len(specs)


def test_reclaim_requeues_running_and_error_rows(tmp_path):
    db = str(tmp_path / "exp.db")
    specs = grid_points(small_sweep())
    with ExperimentStore(db) as store:
        store.fill(specs)
        key, _ = store.claim("crashed-worker")
        other, _ = store.claim("w2")
        store.fail(other, "boom")
        assert store.counts() == {
            "pending": len(specs) - 2, "running": 1, "done": 0, "error": 1,
        }
        assert store.reclaim_stale() == 2
        assert store.counts()["pending"] == len(specs)


def test_collect_refuses_an_incomplete_grid(tmp_path):
    db = str(tmp_path / "exp.db")
    config = small_sweep()
    fill_store(db, config)
    with pytest.raises(IncompleteGridError):
        collect(db, config)


# -- end-to-end determinism ----------------------------------------------


def test_orchestrated_sweep_is_byte_identical_to_run_sweep(tmp_path):
    config = small_sweep()
    direct = run_sweep(config).to_json()
    result = run_grid(str(tmp_path / "exp.db"), config, n_workers=2)
    assert result.to_json() == direct


def test_orchestrated_observed_sweep_is_byte_identical(tmp_path):
    config = observed_sweep()
    result = run_grid(str(tmp_path / "exp.db"), config, n_workers=0)
    assert result.to_json() == run_sweep(config).to_json()


def test_orchestrated_chaos_is_byte_identical_to_run_chaos_sweep(tmp_path):
    config = small_chaos()
    direct = run_chaos_sweep(config).to_json()
    result = run_grid(str(tmp_path / "exp.db"), config, n_workers=2)
    assert result.to_json() == direct


def test_killed_worker_resumes_to_byte_identical_result(tmp_path):
    """SIGKILL a worker mid-grid; the resumed run must reclaim the
    orphaned claim, skip finished points, and collect byte-identically."""
    config = small_sweep()
    direct = run_sweep(config).to_json()
    db = str(tmp_path / "exp.db")
    fill_store(db, config)

    context = multiprocessing.get_context("fork")
    proc = context.Process(target=_worker_main, args=(db, "victim"))
    proc.start()
    # Kill as soon as at least one point finished (mid-grid, not after).
    deadline = time.time() + 60
    killed_after = None
    try:
        while time.time() < deadline:
            with ExperimentStore(db) as store:
                counts = store.counts()
            if counts["done"] >= 1 and counts["done"] < 4:
                killed_after = counts["done"]
                break
            if counts["done"] == 4:  # worker outran the poll; still fine
                killed_after = 4
                break
            time.sleep(0.01)
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()
    assert killed_after is not None, "worker made no progress in 60s"

    # Resume: stale 'running' rows are reclaimed, done rows are kept.
    with ExperimentStore(db) as store:
        done_before = {
            key
            for key, row in store.results_for(
                [point_key(s) for s in grid_points(config)]
            ).items()
            if row is not None
        }
    counts = run_workers(db, n_workers=2)
    assert counts == {"pending": 0, "running": 0, "done": 4, "error": 0}
    with ExperimentStore(db) as store:
        attempts = dict(
            store._conn.execute(
                "SELECT point_key, attempts FROM experiments"
            ).fetchall()
        )
    # Finished points were not re-run on resume.
    for key in done_before:
        assert attempts[key] == 1
    assert collect(db, config).to_json() == direct


def test_changed_config_reruns_exactly_the_changed_points(tmp_path):
    """Editing the grid re-fills only the points whose content hash
    changed; finished points of the old grid are reused untouched."""
    db = str(tmp_path / "exp.db")
    config = small_sweep(modes=(Mode.MULTI_AXL,))
    run_grid(db, config, n_workers=0)

    # Same config: nothing new to do.
    assert fill_store(db, config) == 0

    # Adding a mode adds exactly that mode's points.
    wider = small_sweep(modes=(Mode.MULTI_AXL, Mode.BUMP_IN_WIRE))
    assert fill_store(db, wider) == len(config.offered_loads_rps)
    with ExperimentStore(db) as store:
        assert store.counts()["pending"] == len(config.offered_loads_rps)
    result = run_grid(db, wider, n_workers=0)
    assert result.to_json() == run_sweep(wider).to_json()

    with ExperimentStore(db) as store:
        attempts = dict(
            store._conn.execute(
                "SELECT point_key, attempts FROM experiments"
            ).fetchall()
        )
    # The original mode's points ran once, ever.
    for spec in grid_points(config):
        assert attempts[point_key(spec)] == 1

    # Changing one load value re-runs exactly that column of the grid.
    shifted = small_sweep(
        modes=(Mode.MULTI_AXL, Mode.BUMP_IN_WIRE),
        offered_loads_rps=(40.0, 200.0),
    )
    assert fill_store(db, shifted) == len(shifted.modes)  # 200.0 only
    assert run_grid(db, shifted, n_workers=0).to_json() == \
        run_sweep(shifted).to_json()


def test_failing_point_is_recorded_not_fatal(tmp_path):
    db = str(tmp_path / "exp.db")
    config = small_sweep(modes=(Mode.MULTI_AXL,), offered_loads_rps=(40.0,))
    fill_store(db, config)
    # Corrupt the stored spec so the worker's run_point raises.
    with ExperimentStore(db) as store:
        store._conn.execute(
            "UPDATE experiments SET spec_json=json_set(spec_json,"
            " '$.kind', 'nonsense')"
        )
        store._conn.commit()
    counts = run_workers(db, n_workers=0)
    assert counts["error"] == 1
    with pytest.raises(OrchestratorError):
        run_grid(db, config, n_workers=0)


# -- CLI -----------------------------------------------------------------


def test_cli_fill_run_status_collect_round_trip(tmp_path, capsys):
    config = small_sweep(modes=(Mode.MULTI_AXL,))
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(encode_experiment(config), handle)
    db = str(tmp_path / "exp.db")
    out = str(tmp_path / "result.json")

    assert main(["fill", "--db", db, "--spec", spec_path]) == 0
    assert main([
        "run", "--db", db, "--spec", spec_path, "--serial",
        "--max-points", "1",
    ]) == 0
    assert "pending=1" in capsys.readouterr().out.splitlines()[-1]
    assert main(["run", "--db", db, "--spec", spec_path, "--serial"]) == 0
    assert main(["status", "--db", db]) == 0
    assert "done=2" in capsys.readouterr().out.splitlines()[-1]
    assert main([
        "collect", "--db", db, "--spec", spec_path, "--out", out,
    ]) == 0
    with open(out, "r", encoding="utf-8") as handle:
        assert handle.read().strip() == run_sweep(config).to_json()
