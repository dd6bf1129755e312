"""Resumable sharded sweep orchestration over an on-disk experiment store.

The serving sweeps (:func:`repro.serve.run_sweep`) and chaos sweeps
(:func:`repro.resilience.run_chaos_sweep`) are embarrassingly parallel —
every grid point builds its own fresh system and replays independently —
but the in-process drivers run them serially and lose everything on a
crash. This module splits a sweep into its grid points, persists them as
rows in a SQLite **experiment store**, and executes them with a pool of
worker *processes* that claim rows atomically (fill-then-execute, the
py_experimenter discipline):

1. **fill** — expand the config into grid-point rows keyed by a content
   hash of (config, point coordinates). Filling is idempotent: existing
   rows (including finished ones) are left untouched, so re-filling
   after a config edit schedules exactly the points whose hash changed.
2. **execute** — each worker claims one ``pending`` row at a time
   (an ``UPDATE ... WHERE status='pending'`` inside an immediate
   transaction, so two workers can never claim the same point), runs it
   via :func:`repro.serve.sweep.run_sweep_point` /
   :func:`repro.resilience.chaos.run_chaos_cell`, and writes the result
   JSON back. A worker that dies mid-point leaves the row ``running``;
   the next invocation reclaims it (no live workers → every ``running``
   row is stale), so a killed run resumes where it stopped instead of
   starting over.
3. **collect** — reassemble the full :class:`~repro.serve.SweepResult`
   / :class:`~repro.resilience.ChaosSweepResult` from the store in
   canonical grid order. Because each point replays deterministically,
   a crashed-and-resumed grid collects to byte-identical
   ``to_json()`` output as an uninterrupted in-process sweep.

Configs are serialized structurally (dataclasses, enums, tuples) — a
``chain_factory`` closure cannot cross a process boundary or a content
hash, so orchestrated sweeps must use the named-benchmark path.

CLI::

    python -m repro.eval.orchestrator fill    --db exp.db --spec spec.json
    python -m repro.eval.orchestrator run     --db exp.db --spec spec.json \\
        --workers 4
    python -m repro.eval.orchestrator status  --db exp.db
    python -m repro.eval.orchestrator collect --db exp.db --spec spec.json

where ``spec.json`` holds :func:`encode_experiment` output (``kind`` +
encoded config).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import multiprocessing
import os
import sqlite3
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "OrchestratorError",
    "IncompleteGridError",
    "encode_experiment",
    "decode_experiment",
    "grid_points",
    "point_key",
    "ExperimentStore",
    "fill_store",
    "run_workers",
    "run_grid",
    "collect",
    "main",
]


class OrchestratorError(Exception):
    """A sweep config or store operation the orchestrator cannot handle."""


class IncompleteGridError(OrchestratorError):
    """Collect was asked for a grid whose points are not all done."""


# -- config codec --------------------------------------------------------
#
# Structural encoding with an explicit class registry: dataclasses become
# {"__dc__": name, ...fields}, enums {"__enum__": name, "value": ...},
# tuples {"__tuple__": [...]}. The registry is the closed set of config
# types a sweep can reference; anything else (closures in particular) is
# rejected so a spec is always hashable and process-portable.


def _registry() -> Dict[str, type]:
    from ..backends.planner import PlannerConfig
    from ..core.placement import Mode, SystemConfig
    from ..drx.microarch import DRXConfig
    from ..faults.injector import FaultPolicy
    from ..faults.plan import FaultPlan
    from ..faults.recovery import RetryPolicy
    from ..interconnect.pcie import PCIeGen
    from ..resilience.chaos import ChaosSweepConfig
    from ..resilience.control import ResilienceConfig
    from ..resilience.breaker import BreakerConfig
    from ..serve.batching import BatchingConfig
    from ..serve.frontend import ShedPolicy
    from ..serve.sweep import SweepConfig
    from ..telemetry.alerts import AlertConfig, ObservationConfig
    from ..telemetry.rollup import RollupConfig
    from ..telemetry.sampling import SamplingConfig

    return {
        cls.__name__: cls
        for cls in (
            Mode, ShedPolicy, PCIeGen,
            SweepConfig, ChaosSweepConfig,
            FaultPlan, FaultPolicy, RetryPolicy,
            ResilienceConfig, BreakerConfig, BatchingConfig,
            PlannerConfig,
            SystemConfig, DRXConfig,
            SamplingConfig, ObservationConfig, RollupConfig, AlertConfig,
        )
    }


def _encode_value(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _registry():
            raise OrchestratorError(
                f"cannot serialize dataclass {name!r}: not a known "
                f"sweep-config type"
            )
        return {
            "__dc__": name,
            "fields": {
                f.name: _encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {key: _encode_value(v) for key, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if callable(value):
        raise OrchestratorError(
            "cannot serialize a callable (chain_factory closures cannot "
            "cross a process boundary — use the named-benchmark path)"
        )
    raise OrchestratorError(f"cannot serialize {type(value).__name__}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__dc__" in value:
            cls = _registry()[value["__dc__"]]
            fields = {
                key: _decode_value(v)
                for key, v in value["fields"].items()
            }
            return cls(**fields)
        if "__enum__" in value:
            return _registry()[value["__enum__"]](value["value"])
        if "__tuple__" in value:
            return tuple(_decode_value(v) for v in value["__tuple__"])
        return {key: _decode_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_experiment(config: Any) -> Dict[str, Any]:
    """A sweep config as a JSON-safe document (``kind`` + fields)."""
    from ..resilience.chaos import ChaosSweepConfig
    from ..serve.sweep import SweepConfig

    if isinstance(config, SweepConfig):
        kind = "sweep"
    elif isinstance(config, ChaosSweepConfig):
        kind = "chaos"
    else:
        raise OrchestratorError(
            f"unsupported experiment config: {type(config).__name__}"
        )
    return {"kind": kind, "config": _encode_value(config)}


def decode_experiment(doc: Dict[str, Any]) -> Tuple[str, Any]:
    """Invert :func:`encode_experiment` → ``(kind, config)``."""
    kind = doc.get("kind")
    if kind not in ("sweep", "chaos"):
        raise OrchestratorError(f"unknown experiment kind: {kind!r}")
    return kind, _decode_value(doc["config"])


#: Config fields that only define the grid's *shape*. They are excluded
#: from a point's identity hash — a point is keyed by its own coordinate
#: values, so growing or reordering an axis re-runs only the points that
#: did not exist before.
_GRID_AXES = {
    "sweep": ("modes", "offered_loads_rps"),
    "chaos": ("fault_intensities", "control_plane", "offered_loads_rps"),
}


def _tuple_field(encoded_config: Dict[str, Any], name: str) -> List[Any]:
    return encoded_config["fields"][name]["__tuple__"]


def _point_identity(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The hash-relevant view of one grid point: every config field that
    shapes its result, plus its own coordinates *by value* (not by grid
    index — index shifts when an axis grows, values do not)."""
    kind = spec["kind"]
    config = spec["config"]
    fields = {
        name: value
        for name, value in config["fields"].items()
        if name not in _GRID_AXES[kind]
    }
    if kind == "sweep":
        coords: Dict[str, Any] = {
            "mode": spec["mode"],
            "load": _tuple_field(config, "offered_loads_rps")[
                spec["point_index"]
            ],
        }
    else:
        coords = {
            "intensity": _tuple_field(config, "fault_intensities")[
                spec["intensity_index"]
            ],
            "resilient": spec["resilient"],
            "load": _tuple_field(config, "offered_loads_rps")[
                spec["load_index"]
            ],
        }
    return {"kind": kind, "fields": fields, "coords": coords}


def point_key(spec: Dict[str, Any]) -> str:
    """Content hash of one grid point's identity — the store's key.

    Any change to a result-shaping config field or to the point's own
    coordinates changes the key; changes to the *other* grid points do
    not. Re-filling after an edit therefore schedules exactly the
    changed points and reuses every finished unchanged one.
    """
    canonical = json.dumps(
        _point_identity(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def grid_points(config: Any) -> List[Dict[str, Any]]:
    """Expand a sweep config into per-point specs, in canonical grid
    order (the order the in-process drivers run them)."""
    doc = encode_experiment(config)
    kind, encoded = doc["kind"], doc["config"]
    points: List[Dict[str, Any]] = []
    if kind == "sweep":
        for mode in config.modes:
            for point_index in range(len(config.offered_loads_rps)):
                points.append({
                    "kind": kind,
                    "config": encoded,
                    "mode": mode.value,
                    "point_index": point_index,
                })
    else:
        for intensity_index in range(len(config.fault_intensities)):
            for resilient in config.control_plane:
                for load_index in range(len(config.offered_loads_rps)):
                    points.append({
                        "kind": kind,
                        "config": encoded,
                        "intensity_index": intensity_index,
                        "resilient": bool(resilient),
                        "load_index": load_index,
                    })
    return points


def run_point(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one grid point's spec; returns the point as a JSON-safe
    dict. Shared by every worker and by in-process (serial) execution."""
    kind, config = decode_experiment(spec)
    if kind == "sweep":
        from ..core.placement import Mode
        from ..serve.sweep import run_sweep_point

        point = run_sweep_point(
            config, Mode(spec["mode"]), spec["point_index"]
        )
    else:
        from ..resilience.chaos import run_chaos_cell

        point = run_chaos_cell(
            config,
            spec["intensity_index"],
            spec["resilient"],
            spec["load_index"],
        )
    return dataclasses.asdict(point)


# -- the experiment store ------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    point_key   TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    worker      TEXT NOT NULL DEFAULT '',
    attempts    INTEGER NOT NULL DEFAULT 0,
    result_json TEXT,
    error       TEXT,
    updated_at  REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS experiments_status ON experiments (status);
"""

STATUSES = ("pending", "running", "done", "error")


class ExperimentStore:
    """SQLite-backed grid-point rows with atomic claiming.

    One store may hold points from many grids (keys are content hashes,
    so grids never collide); collect addresses rows by the keys of the
    grid it is reassembling.
    """

    def __init__(self, path: str):
        self.path = path
        self._conn = sqlite3.connect(path, timeout=30.0)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def fill(self, specs: List[Dict[str, Any]]) -> int:
        """Insert pending rows for new specs; existing keys (whatever
        their status) are untouched. Returns how many were inserted."""
        inserted = 0
        with self._conn:
            for spec in specs:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO experiments "
                    "(point_key, kind, spec_json, status, updated_at) "
                    "VALUES (?, ?, ?, 'pending', ?)",
                    (
                        point_key(spec),
                        spec["kind"],
                        json.dumps(spec, sort_keys=True),
                        time.time(),
                    ),
                )
                inserted += cursor.rowcount
        return inserted

    def claim(self, worker: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Atomically claim the oldest pending row for ``worker``.

        Returns ``(point_key, spec)`` or None when nothing is pending.
        The immediate transaction takes the write lock up front, so
        concurrent claimers serialize and each row is handed out once.
        """
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            row = self._conn.execute(
                "SELECT point_key, spec_json FROM experiments "
                "WHERE status='pending' ORDER BY rowid LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            key, spec_json = row
            self._conn.execute(
                "UPDATE experiments SET status='running', worker=?, "
                "attempts=attempts+1, updated_at=? WHERE point_key=?",
                (worker, time.time(), key),
            )
        return key, json.loads(spec_json)

    def complete(self, key: str, result: Dict[str, Any]) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE experiments SET status='done', result_json=?, "
                "error=NULL, updated_at=? WHERE point_key=?",
                (json.dumps(result, sort_keys=True), time.time(), key),
            )

    def fail(self, key: str, error: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE experiments SET status='error', error=?, "
                "updated_at=? WHERE point_key=?",
                (error, time.time(), key),
            )

    def reclaim_stale(self) -> int:
        """Re-queue every ``running`` row (crashed worker) and every
        ``error`` row (to retry after a fix). Call only when no workers
        are live — at that moment any claim is by definition orphaned."""
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE experiments SET status='pending', worker='', "
                "updated_at=? WHERE status IN ('running', 'error')",
                (time.time(),),
            )
        return cursor.rowcount

    def counts(self) -> Dict[str, int]:
        rows = self._conn.execute(
            "SELECT status, COUNT(*) FROM experiments GROUP BY status"
        ).fetchall()
        counts = {status: 0 for status in STATUSES}
        counts.update(dict(rows))
        return counts

    def results_for(
        self, keys: List[str]
    ) -> Dict[str, Optional[Dict[str, Any]]]:
        """status+result for each requested key (missing keys omitted)."""
        out: Dict[str, Optional[Dict[str, Any]]] = {}
        for key in keys:
            row = self._conn.execute(
                "SELECT status, result_json FROM experiments "
                "WHERE point_key=?",
                (key,),
            ).fetchone()
            if row is None:
                continue
            status, result_json = row
            out[key] = (
                json.loads(result_json)
                if status == "done" and result_json is not None
                else None
            )
        return out


# -- execution -----------------------------------------------------------


def _worker_main(
    db_path: str, worker: str, max_points: Optional[int] = None
) -> None:
    """Claim-and-run loop of one worker process.

    Exits when no pending work remains or after ``max_points`` points
    (the hook crash/partial-run tests use to stop a worker mid-grid).
    A failing point is recorded as ``error`` and the loop moves on; it
    never takes the worker down.
    """
    store = ExperimentStore(db_path)
    done = 0
    try:
        while max_points is None or done < max_points:
            claimed = store.claim(worker)
            if claimed is None:
                break
            key, spec = claimed
            try:
                store.complete(key, run_point(spec))
            except Exception:
                store.fail(key, traceback.format_exc())
            done += 1
    finally:
        store.close()


def fill_store(db_path: str, config: Any) -> int:
    """Expand ``config`` into the store; returns newly inserted rows."""
    with ExperimentStore(db_path) as store:
        return store.fill(grid_points(config))


def run_workers(
    db_path: str,
    n_workers: int = 2,
    max_points: Optional[int] = None,
    reclaim: bool = True,
) -> Dict[str, int]:
    """Drain pending rows with ``n_workers`` processes; returns counts.

    ``reclaim=True`` first re-queues stale ``running``/``error`` rows —
    the crash-resume path. ``n_workers=0`` runs the claim loop in this
    process (no fork), which the CLI exposes as ``--serial``.
    """
    if n_workers < 0:
        raise OrchestratorError("n_workers must be >= 0")
    if reclaim:
        with ExperimentStore(db_path) as store:
            store.reclaim_stale()
    if n_workers == 0:
        _worker_main(db_path, f"serial-{os.getpid()}", max_points)
    else:
        # fork inherits the already-imported model stack (and sys.path),
        # so workers start instantly; spawn is the portability fallback.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        procs = [
            context.Process(
                target=_worker_main,
                args=(db_path, f"worker-{index}", max_points),
            )
            for index in range(n_workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
    with ExperimentStore(db_path) as store:
        return store.counts()


def collect(db_path: str, config: Any) -> Any:
    """Reassemble ``config``'s full sweep result from the store.

    Points are emitted in canonical grid order, so the result's
    ``to_json()`` is byte-identical to the in-process driver's. Raises
    :class:`IncompleteGridError` when any grid point is missing,
    pending, or failed.
    """
    from ..resilience.chaos import ChaosPoint, ChaosSweepResult
    from ..serve.sweep import SweepPoint, SweepResult

    specs = grid_points(config)
    keys = [point_key(spec) for spec in specs]
    with ExperimentStore(db_path) as store:
        results = store.results_for(keys)
    missing = [key for key in keys if results.get(key) is None]
    if missing:
        raise IncompleteGridError(
            f"{len(missing)} of {len(keys)} grid points not done "
            f"(first: {missing[0][:12]}…) — run the workers, or check "
            f"'status' for error rows"
        )
    kind = specs[0]["kind"]
    if kind == "sweep":
        return SweepResult(
            slo_s=config.slo_s,
            seed=config.seed,
            points=[SweepPoint(**results[key]) for key in keys],
        )
    return ChaosSweepResult(
        slo_s=config.slo_s,
        seed=config.seed,
        goodput_floor=config.goodput_floor,
        points=[ChaosPoint(**results[key]) for key in keys],
    )


def run_grid(db_path: str, config: Any, n_workers: int = 2) -> Any:
    """fill → execute → collect in one call (the common local path)."""
    fill_store(db_path, config)
    counts = run_workers(db_path, n_workers=n_workers)
    if counts["error"]:
        raise OrchestratorError(
            f"{counts['error']} grid points failed — see 'status --errors'"
        )
    return collect(db_path, config)


# -- CLI -----------------------------------------------------------------


def _load_spec(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    _, config = decode_experiment(doc)
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.orchestrator",
        description="Resumable sharded sweep execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db(p: argparse.ArgumentParser, spec: bool = True) -> None:
        p.add_argument("--db", required=True, help="experiment store path")
        if spec:
            p.add_argument(
                "--spec", required=True,
                help="JSON file holding encode_experiment() output",
            )

    add_db(sub.add_parser("fill", help="insert the grid's pending rows"))
    run_p = sub.add_parser("run", help="fill, reclaim stale rows, execute")
    add_db(run_p)
    run_p.add_argument("--workers", type=int, default=2)
    run_p.add_argument(
        "--max-points", type=int, default=None,
        help="stop each worker after this many points (smoke tests)",
    )
    run_p.add_argument(
        "--serial", action="store_true",
        help="run the claim loop in-process instead of forking workers",
    )
    status_p = sub.add_parser("status", help="row counts by status")
    add_db(status_p, spec=False)
    status_p.add_argument(
        "--errors", action="store_true", help="print failed rows' errors"
    )
    collect_p = sub.add_parser(
        "collect", help="reassemble and print the sweep result JSON"
    )
    add_db(collect_p)
    collect_p.add_argument(
        "--out", default=None, help="write JSON here instead of stdout"
    )

    args = parser.parse_args(argv)
    if args.command == "fill":
        inserted = fill_store(args.db, _load_spec(args.spec))
        print(f"inserted {inserted} pending rows")
        return 0
    if args.command == "run":
        config = _load_spec(args.spec)
        fill_store(args.db, config)
        counts = run_workers(
            args.db,
            n_workers=0 if args.serial else args.workers,
            max_points=args.max_points,
        )
        print(
            " ".join(f"{status}={counts[status]}" for status in STATUSES)
        )
        return 1 if counts["error"] else 0
    if args.command == "status":
        with ExperimentStore(args.db) as store:
            counts = store.counts()
            print(
                " ".join(f"{status}={counts[status]}" for status in STATUSES)
            )
            if args.errors:
                rows = store._conn.execute(
                    "SELECT point_key, error FROM experiments "
                    "WHERE status='error'"
                ).fetchall()
                for key, error in rows:
                    print(f"-- {key[:12]}…\n{error}")
        return 0
    if args.command == "collect":
        result = collect(args.db, _load_spec(args.spec))
        payload = result.to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        else:
            try:
                print(payload)
            except BrokenPipeError:  # e.g. `collect ... | head`
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
