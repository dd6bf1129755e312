"""Measuring one workload, running the whole benchmark, the ``--check``
smoke run and ``compare``.

``measure`` is the unit every timing comes from: one process, one
workload, its parts run one after another on the calling thread. It
prints one detail line (``{"bench": ...}``) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import cProfile
import gc
import glob
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import repro

from . import ledger, reference
from .metrics import (
    BY_NAME,
    END_TO_END,
    MODELED,
    PER_LAYER,
    summarize,
    verdict,
)
from .workloads import (
    PARTS,
    WORKLOADS,
    Tally,
    part_seed,
    run_part,
    simulated_metrics,
    tally_part,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "bench", "results")
PINS = os.path.join(ROOT, "bench", "pins.json")
#: Scratch space for the artifacts workloads write, inside the checkout.
WORK = os.path.join(ROOT, ".bench_work")
RUN_SECONDS = 10
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def _workdir() -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK)


def warm_up(name: str, seed: int, workdir: str) -> None:
    """Lazy set-up before the first timed call: one tiny part, so first-
    call imports and caches are paid here and counted in ``setup_s``."""
    run_part(WORKLOADS[name], part_seed(seed, 0), workdir, check=True)


def setup_probe(name: str, seed: int) -> None:
    """What a measuring process does before its first timed call; prints
    the wall-clock instant it is ready."""
    workdir = _workdir()
    try:
        warm_up(name, seed, workdir)
        print(repr(time.time()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(name: str, seed: int) -> List[float]:
    """Launch-to-ready seconds of fresh processes (the probe reports its
    ready instant, so interpreter exit is not counted)."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "setup",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


class _Parts:
    """Runs and checks the parts of one workload.

    The first run of each part index feeds the pooled tally and fixes the
    part's digest; any later run of that index must reproduce it.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.digests: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, index: int, profile: Optional[cProfile.Profile] = None
            ) -> Tuple[float, Tally]:
        """Host seconds of one timed part, and its tally."""
        gc.collect()
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            runs = run_part(
                self.workload, part_seed(self.seed, index), self.workdir
            )
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - start
        tally, digest = tally_part(runs)
        del runs
        seen = self.digests.get(index)
        if seen is None:
            self.digests[index] = digest
            self.tally.merge(tally)
        elif seen != digest:
            self.problems.append(f"part {index}: output changed on rerun")
        self.attempted += int(tally.get("arrived"))
        self.failed += int(tally.get("failed"))
        return wall, tally

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in range(PARTS):
            h.update(self.digests[index].encode())
        return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the detail line and the result line."""
    setup = None if trace else _setup_seconds(name, seed)
    workdir = _workdir()
    try:
        warm_up(name, seed, workdir)
        parts = _Parts(name, seed, workdir)
        if trace:
            metrics, detail = _traced(parts)
        else:
            metrics, detail = _untraced(parts, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = parts.problems + _sanity(parts.tally)
    for problem in problems:
        print(f"bench: {name}: {problem}", file=sys.stderr)
    print(json.dumps({"bench": {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "output_sha256": parts.digest(),
        "problems": problems,
        **detail,
    }}))
    print(json.dumps({
        "correct": not problems,
        "attempted": parts.attempted,
        "failed": parts.failed,
        "metrics": {
            key: {"value": float(value), "unit": BY_NAME[key].unit}
            for key, value in metrics.items()
        },
    }))
    return 0


def _sanity(tally: Tally) -> List[str]:
    problems = list(tally.problems)
    if not tally.latencies:
        return problems + ["no request completed"]
    if min(tally.latencies) <= 0:
        problems.append("a request completed in zero or negative time")
    sim = simulated_metrics(tally)
    if not sim["sim_p50_ms"] <= sim["sim_p99_ms"] <= sim["sim_p999_ms"]:
        problems.append("percentiles out of order")
    return problems


def _untraced(parts: _Parts, seconds: float, setup: List[float]
              ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Parts until all ``PARTS`` are done and the next would overrun
    ``seconds``; host metrics are medians over the parts run. The
    reference loop runs right before each part."""
    walls: List[float] = []
    ratios: List[float] = []
    start = time.perf_counter()
    while len(walls) < PARTS or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        ref = reference.seconds()
        wall = parts.run(len(walls) % PARTS)[0]
        walls.append(wall)
        ratios.append(wall / ref)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_per_ref": statistics.median(ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    metrics.update(simulated_metrics(parts.tally))
    detail = {"part_walls_s": walls, "wall_per_ref_samples": ratios,
              "setup_samples_s": setup}
    return {m.name: metrics[m.name] for m in END_TO_END}, detail


def _traced(parts: _Parts) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Each part untraced, then again under cProfile. The ledger covers
    the traced copies, whose outputs must equal the untraced ones."""
    profile = cProfile.Profile()
    walls: List[float] = []
    rates: List[float] = []
    traced: List[float] = []
    for index in range(PARTS):
        wall, tally = parts.run(index)
        walls.append(wall)
        rates.append(tally.get("completed") / wall)
        traced.append(parts.run(index, profile)[0])
    stats = pstats.Stats(profile).stats
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    metrics, missing = ledger.ledger(stats, package_dir)
    metrics["wall_s"] = statistics.median(walls)
    metrics["sim_req_per_wall_s"] = statistics.median(rates)
    metrics["trace_overhead"] = sum(traced) / sum(walls)
    metrics.update(simulated_metrics(parts.tally))
    metrics["sim.host_us_per_event"] = (
        sum(walls) / metrics["sim.events"] * 1e6
    )
    detail = {
        "part_walls_s": walls,
        "traced_part_walls_s": traced,
        "profiled_self_s": ledger.total_self_time(stats),
        "unresolved_functions": missing,
    }
    return {m.name: metrics[m.name] for m in PER_LAYER}, detail


# -- the whole benchmark ------------------------------------------------------


def _child(name: str, seed: int, trace: bool) -> Dict:
    """One ``measure`` in a fresh process; its detail and result lines."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", name,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"measure {name} failed ({proc.returncode}):\n{proc.stderr}"
        )
    detail = json.loads(lines[-2])["bench"]
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result}


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(seed: int, reps: int, out_dir: str) -> int:
    """Every workload: ``reps`` untraced runs, then one traced run, each
    in a fresh process and never two at once; writes
    ``BENCH_<workload>.json`` and returns non-zero on any failed check."""
    os.makedirs(out_dir, exist_ok=True)
    sha = _git_sha()
    status = 0
    for name, workload in WORKLOADS.items():
        runs = [_child(name, seed, False) for _ in range(reps)]
        traced = _child(name, seed, True)
        digests = {r["detail"]["output_sha256"] for r in runs + [traced]}
        correct = all(r["result"]["correct"] for r in runs + [traced])
        end_to_end = {}
        for metric in END_TO_END:
            values = [
                r["result"]["metrics"][metric.name]["value"] for r in runs
            ]
            end_to_end[metric.name] = {
                "unit": metric.unit, **summarize(values), "values": values,
            }
        per_layer = traced["result"]["metrics"]
        report = {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "reps": reps,
            "seconds": RUN_SECONDS,
            "git_sha": sha,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "correct": correct,
            "output_sha256": sorted(digests)[0],
            "digest_equal": len(digests) == 1,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        cost = end_to_end["wall_per_ref"]
        print(
            f"{name:9s} wall_per_ref {cost['median']:.2f} "
            f"[{cost['q1']:.2f}, {cost['q3']:.2f}]  "
            f"wall_s {per_layer['wall_s']['value']:.3f}  "
            f"p99 {per_layer['sim_p99_ms']['value']:.3f} ms  "
            f"digest {'equal' if len(digests) == 1 else 'DIFFERS'}  "
            f"{'ok' if correct else 'INCORRECT'} -> {path}"
        )
        if not correct or len(digests) != 1:
            status = 1
    return status


# -- --check: pinned simulated outputs at tiny sizes --------------------------


def check() -> int:
    """Tiny parts of every workload against ``pins.json``; no timing."""
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    actual = {}
    status = 0
    workdir = _workdir()
    try:
        for name, workload in WORKLOADS.items():
            tally, digest = tally_part(
                run_part(workload, part_seed(0, 0), workdir, check=True)
            )
            actual[name] = {
                "sim.events": int(tally.get("events")),
                "output_sha256": digest,
            }
            problems = _sanity(tally)
            if actual[name] != pins.get(name):
                problems.append(f"pinned {pins.get(name)}")
            print(f"{name:9s} events {actual[name]['sim.events']:7d} "
                  f"sha256 {digest[:16]}  "
                  f"{'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            status |= bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if status:
        print("actual values:\n" + json.dumps(actual, indent=1,
                                              sort_keys=True))
    return int(status)


# -- compare ------------------------------------------------------------------


def _load_reports(path: str) -> Dict[str, Dict]:
    paths = (
        sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
        if os.path.isdir(path) else [path]
    )
    reports = {}
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            report = json.load(fh)
        reports[report["workload"]] = report
    return reports


def compare(old_path: str, new_path: str) -> int:
    """Print a verdict per workload x end-to-end metric, and whether each
    modeled metric is unchanged; non-zero on any ``worse`` verdict or any
    changed output digest."""
    old, new = _load_reports(old_path), _load_reports(new_path)
    status = 0
    print(f"{'workload':9s} {'metric':19s} {'old median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'delta':>8s}  verdict")
    changed = []
    for name in sorted(set(old) & set(new)):
        for metric in END_TO_END:
            a = old[name]["end_to_end"][metric.name]
            b = new[name]["end_to_end"][metric.name]
            result, delta = verdict(metric, a["values"], b["values"])
            status |= result == "worse"
            print(
                f"{name:9s} {metric.name:19s} "
                f"{_cell(a):>30s} {_cell(b):>30s} {delta:+8.1%}  {result}"
            )
        for key in MODELED:
            a = old[name]["per_layer"][key]["value"]
            b = new[name]["per_layer"][key]["value"]
            print(f"{name:9s} {key:19s} {a:>30.6g} {b:>30.6g} {'':8s}  "
                  f"{'equal' if a == b else 'changed'}")
        if old[name]["output_sha256"] != new[name]["output_sha256"]:
            changed.append(name)
    both = sorted(set(old) & set(new))
    if changed:
        print(f"digests: CHANGED for {', '.join(changed)}")
        status = 1
    else:
        print(f"digests: equal for {len(both)} of {len(both)} workloads")
    for name in sorted(set(old) ^ set(new)):
        print(f"{name}: present on one side only")
    return int(status)


def _cell(entry: Dict) -> str:
    return (f"{entry['median']:.4g} [{entry['q1']:.4g}, "
            f"{entry['q3']:.4g}]")

