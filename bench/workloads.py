"""The benchmark's four workloads and what is read back from them.

Every workload is open loop on the simulated clock: tenants arrive by a
seeded Poisson process (piecewise Poisson for ``ramp``), so arrivals are
due on the sim clock and the generator is never late; latency counts
from the arrival instant. The host side is closed loop: one part at a
time, as fast as it goes.

A workload is ``PARTS`` parts, each one timed call of :func:`run_part`
with its own sub-seed. Simulated metrics pool all parts of a workload;
host time is the median over parts. Only :func:`run_part` is timed —
building the digest and the simulated counts (:func:`tally_part`) is
output checking and runs outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.accelerators.base import AcceleratorSpec
from repro.backends.planner import PlannerConfig
from repro.control import ControllerConfig
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import DomainCrash
from repro.profiles import WorkProfile
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
from repro.resilience.recovery import (
    RecoveryScenarioConfig,
    run_recovery_scenario,
)
from repro.serve import (
    BatchingConfig,
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    RampArrivals,
    ServeResult,
    ServingFrontend,
    ShedPolicy,
    TenantSpec,
)
from repro.telemetry.alerts import ObservationConfig
from repro.workloads import build_benchmark_chains

#: Parts per workload; the sim metrics pool this many sub-seeded runs.
#: With the per-part sizes in ``WORKLOADS``, sixteen parts take about
#: 10 s of host time on a 2-core box and complete over 12,000 requests,
#: so p99.9 has more than ten samples beyond it. Many short parts give
#: the host-time medians many samples.
PARTS = 16

PHASES = ("kernel", "restructuring", "movement", "control", "recovery")
BACKEND_KINDS = ("drx", "cpu", "dsa", "xdma")
CONTROL_KINDS = ("weight", "tier", "scale_up", "scale_down", "migration")


@dataclass
class Served:
    """One serving run inside a part, as the workload body returns it."""

    label: str
    serve: ServeResult
    drained: int = 0
    detect_s: Dict[str, Optional[float]] = field(default_factory=dict)
    artifact: Optional[str] = None


# -- knee: the plain single-request path on MB-scale legs ---------------------

#: (mode, aggregate offered rps): ~50% and ~90% of each mode's calibrated
#: peak (Multi-Axl 345 rps, Bump-in-the-Wire 963 rps, 2 tenants).
KNEE_POINTS = (
    (Mode.MULTI_AXL, 170.0),
    (Mode.MULTI_AXL, 310.0),
    (Mode.BUMP_IN_WIRE, 480.0),
    (Mode.BUMP_IN_WIRE, 870.0),
)


def _knee(seed: int, size: Dict[str, float], workdir: str) -> List[Served]:
    out = []
    for mode, load in KNEE_POINTS:
        chains = build_benchmark_chains("sound-detection", 2)
        system = DMXSystem(chains, SystemConfig(mode=mode))
        tenants = [
            TenantSpec(
                name=chain.name,
                arrivals=PoissonArrivals(load / len(chains)),
                n_requests=int(size["requests"]),
            )
            for chain in chains
        ]
        frontend = ServingFrontend(
            system, tenants,
            FrontendConfig(
                max_inflight=8, shed=ShedPolicy.QUEUE,
                discipline=Discipline.FCFS, slo_s=50e-3,
            ),
            seed=seed,
        )
        out.append(Served(f"{mode.value}@{load:g}", frontend.run()))
    return out


# -- batched: 16 KB RPC legs through submit_batch and the planner -------------

RPC_SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)
BATCHED_POINTS = (
    (Mode.MULTI_AXL, 60e3),
    (Mode.STANDALONE, 140e3),
    (Mode.STANDALONE, 340e3),
)


def rpc_chains() -> List[AppChain]:
    """The RPC chain of ``examples/batching_demo.py``, two tenants."""
    kb = 1024
    return [
        AppChain(
            name=f"app{i}",
            stages=[
                KernelStage("k1", RPC_SPEC, cpu_time_s=30e-6,
                            accel_time_s=2e-6, output_bytes=16 * kb),
                MotionStage(
                    "m",
                    WorkProfile(
                        name="motion", bytes_in=16 * kb, bytes_out=8 * kb,
                        elements=16384, ops_per_element=20.0,
                        gather_fraction=0.3,
                    ),
                    input_bytes=16 * kb, output_bytes=8 * kb, cpu_threads=3,
                ),
                KernelStage("k2", RPC_SPEC, cpu_time_s=24e-6,
                            accel_time_s=2e-6, output_bytes=4 * kb),
            ],
        )
        for i in range(2)
    ]


def _batched(seed: int, size: Dict[str, float], workdir: str) -> List[Served]:
    out = []
    for mode, load in BATCHED_POINTS:
        chains = rpc_chains()
        system = DMXSystem(
            chains, SystemConfig(mode=mode), backends=PlannerConfig(),
        )
        tenants = [
            TenantSpec(
                name=chain.name,
                arrivals=PoissonArrivals(load / len(chains)),
                n_requests=int(size["requests"]),
            )
            for chain in chains
        ]
        frontend = ServingFrontend(
            system, tenants,
            FrontendConfig(
                max_inflight=8, shed=ShedPolicy.QUEUE,
                discipline=Discipline.FCFS, slo_s=500e-6,
                sample_period_s=None,
                batching=BatchingConfig(max_batch=8, window_s=50e-6),
            ),
            seed=seed,
        )
        out.append(Served(f"{mode.value}@{load:g}", frontend.run()))
    return out


# -- ramp: the closed-loop controller on a square-wave load -------------------

RAMP_TENANTS = 4
#: Square wave: 0.25 s at ~30% then 0.25 s at ~115% of the 840 rps
#: Standalone peak, aggregate over the four tenants.
RAMP_LEGS = ((0.25, 250.0), (0.25, 970.0))


def _ramp(seed: int, size: Dict[str, float], workdir: str) -> List[Served]:
    cycles = int(size["cycles"])
    segments = tuple(
        (duration, rate / RAMP_TENANTS)
        for _ in range(cycles)
        for duration, rate in RAMP_LEGS
    )
    # Enough arrivals per tenant to cover the whole wave.
    per_tenant = round(
        sum(duration * rate for duration, rate in segments)
    )
    chains = build_benchmark_chains("sound-detection", RAMP_TENANTS)
    system = DMXSystem(
        chains, SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=seed),
    )
    tenants = [
        TenantSpec(
            name=chain.name,
            arrivals=RampArrivals(segments=segments),
            n_requests=per_tenant,
            priority=i % 2,
        )
        for i, chain in enumerate(chains)
    ]
    frontend = ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=30e-3,
            brownout=BrownoutConfig(min_dwell_s=4e-3),
            controller=ControllerConfig(
                standby_cards=1, deescalate_fraction=0.2,
            ),
            observation=ObservationConfig(),
        ),
        seed=seed,
    )
    return [Served("standalone-ramp", frontend.run())]


# -- recovery: two DRX cards die and come back mid-run ------------------------


def _recovery(seed: int, size: Dict[str, float], workdir: str) -> List[Served]:
    scale = size["time_scale"]
    artifact = os.path.join(workdir, f"recovery-{seed}.jsonl")
    result = run_recovery_scenario(RecoveryScenarioConfig(
        offered_rps=560.0,
        crashes=(
            DomainCrash("drx.s0", at_s=1.0 * scale, revive_at_s=1.5 * scale),
            DomainCrash("drx.s1", at_s=3.0 * scale, revive_at_s=3.5 * scale),
        ),
        n_tenants=4,
        requests_per_tenant=int(size["requests"]),
        benchmark="sound-detection",
        seed=seed,
        artifact_path=artifact,
        verify=True,
    ))
    return [Served(
        "standalone-recovery", result.serve,
        drained=int(result.domains.get("drained", 0)),
        detect_s=result.detect_latency_s,
        artifact=artifact,
    )]


@dataclass(frozen=True)
class Workload:
    """A named workload: its rationale, body and per-part sizes."""

    name: str
    why: str
    body: Callable[[int, Dict[str, float], str], List[Served]]
    #: Per-part sizes of a timed run, and of the ``--check`` smoke run.
    full: Dict[str, float]
    check: Dict[str, float]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "knee",
            "single-request path (sim, core, interconnect, serve, spans) "
            "on MB legs at 50% and 90% of the Multi-Axl and "
            "Bump-in-the-Wire peaks; no planner, controller or batching",
            _knee,
            full={"requests": 200},
            check={"requests": 30},
        ),
        Workload(
            "batched",
            "16 KB RPC legs through submit_batch and the backend planner "
            "at up to 340k rps; the batched twin of knee's core path and "
            "the heaviest P2 load",
            _batched,
            full={"requests": 625},
            check={"requests": 60},
        ),
        Workload(
            "ramp",
            "square-wave load (30%/115% of peak) under the closed-loop "
            "controller, brownout, breakers and rollups+alerts: the only "
            "workload that prices tiers",
            _ramp,
            full={"cycles": 5},
            check={"cycles": 1},
        ),
        Workload(
            "recovery",
            "two DRX cards crash and revive mid-run: drain, CPU rescue, "
            "artifact export and the five-class invariant checker read "
            "the spans back",
            _recovery,
            full={"requests": 200, "time_scale": 0.25},
            check={"requests": 100, "time_scale": 0.1},
        ),
    )
}


def part_seed(seed: int, part: int) -> int:
    """Sub-seed of ``part``: distinct across (seed, part) pairs."""
    return seed * PARTS + part


def run_part(
    workload: Workload, seed: int, workdir: str, check: bool = False
) -> List[Served]:
    """The timed workload body: build, simulate, post-hoc passes."""
    return workload.body(
        seed, workload.check if check else workload.full, workdir
    )


# -- reading the outputs back (untimed) ---------------------------------------


@dataclass
class Tally:
    """Additive simulated counts of one or more parts."""

    sums: Dict[str, float] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    detect_s: List[float] = field(default_factory=list)
    max_queue_depth: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def get(self, key: str) -> float:
        return self.sums.get(key, 0.0)

    def merge(self, other: "Tally") -> None:
        for key, value in other.sums.items():
            self.add(key, value)
        self.latencies.extend(other.latencies)
        self.detect_s.extend(other.detect_s)
        self.max_queue_depth = max(self.max_queue_depth, other.max_queue_depth)
        self.problems.extend(other.problems)


def _digest_run(run: Served, h: "hashlib._Hash") -> None:
    h.update(run.label.encode())
    h.update(json.dumps(run.serve.to_dict(), sort_keys=True).encode())
    records = sorted(
        ({f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
         for r in run.serve.records),
        key=lambda r: (r["request_id"], r["app"]),
    )
    h.update(json.dumps(records, sort_keys=True).encode())
    if run.artifact is not None:
        with open(run.artifact, "rb") as fh:
            h.update(fh.read())


def tally_part(runs: List[Served]) -> Tuple[Tally, str]:
    """Simulated counts, conservation checks and the output digest of one
    part's runs."""
    tally = Tally()
    digest = hashlib.sha256()
    for run in runs:
        _digest_run(run, digest)
        _tally_run(run, tally)
    return tally, digest.hexdigest()


def _tally_run(run: Served, tally: Tally) -> None:
    serve = run.serve
    telemetry = serve.telemetry
    where = run.label
    for name, t in serve.tenants.items():
        if t.arrived != t.completed + t.shed:
            tally.problems.append(
                f"{where}/{name}: arrived {t.arrived} != completed "
                f"{t.completed} + shed {t.shed}"
            )
    if len(serve.records) != serve.completed:
        tally.problems.append(
            f"{where}: {len(serve.records)} records for "
            f"{serve.completed} completions"
        )
    clients = truncated = 0
    for span in telemetry.spans:
        if span.attrs.get("truncated"):
            truncated += 1
        if "rerouted_to" in span.attrs:
            tally.add("backends.rerouted", 1)
        if span.category == "client":
            clients += 1
            tally.latencies.append(span.end - span.start)
    if clients != serve.completed:
        tally.problems.append(
            f"{where}: {clients} client spans for {serve.completed} "
            f"completions"
        )
    if truncated:
        tally.problems.append(
            f"{where}: {truncated} spans still open when the DES drained"
        )
    tally.add("spans", len(telemetry.spans))
    tally.add("arrived", serve.arrived)
    tally.add("completed", serve.completed)
    tally.add("shed", serve.shed)
    tally.add("failed", serve.failed)
    tally.add("violations", serve.violations)
    tally.add("elapsed_s", serve.elapsed)
    tally.add("events", telemetry.sim.events_processed)
    for record in serve.records:
        for phase, seconds in record.phases.items():
            tally.add(f"phase.{phase}", seconds)
        tally.add("rerouted", record.rerouted)
        tally.add("rescued", record.rescued)
    for t in serve.tenants.values():
        tally.add("queue_wait_s", t.queue_wait.total)
        tally.add("batches", t.batches)
    tally.max_queue_depth = max(tally.max_queue_depth, serve.max_queue_depth())
    end = telemetry.sim.now
    metrics = telemetry.metrics
    for gauge in metrics.gauges():
        if gauge.name == "drx_utilization" and gauge.samples:
            tally.add("drx_busy_s", gauge.last() * end)
    for counter in metrics.counters():
        labels = dict(counter.labels)
        if counter.name == "fabric_bytes":
            tally.add("fabric_bytes", counter.value)
        elif counter.name == "planner_decisions":
            tally.add(f"legs.{labels.get('backend')}", counter.value)
        elif counter.name == "controller_actions":
            tally.add(f"actions.{labels.get('kind')}", counter.value)
    tally.add("drained", run.drained)
    tally.detect_s.extend(v for v in run.detect_s.values() if v is not None)
    if run.artifact is not None:
        tally.add("artifact_bytes", os.path.getsize(run.artifact))


def percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _per_request(tally: Tally, key: str, scale: float = 1e3) -> float:
    done = tally.get("completed")
    return tally.get(key) * scale / done if done else 0.0


def simulated_metrics(tally: Tally) -> Dict[str, float]:
    """Every metric of the modeled system, all parts pooled. Exact under
    the seed: a change that only speeds up the simulator leaves each one
    unchanged."""
    ordered = sorted(tally.latencies)
    arrived = tally.get("arrived")
    batches = tally.get("batches")
    good = (tally.get("completed") - tally.get("failed")
            - tally.get("violations"))
    misses = tally.get("violations") + tally.get("failed") + tally.get("shed")
    out: Dict[str, float] = {
        "sim_goodput_rps": good / tally.get("elapsed_s"),
        "sim_p50_ms": percentile(ordered, 0.50) * 1e3,
        "sim_p99_ms": percentile(ordered, 0.99) * 1e3,
        "sim_p999_ms": percentile(ordered, 0.999) * 1e3,
        "sim_completed": tally.get("completed"),
        "slo_miss_frac": misses / arrived,
        "shed_frac": tally.get("shed") / arrived,
        "failed_frac": tally.get("failed") / arrived,
        "sim.events": tally.get("events"),
    }
    for phase in PHASES:
        out[f"core.phase.{phase}_ms"] = _per_request(tally, f"phase.{phase}")
    out["drx.busy_s"] = tally.get("drx_busy_s")
    out["interconnect.bytes_moved_mb"] = tally.get("fabric_bytes") / 2**20
    out["serve.queue_wait_ms"] = _per_request(tally, "queue_wait_s")
    out["serve.max_queue_depth"] = float(tally.max_queue_depth)
    out["serve.batches"] = batches
    # Only ``batched`` forms batches, and there every request is in one.
    out["serve.mean_batch_size"] = (
        tally.get("completed") / batches if batches else 0.0
    )
    for kind in BACKEND_KINDS:
        out[f"backends.legs.{kind}"] = tally.get(f"legs.{kind}")
    out["backends.rerouted"] = tally.get("backends.rerouted")
    for kind in CONTROL_KINDS:
        out[f"control.actions.{kind}"] = tally.get(f"actions.{kind}")
    out["resilience.rerouted"] = tally.get("rerouted")
    out["resilience.rescued"] = tally.get("rescued")
    out["resilience.drained"] = tally.get("drained")
    out["resilience.detect_ms"] = (
        sum(tally.detect_s) / len(tally.detect_s) * 1e3
        if tally.detect_s else 0.0
    )
    out["telemetry.spans"] = tally.get("spans")
    out["telemetry.artifact_mb"] = tally.get("artifact_bytes") / 2**20
    return out
