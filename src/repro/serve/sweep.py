"""SLO-percentile load sweeps: latency-vs-offered-load knee curves.

:func:`run_sweep` runs a grid of offered loads for each system
:class:`~repro.core.placement.Mode`, driving a fresh
:class:`~repro.core.system.DMXSystem` through a
:class:`~repro.serve.frontend.ServingFrontend` at every point, and
collects one :class:`SweepPoint` (p50/p95/p99, goodput, shed/violation
counts) per (mode, load). The resulting :class:`SweepResult` answers the
serving question the batch drivers cannot: *how much offered load does
each placement sustain before its tail latency crosses the SLO?* — the
knee the paper's CPU-restructuring baseline hits well before DMX.

Sweeps are deterministic end to end: chains are rebuilt identically per
point, every frontend reuses the same seed, and the DES replays exactly,
so two sweeps with equal configs serialize to byte-identical JSON
(:meth:`SweepResult.to_json`). A :class:`~repro.faults.FaultPlan` may be
armed to sweep a system with the recovery plane active.

Every experiment driver — the sweep point here, the chaos cell
(:func:`repro.resilience.chaos.run_chaos_cell`) and the recovery
scenario (:func:`repro.resilience.recovery.run_recovery_scenario`) —
runs the one serving path kept in this module:
:func:`check_serving_fields`, :func:`build_chains`,
:func:`system_config`, :func:`serve_load` and :func:`write_run_artifact`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.chain import AppChain
from ..core.placement import Mode, SystemConfig
from ..core.system import DMXSystem
from ..faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.planner import PlannerConfig
    from ..telemetry.alerts import ObservationConfig
    from ..telemetry.sampling import SamplingConfig
from .arrivals import make_arrivals
from .batching import BatchingConfig
from .frontend import FrontendConfig, ServingFrontend, ShedPolicy, TenantSpec
from .slo import ServeResult

__all__ = ["SweepConfig", "SweepPoint", "SweepResult", "run_sweep",
           "run_sweep_point", "calibrate_peak_rps", "unloaded_latency"]


# -- the serving path every experiment driver shares ---------------------------


def check_serving_fields(
    config: Any, loads_field: str = "offered_loads_rps"
) -> None:
    """Reject an experiment config no serving run can use.

    ``loads_field`` names the config's offered load: a tuple of loads
    (present, positive, ascending) or one load. ``n_tenants``,
    ``requests_per_tenant`` and ``slo_s`` must be positive, checked as
    ``not x > 0`` so that NaN fails too.
    """
    loads = getattr(config, loads_field)
    if not isinstance(loads, tuple):
        loads = (loads,)
    if not loads:
        raise ValueError("need at least one offered load")
    if not all(load > 0 for load in loads):
        raise ValueError(f"{loads_field} must be positive (not NaN)")
    if list(loads) != sorted(loads):
        raise ValueError(f"{loads_field} must be ascending")
    for name in ("n_tenants", "requests_per_tenant", "slo_s"):
        if not getattr(config, name) > 0:
            raise ValueError(f"{name} must be positive (not NaN)")


def build_chains(config: Any) -> List[AppChain]:
    """The experiment's tenant chains: ``config.chain_factory()`` when
    set, else ``config.n_tenants`` chains of ``config.benchmark``."""
    if config.chain_factory is not None:
        return config.chain_factory()
    from ..workloads import build_benchmark_chains

    return build_benchmark_chains(config.benchmark, config.n_tenants)


def system_config(
    mode: Mode, base: Optional[SystemConfig] = None
) -> SystemConfig:
    """``base`` (the default hardware when None) running in ``mode``."""
    if base is None:
        return SystemConfig(mode=mode)
    return replace(base, mode=mode)


def serve_load(
    system: DMXSystem,
    load: float,
    requests_per_tenant: int,
    frontend: FrontendConfig,
    seed: int,
    arrival_kind: str = "poisson",
    queue_capacity: int = 256,
) -> ServeResult:
    """Serve an aggregate ``load`` (rps), split evenly over ``system``'s
    chains, through one fresh :class:`ServingFrontend`.

    Each chain is one tenant sending ``requests_per_tenant`` requests;
    ``queue_capacity`` bounds each tenant's queue under
    ``ShedPolicy.REJECT``.
    """
    per_tenant = load / len(system.chains)
    tenants = [
        TenantSpec(
            name=chain.name,
            arrivals=make_arrivals(arrival_kind, per_tenant),
            n_requests=requests_per_tenant,
            queue_capacity=queue_capacity,
        )
        for chain in system.chains
    ]
    return ServingFrontend(system, tenants, frontend, seed=seed).run()


def write_run_artifact(
    path: str,
    result: ServeResult,
    meta: Dict[str, object],
    verify: bool = False,
    sampling: Optional["SamplingConfig"] = None,
) -> None:
    """Write one run's artifact — telemetry, rollups and alerts — to
    ``path``, making its directory first.

    ``sampling`` thins the written traces (alert-protected requests
    stay); ``verify`` runs the conservation-invariant checker on the
    written file and raises
    :class:`~repro.resilience.invariants.InvariantViolation` if the
    books do not balance.
    """
    from ..telemetry import plan_sampling, write_artifact

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    plan = None
    if sampling is not None:
        plan = plan_sampling(result.telemetry, sampling, alerts=result.alerts)
    write_artifact(
        path, result.telemetry, meta=meta,
        rollups=result.rollups, alerts=result.alerts, sampling=plan,
    )
    if verify:
        from ..resilience.invariants import verify_artifact_path

        verify_artifact_path(path).raise_on_problems()


# -- the load sweep ------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """One load-sweep experiment.

    ``offered_loads_rps`` is the *aggregate* offered load per point,
    split evenly across ``n_tenants`` tenant chains. Chains come from
    the named benchmark unless ``chain_factory`` is given (it must
    return identically-built chains on every call — determinism rides
    on it). ``faults`` arms the recovery plane for every point. Every
    point dispatches FCFS.

    ``artifact_dir`` writes each grid point's telemetry out as a
    JSON-lines run artifact plus a Chrome-trace/Perfetto export
    (``<mode>-pt<index>.jsonl`` / ``.trace.json``) — deterministic
    filenames, byte-identical contents across equal-seed sweeps.

    ``batching`` arms batch formation at every grid point (None keeps
    the exact per-request dispatch path) — the on/off comparison the
    batching knee benchmark sweeps.
    """

    offered_loads_rps: Tuple[float, ...]
    benchmark: str = "sound-detection"
    n_tenants: int = 2
    modes: Tuple[Mode, ...] = (Mode.MULTI_AXL, Mode.BUMP_IN_WIRE)
    requests_per_tenant: int = 32
    arrival_kind: str = "poisson"
    seed: int = 0
    slo_s: float = 50e-3
    max_inflight: int = 8
    queue_capacity: int = 256
    shed: ShedPolicy = ShedPolicy.QUEUE
    sample_period_s: Optional[float] = 1e-3
    faults: Optional[FaultPlan] = None
    chain_factory: Optional[Callable[[], List[AppChain]]] = None
    artifact_dir: Optional[str] = None
    batching: Optional[BatchingConfig] = None
    #: Arms the cost-based per-leg backend planner at every grid point
    #: (None keeps the classic DRX-with-CPU-fallback routing).
    backends: Optional["PlannerConfig"] = None
    #: Arms the SLO observation plane at every grid point: rollup/alert
    #: sections land in each point's artifact and ``ServeResult``. Post
    #: hoc — sweep points and artifact span/metric bytes are unchanged.
    observation: Optional["ObservationConfig"] = None
    #: Trace sampling for written artifacts (None writes every trace).
    sampling: Optional["SamplingConfig"] = None
    #: Base system config for every grid point and calibration probe
    #: (the mode is substituted in). Lets a sweep inject hardware deltas
    #: — e.g. a derated DRX — for differential-diagnosis experiments.
    system: Optional[SystemConfig] = None

    def __post_init__(self) -> None:
        check_serving_fields(self)
        if not self.modes:
            raise ValueError("need at least one mode")


@dataclass(frozen=True)
class SweepPoint:
    """One (mode, offered load) grid point's serving outcome."""

    mode: str
    offered_rps: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    mean_queue_wait_s: float
    goodput_rps: float
    completed: int
    shed: int
    violations: int
    failed: int
    max_queue_depth: int
    elapsed_s: float

    def within_slo(self, slo_s: float) -> bool:
        """True when the point's p99 meets the latency target."""
        return self.p99_s <= slo_s


@dataclass
class SweepResult:
    """All grid points of one sweep, with knee-curve queries."""

    slo_s: float
    seed: int
    points: List[SweepPoint] = field(default_factory=list)

    def modes(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.mode not in seen:
                seen.append(point.mode)
        return seen

    def for_mode(self, mode: "Mode | str") -> List[SweepPoint]:
        """The mode's points, in ascending offered-load order."""
        key = mode.value if isinstance(mode, Mode) else mode
        return sorted(
            (p for p in self.points if p.mode == key),
            key=lambda p: p.offered_rps,
        )

    def p99_curve(self, mode: "Mode | str") -> List[Tuple[float, float]]:
        """(offered load, p99 latency) pairs — the knee curve."""
        return [(p.offered_rps, p.p99_s) for p in self.for_mode(mode)]

    def knee_rps(self, mode: "Mode | str") -> float:
        """Highest offered load sustained before the first SLO violation.

        Scans the mode's curve in ascending load order and returns the
        last load whose p99 met the SLO *before* the first violating
        point; 0.0 when even the lightest load violates.
        """
        sustained = 0.0
        for point in self.for_mode(mode):
            if not point.within_slo(self.slo_s):
                break
            sustained = point.offered_rps
        return sustained

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo_s": self.slo_s,
            "seed": self.seed,
            "points": [asdict(p) for p in self.points],
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical across equal runs."""
        return json.dumps(self.to_dict(), sort_keys=True)


def _point(mode: Mode, offered_rps: float, result: ServeResult) -> SweepPoint:
    has_latency = result.latency.count > 0
    queue_wait = [
        t.queue_wait for t in result.tenants.values() if t.queue_wait.count
    ]
    total_wait = sum(t.total for t in queue_wait)
    total_count = sum(t.count for t in queue_wait)
    violations = sum(result.per_tenant_slo_violations().values())
    return SweepPoint(
        mode=mode.value,
        offered_rps=offered_rps,
        p50_s=result.percentile(0.50) if has_latency else 0.0,
        p95_s=result.percentile(0.95) if has_latency else 0.0,
        p99_s=result.percentile(0.99) if has_latency else 0.0,
        mean_s=result.latency.mean() if has_latency else 0.0,
        mean_queue_wait_s=total_wait / total_count if total_count else 0.0,
        goodput_rps=result.goodput_rps(),
        completed=result.completed,
        shed=result.shed,
        violations=violations,
        failed=result.failed,
        max_queue_depth=result.max_queue_depth(),
        elapsed_s=result.elapsed,
    )


def run_sweep_point(
    config: SweepConfig, mode: Mode, point_index: int
) -> SweepPoint:
    """Run one (mode, offered load) grid point of ``config``.

    The unit of work sharded sweep execution distributes
    (:mod:`repro.eval.orchestrator`); :func:`run_sweep` is exactly this
    over the whole grid, so a point computed here is byte-identical to
    the same point inside a full sweep.
    """
    load = config.offered_loads_rps[point_index]
    system = DMXSystem(
        build_chains(config), system_config(mode, config.system),
        faults=config.faults, backends=config.backends,
    )
    result = serve_load(
        system, load, config.requests_per_tenant,
        FrontendConfig(
            max_inflight=config.max_inflight,
            shed=config.shed,
            slo_s=config.slo_s,
            sample_period_s=config.sample_period_s,
            batching=config.batching,
            observation=config.observation,
        ),
        seed=config.seed,
        arrival_kind=config.arrival_kind,
        queue_capacity=config.queue_capacity,
    )
    if config.artifact_dir is not None:
        from ..telemetry import write_chrome_trace

        stem = os.path.join(
            config.artifact_dir, f"{mode.value}-pt{point_index}"
        )
        write_run_artifact(
            f"{stem}.jsonl",
            result,
            meta={
                "mode": mode.value,
                "offered_rps": load,
                "seed": config.seed,
                "benchmark": config.benchmark,
                "slo_s": config.slo_s,
            },
            sampling=config.sampling,
        )
        write_chrome_trace(
            f"{stem}.trace.json", result.telemetry,
            rollups=result.rollups, alerts=result.alerts,
        )
    return _point(mode, load, result)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full (mode x offered load) grid of one sweep."""
    sweep = SweepResult(slo_s=config.slo_s, seed=config.seed)
    for mode in config.modes:
        for point_index in range(len(config.offered_loads_rps)):
            sweep.points.append(run_sweep_point(config, mode, point_index))
    return sweep


# -- calibration helpers -------------------------------------------------------


def calibrate_peak_rps(config: SweepConfig, mode: Mode) -> float:
    """The mode's drain rate on a fixed backlog (batch-issue throughput).

    An upper bound on the sustainable online load; sweep drivers use it
    to place their offered-load grid around the knee.
    """
    system = DMXSystem(
        build_chains(config), system_config(mode, config.system)
    )
    return system.run_throughput(requests_per_app=8).throughput()


def unloaded_latency(config: SweepConfig, mode: Mode) -> float:
    """Mean end-to-end latency with a single closed-loop client per
    tenant — the no-queueing service-latency floor SLOs are set from."""
    system = DMXSystem(
        build_chains(config), system_config(mode, config.system)
    )
    return system.run_latency(requests_per_app=2).mean_latency()
