"""The chaos sweep: FaultPlan intensity × offered load → goodput cliff.

Open-loop faults at scale: :func:`run_chaos_sweep` crosses a grid of
fault intensities (a scalar multiplier on :data:`DEFAULT_CHAOS_PLAN`'s
injection probabilities) with a grid of offered loads, running one full
serving experiment per cell — with and without the resilience control
plane — and charts where **goodput falls off a cliff**: the highest
offered load a configuration sustains while goodput stays at least
``goodput_floor`` (0.7) of what was offered.

The mechanism the sweep exposes: without breakers, every request that
hits a sick DRX burns the full per-stage deadline budget while holding
a dispatch slot, so recovery work itself saturates the system and the
cliff arrives at low load. With the control plane, the first few
failures trip the unit's breaker and subsequent requests are steered
around it instantly — the same fault intensity costs a roughly constant
amount of recovery work instead of an amount proportional to traffic,
and the cliff moves right.

Everything is deterministic: equal-seed sweeps serialize to
byte-identical JSON (:meth:`ChaosSweepResult.to_json`).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from ..core.chain import AppChain
from ..core.placement import Mode
from ..core.system import DMXSystem
from ..faults import FaultPlan
from ..faults.injector import FaultPolicy
from ..serve.frontend import FrontendConfig, ShedPolicy
from ..serve.slo import ServeResult
from ..serve.sweep import (
    build_chains,
    check_serving_fields,
    serve_load,
    system_config,
    write_run_artifact,
)
from .control import ResilienceConfig

__all__ = ["ChaosSweepConfig", "ChaosPoint", "ChaosSweepResult",
           "run_chaos_sweep", "run_chaos_cell", "scale_plan",
           "DEFAULT_CHAOS_PLAN"]

#: A base plan worth scaling: at intensity 1.0 half the DRX legs hang
#: (caught by the deadline watchdog) and DMA occasionally faults. The
#: tight ``drx_deadline_s`` is the recovery tax each un-breakered
#: request pays.
DEFAULT_CHAOS_PLAN = FaultPlan(
    seed=7,
    drx=FaultPolicy(hang_p=0.5),
    dma=FaultPolicy(fail_p=0.05),
    drx_deadline_s=30e-3,
)


def _scale_policy(policy: FaultPolicy, intensity: float) -> FaultPolicy:
    fail = policy.fail_p * intensity
    hang = policy.hang_p * intensity
    delay = policy.delay_p * intensity
    total = fail + hang + delay
    if total > 1.0:  # keep the policy a valid sub-distribution
        fail, hang, delay = fail / total, hang / total, delay / total
    return replace(policy, fail_p=fail, hang_p=hang, delay_p=delay)


def scale_plan(plan: FaultPlan, intensity: float) -> FaultPlan:
    """Scale every injection probability of ``plan`` by ``intensity``
    (clamped so each site's probabilities still sum to <= 1), at every
    site :meth:`FaultPlan.site_policies` names; timeouts, retry budgets,
    and the seed are untouched. ``intensity=0`` yields a plan that
    injects nothing but keeps the recovery plane armed."""
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    return replace(plan, **{
        site: _scale_policy(policy, intensity)
        for site, policy in plan.site_policies().items()
    })


@dataclass(frozen=True)
class ChaosSweepConfig:
    """One chaos experiment: loads × intensities × {baseline, resilient}.

    ``offered_loads_rps`` is the aggregate offered load per point, split
    evenly across the tenant chains (ascending, like
    :class:`~repro.serve.sweep.SweepConfig`). ``fault_intensities``
    scale :data:`DEFAULT_CHAOS_PLAN` via :func:`scale_plan`.
    ``control_plane`` is the pair of arms to run — ``(False, True)`` by
    default, proving the cliff shift. ``resilience`` configures the
    breakers for the resilient arm.

    Every cell serves ``n_tenants`` Poisson tenants of ``benchmark``
    (``chain_factory``'s chains when set) on a ``mode`` system, queueing
    every arrival (``ShedPolicy.QUEUE``) and dispatching FCFS.

    ``artifact_dir`` writes each cell's telemetry as a run artifact
    (``{baseline|resilient}-i<intensity idx>-pt<load idx>.jsonl``) —
    deterministic names, byte-identical contents across equal seeds —
    and runs the conservation-invariant checker on it (raising
    :class:`~repro.resilience.invariants.InvariantViolation` if the
    books don't balance: a chaos sweep that miscounts a request is
    worthless).
    """

    #: The constants of every cell (class attributes, not settable).
    mode: ClassVar[Mode] = Mode.STANDALONE
    benchmark: ClassVar[str] = "sound-detection"
    n_tenants: ClassVar[int] = 2
    #: A load is sustained while goodput is at least this share of it.
    goodput_floor: ClassVar[float] = 0.7

    offered_loads_rps: Tuple[float, ...]
    fault_intensities: Tuple[float, ...] = (1.0,)
    control_plane: Tuple[bool, ...] = (False, True)
    resilience: ResilienceConfig = ResilienceConfig()
    requests_per_tenant: int = 24
    seed: int = 0
    slo_s: float = 50e-3
    max_inflight: int = 8
    sample_period_s: Optional[float] = 1e-3
    chain_factory: Optional[Callable[[], List[AppChain]]] = None
    artifact_dir: Optional[str] = None

    def __post_init__(self) -> None:
        check_serving_fields(self)
        if not self.fault_intensities:
            raise ValueError("need at least one fault intensity")
        if not all(i >= 0 for i in self.fault_intensities):
            raise ValueError("fault_intensities must be >= 0 (not NaN)")
        if not self.control_plane:
            raise ValueError("need at least one control-plane arm")


@dataclass(frozen=True)
class ChaosPoint:
    """One (control plane, intensity, load) cell's serving outcome."""

    control_plane: bool
    intensity: float
    offered_rps: float
    goodput_rps: float
    p50_s: float
    p99_s: float
    completed: int
    failed: int
    violations: int
    shed: int
    retries: int
    fallbacks: int
    rerouted: int
    elapsed_s: float

    def sustains(self, floor: float) -> bool:
        """Did goodput keep up with at least ``floor`` of the offer?"""
        return self.goodput_rps >= floor * self.offered_rps


@dataclass
class ChaosSweepResult:
    """The full grid, with goodput-cliff queries."""

    slo_s: float
    seed: int
    goodput_floor: float
    points: List[ChaosPoint] = field(default_factory=list)

    def cell(
        self, intensity: float, control_plane: bool
    ) -> List[ChaosPoint]:
        """One (intensity, arm)'s points in ascending load order."""
        return sorted(
            (
                p
                for p in self.points
                if p.intensity == intensity
                and p.control_plane == control_plane
            ),
            key=lambda p: p.offered_rps,
        )

    def intensities(self) -> List[float]:
        seen: List[float] = []
        for point in self.points:
            if point.intensity not in seen:
                seen.append(point.intensity)
        return seen

    def goodput_curve(
        self, intensity: float, control_plane: bool
    ) -> List[Tuple[float, float]]:
        """(offered load, goodput) pairs for one arm."""
        return [
            (p.offered_rps, p.goodput_rps)
            for p in self.cell(intensity, control_plane)
        ]

    def goodput_cliff_rps(
        self,
        intensity: float,
        control_plane: bool,
        floor: Optional[float] = None,
    ) -> float:
        """Highest offered load sustained before the goodput cliff.

        Scans the arm's points in ascending load order and returns the
        last load whose goodput met ``floor * offered`` before the
        first point that missed it; 0.0 when even the lightest load
        misses.
        """
        floor = self.goodput_floor if floor is None else floor
        sustained = 0.0
        for point in self.cell(intensity, control_plane):
            if not point.sustains(floor):
                break
            sustained = point.offered_rps
        return sustained

    def cliff_shift_rps(self, intensity: float) -> float:
        """How far right the control plane moves the cliff (rps)."""
        return self.goodput_cliff_rps(intensity, True) - \
            self.goodput_cliff_rps(intensity, False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo_s": self.slo_s,
            "seed": self.seed,
            "goodput_floor": self.goodput_floor,
            "points": [asdict(p) for p in self.points],
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical across equal runs."""
        return json.dumps(self.to_dict(), sort_keys=True)


def _point(
    resilient: bool, intensity: float, load: float, result: ServeResult
) -> ChaosPoint:
    has_latency = result.latency.count > 0
    return ChaosPoint(
        control_plane=resilient,
        intensity=intensity,
        offered_rps=load,
        goodput_rps=result.goodput_rps(),
        p50_s=result.percentile(0.50) if has_latency else 0.0,
        p99_s=result.percentile(0.99) if has_latency else 0.0,
        completed=result.completed,
        failed=result.failed,
        violations=sum(result.per_tenant_slo_violations().values()),
        shed=result.shed,
        retries=sum(r.retries for r in result.records),
        fallbacks=sum(1 for r in result.records if r.fell_back),
        rerouted=sum(1 for r in result.records if r.rerouted),
        elapsed_s=result.elapsed,
    )


def run_chaos_cell(
    config: ChaosSweepConfig,
    intensity_index: int,
    resilient: bool,
    load_index: int,
) -> ChaosPoint:
    """Run one (intensity, arm, load) cell of ``config``'s grid.

    The unit of work sharded chaos execution distributes
    (:mod:`repro.eval.orchestrator`); :func:`run_chaos_sweep` is exactly
    this over the whole grid, so a cell computed here is byte-identical
    to the same cell inside a full sweep.
    """
    intensity = config.fault_intensities[intensity_index]
    load = config.offered_loads_rps[load_index]
    system = DMXSystem(
        build_chains(config),
        system_config(config.mode),
        faults=scale_plan(DEFAULT_CHAOS_PLAN, intensity),
        resilience=config.resilience if resilient else None,
    )
    result = serve_load(
        system, load, config.requests_per_tenant,
        FrontendConfig(
            max_inflight=config.max_inflight,
            shed=ShedPolicy.QUEUE,
            slo_s=config.slo_s,
            sample_period_s=config.sample_period_s,
        ),
        seed=config.seed,
    )
    if config.artifact_dir is not None:
        arm = "resilient" if resilient else "baseline"
        write_run_artifact(
            os.path.join(
                config.artifact_dir,
                f"{arm}-i{intensity_index}-pt{load_index}.jsonl",
            ),
            result,
            meta={
                "control_plane": resilient,
                "intensity": intensity,
                "offered_rps": load,
                "seed": config.seed,
                "slo_s": config.slo_s,
                "mode": config.mode.value,
            },
            verify=True,
        )
    return _point(resilient, intensity, load, result)


def run_chaos_sweep(config: ChaosSweepConfig) -> ChaosSweepResult:
    """Run the full {arm} × intensity × load grid of one chaos sweep."""
    sweep = ChaosSweepResult(
        slo_s=config.slo_s,
        seed=config.seed,
        goodput_floor=config.goodput_floor,
    )
    for intensity_index in range(len(config.fault_intensities)):
        for resilient in config.control_plane:
            for load_index in range(len(config.offered_loads_rps)):
                sweep.points.append(
                    run_chaos_cell(
                        config, intensity_index, resilient, load_index
                    )
                )
    return sweep
