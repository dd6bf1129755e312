"""Differential test: the static route's fixed ranking against the walk
it replaced.

:class:`~repro.backends.planner.FixedRanking` routes a DRX-placement
leg through the shared admission walk. The reference below is the
static route it replaced, ``DMXSystem._route_drx`` with
``_alternate_placements``. Its code is verbatim apart from two edits:
methods became functions taking the system, and the
``reroute_alternates`` knob (whose default, now the only behaviour, was
``True``) is gone from the alternates condition.

Hypothesis draws a placement mode, a breaker state per DRX unit, a
decommissioned subset, whether the control plane and the crash layer
are armed, ``force_cpu``, telemetry on or off, and the batch count. One
leg is routed through ``system.router`` on one system and through the
reference on an identically built twin; every routing effect must
match — the chosen unit (or CPU) and staging point, the probe flag,
the motion span's attrs in order, ``state.rerouted``, the instants
(``breaker_reroute``, ``brownout_force_cpu`` and breaker transitions)
and every breaker's state and counters afterwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.base import AcceleratorSpec
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.core.system import _RequestState
from repro.faults import CrashPlan, DomainCrash
from repro.profiles import WorkProfile
from repro.resilience import BreakerConfig, ResilienceConfig

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)
N_APPS = 4  # 12 accelerators: two standalone cards, two PCIe switches
RID = 7

#: Two probe wins close a half-open breaker, so one win leaves it
#: half-open with its probe slot free.
ARMED = ResilienceConfig(
    seed=3,
    breaker=BreakerConfig(
        cooldown_s=100.0, cooldown_cap_s=100.0, probe_successes=2
    ),
)

BREAKER_STATES = (
    "closed", "open", "half-open-free", "half-open-probing", "dead",
)
MODES = (
    Mode.STANDALONE, Mode.PCIE_INTEGRATED, Mode.BUMP_IN_WIRE,
    Mode.INTEGRATED,
)


# -- the reference: the static route before it became a ranking ----------

def _alternate_placements(self, mode: Mode, exclude: str):
    """Other DRX units (with their staging points) that could serve
    a leg whose home unit's breaker is open, in deterministic name
    order. Standalone cards and switch-integrated DRXs are fungible
    (the fabric routes the extra hops and charges for them);
    Integrated has a single unit and Bump-in-the-Wire units are
    private to their wire, so neither has alternates."""
    if mode == Mode.STANDALONE:
        return [
            (self.drx_devices[name], name)
            for name in sorted(self.drx_devices)
            if name != exclude
        ]
    if mode == Mode.PCIE_INTEGRATED:
        return [
            (self.drx_devices[name], name[len("drx."):])
            for name in sorted(self.drx_devices)
            if name != exclude
        ]
    return []


def _route_drx(self, mode, drx, staging, state, mspan, force_cpu):
    """Control-plane routing for one motion stage's DRX leg.

    Returns ``(drx, staging, probe)`` for the unit the leg should
    use, or ``None`` when the leg must degrade to CPU restructuring
    right away."""
    rid = state.request_id if state is not None else -1
    record_spans = self.telemetry.enabled and mspan is not None
    if force_cpu:
        if state is not None:
            state.rerouted = True
        if record_spans:
            mspan.attrs["forced_cpu"] = True
        self.telemetry.instant(
            "brownout_force_cpu", "brownout", actor=drx.name,
            request_id=rid,
        )
        return None
    down = self.domains is not None and self.domains.is_down(drx.name)
    if down:
        if record_spans:
            mspan.attrs["domain_down"] = True
    else:
        if self.control is None:
            return drx, staging, False
        decision = self.control.admit(drx.name)
        if decision.allow:
            return drx, staging, decision.probe
        if record_spans:
            mspan.attrs["breaker_open"] = True
    for alt, alt_staging in _alternate_placements(self, mode, drx.name):
        if (
            self.domains is not None
            and self.domains.is_down(alt.name)
        ):
            continue
        if self.control is not None:
            alt_decision = self.control.admit(alt.name)
            if not alt_decision.allow:
                continue
            probe = alt_decision.probe
        else:
            probe = False
        if state is not None:
            state.rerouted = True
        if record_spans:
            mspan.attrs["rerouted_to"] = alt.name
        if self.control is not None:
            self.control.note_reroute(drx.name, alt.name, rid)
        return alt, alt_staging, probe
    if state is not None:
        state.rerouted = True
    if record_spans:
        mspan.attrs["rerouted_to"] = "cpu"
    if self.control is not None:
        self.control.note_reroute(drx.name, "cpu", rid)
    return None


def _reference_route(system, app, src, force_cpu, state, mspan):
    """What the static ``_motion_body`` chose: ``(unit, staging,
    probe)``, with unit ``"cpu"`` for host restructuring."""
    mode = system.config.mode
    drx, staging = system._drx_placement(mode, src, app)
    probe = False
    if force_cpu or system.control is not None or system.domains is not None:
        routed = _route_drx(system, mode, drx, staging, state, mspan,
                            force_cpu)
        if routed is None:
            return "cpu", None, False
        drx, staging, probe = routed
    return drx.name, staging, probe


def _router_route(system, app, src, dst, stage, count, force_cpu, state,
                  mspan):
    router = system.router
    backend, leg, probe = router.route(
        app, src, dst, stage, count, state, mspan, force_cpu
    )
    if backend is router.cpu:
        return "cpu", None, probe
    return leg.drx.name, leg.staging, probe


# -- the twins ---------------------------------------------------------------

def _chain(i):
    profile = WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB,
        elements=16384, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m1", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m2", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=2),
            KernelStage("k3", SPEC, cpu_time_s=20e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


def _build(mode, armed, crash_armed, telemetry):
    # A crash far past anything routed here arms the crash layer (so
    # ``system.domains`` exists) without ever firing.
    domains = (
        CrashPlan(crashes=(DomainCrash(target="never", at_s=1e9),))
        if crash_armed else None
    )
    return DMXSystem(
        [_chain(i) for i in range(N_APPS)], SystemConfig(mode=mode),
        telemetry_enabled=telemetry,
        resilience=ARMED if armed else None, domains=domains,
    )


def _set_breaker(control, name, how):
    breaker = control.breaker(name)
    if how == "open":
        breaker.force_open()
    elif how == "half-open-free":
        breaker.force_open(cooldown_s=0.0)
        assert breaker.allow().probe
        breaker.record(True, 1e-6, probe=True)
    elif how == "half-open-probing":
        breaker.force_open(cooldown_s=0.0)
        assert breaker.allow().probe
    elif how == "dead":
        breaker.mark_dead()


def _effects(system, mspan, state):
    """Everything a routing decision may leave behind."""
    control = system.control
    breakers = {}
    if control is not None:
        breakers = {
            name: (
                b.state, b.trips, list(b.transitions), b.open_until,
                b._probe_inflight, b._probe_ok, b._consecutive_opens,
            )
            for name, b in sorted(control._breakers.items())
        }
    return {
        "attrs": list(mspan.attrs.items()) if system.telemetry.enabled
        else [],
        "rerouted": state.rerouted,
        "instants": [
            (i.name, i.category, i.actor, i.time, sorted(i.attrs.items()))
            for i in system.telemetry.instants
        ],
        "breakers": breakers,
        "reroutes": None if control is None else control.reroutes,
        "transitions": None if control is None else control.transitions,
    }


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(MODES))
    units = sorted(_build(mode, False, False, False).drx_devices)
    armed = draw(st.booleans())
    crash_armed = draw(st.booleans())
    return dict(
        mode=mode,
        armed=armed,
        crash_armed=crash_armed,
        breakers=(
            draw(st.lists(st.sampled_from(BREAKER_STATES),
                          min_size=len(units), max_size=len(units)))
            if armed else []
        ),
        down=(
            draw(st.lists(st.sampled_from(units), unique=True))
            if crash_armed else []
        ),
        units=units,
        app=draw(st.integers(0, N_APPS - 1)),
        motion=draw(st.integers(0, 1)),
        force_cpu=draw(st.booleans()),
        telemetry=draw(st.booleans()),
        count=draw(st.sampled_from([1, 4])),
    )


def _route_on_twin(scenario, via_router):
    system = _build(
        scenario["mode"], scenario["armed"], scenario["crash_armed"],
        scenario["telemetry"],
    )
    if system.control is not None:
        for name, how in zip(scenario["units"], scenario["breakers"]):
            _set_breaker(system.control, name, how)
    for name in scenario["down"]:
        system.domains._decommissioned.add(name)
    app, motion = scenario["app"], scenario["motion"]
    src = system.accel_name(app, motion)
    dst = system.accel_name(app, motion + 1)
    stage = system.chains[app].stages[2 * motion + 1]
    state = _RequestState(RID)
    mspan = system.telemetry.begin("motion0", "stage", src=src, dst=dst)
    if via_router:
        chosen = _router_route(
            system, app, src, dst, stage, scenario["count"],
            scenario["force_cpu"], state, mspan,
        )
    else:
        chosen = _reference_route(
            system, app, src, scenario["force_cpu"], state, mspan
        )
    return chosen, _effects(system, mspan, state)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_fixed_ranking_matches_the_static_route(scenario):
    assert _route_on_twin(scenario, True) == _route_on_twin(scenario, False)

