"""FaultInjector: seeded determinism, policy validation, the three kinds."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPolicy, InjectedFault
from repro.sim import Interrupt, Simulator


def run_draws(seed, policy, n=200):
    sim = Simulator()
    injector = FaultInjector(sim, seed=seed, policies={"dma": policy})
    return [injector.draw("dma") for _ in range(n)]


def test_same_seed_same_fault_sequence():
    policy = FaultPolicy(fail_p=0.1, hang_p=0.05, delay_p=0.2)
    assert run_draws(7, policy) == run_draws(7, policy)


def test_different_seed_different_fault_sequence():
    policy = FaultPolicy(fail_p=0.1, hang_p=0.05, delay_p=0.2)
    assert run_draws(7, policy) != run_draws(8, policy)


def test_draw_precedence_matches_probability_mass():
    draws = run_draws(3, FaultPolicy(fail_p=0.1, hang_p=0.1, delay_p=0.1),
                      n=3000)
    kinds = [kind for d in draws if d is not None for kind, _ in [d]]
    for kind in FaultKind:
        frequency = kinds.count(kind) / len(draws)
        assert frequency == pytest.approx(0.1, abs=0.03)


def test_inactive_site_consumes_no_randomness():
    sim = Simulator()
    injector = FaultInjector(sim, seed=1, policies={"dma": FaultPolicy()})
    state = injector._rng.getstate()
    assert injector.draw("dma") is None
    assert injector.draw("unknown-site") is None
    assert injector._rng.getstate() == state


def test_policy_validation():
    with pytest.raises(ValueError, match="fail_p"):
        FaultPolicy(fail_p=1.5)
    with pytest.raises(ValueError, match="sum"):
        FaultPolicy(fail_p=0.6, hang_p=0.6)
    with pytest.raises(ValueError, match="non-negative"):
        FaultPolicy(delay_s=-1.0)
    assert not FaultPolicy().active
    assert FaultPolicy(delay_p=0.1).active


def test_fail_raises_injected_fault_after_latency():
    sim = Simulator()
    injector = FaultInjector(
        sim, seed=0,
        policies={"dma": FaultPolicy(fail_p=1.0, fail_latency_s=2e-6)},
    )
    seen = []

    def op(sim):
        yield sim.timeout(1.0)
        return "never"

    def proc(sim):
        try:
            yield from injector.guard("dma", op(sim), actor="eng0")
        except InjectedFault as exc:
            seen.append((sim.now, exc.site, exc.actor))

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [(2e-6, "dma", "eng0")]
    assert injector.injected_count("dma", FaultKind.FAIL) == 1


def test_delay_runs_op_after_extra_latency():
    sim = Simulator()
    injector = FaultInjector(
        sim, seed=0, policies={"dma": FaultPolicy(delay_p=1.0, delay_s=1.0)},
    )
    finished = []

    def op(sim):
        yield sim.timeout(1.0)
        return "done"

    def proc(sim):
        value = yield from injector.guard("dma", op(sim))
        finished.append((value, sim.now))

    sim.spawn(proc(sim))
    sim.run()
    (value, when), = finished
    assert value == "done"
    # delay is uniform in [0.5x, 1.5x] of delay_s, plus the op's own 1 s.
    assert 1.5 <= when <= 2.5
    assert injector.injected_count(kind=FaultKind.DELAY) == 1


def test_hang_blocks_until_interrupted_and_op_never_starts():
    sim = Simulator()
    injector = FaultInjector(
        sim, seed=0, policies={"drx": FaultPolicy(hang_p=1.0)},
    )
    log = []

    def op(sim):
        log.append("op-started")
        yield sim.timeout(1.0)

    def proc(sim):
        try:
            yield from injector.guard("drx", op(sim))
        except Interrupt:
            log.append(("reaped", sim.now))

    victim = sim.spawn(proc(sim))
    sim.schedule(5.0, lambda: victim.interrupt("watchdog"))
    sim.run()
    # HANG means the guarded op never even begins; only the watchdog
    # interrupt reclaims the process.
    assert log == [("reaped", 5.0)]
    assert injector.injected_count("drx", FaultKind.HANG) == 1


def test_guard_closes_unstarted_op_generator():
    sim = Simulator()
    injector = FaultInjector(
        sim, seed=0, policies={"dma": FaultPolicy(fail_p=1.0)},
    )
    cleanup = []

    def op(sim):
        try:
            yield sim.timeout(1.0)
        finally:
            cleanup.append("closed")

    gen = op(sim)

    def proc(sim):
        try:
            yield from injector.guard("dma", gen)
        except InjectedFault:
            pass

    sim.spawn(proc(sim))
    sim.run()
    # The op generator is close()d, not leaked half-constructed.
    with pytest.raises(StopIteration):
        next(gen)


def test_note_receives_injections():
    sim = Simulator()
    notes = []
    injector = FaultInjector(
        sim, seed=0,
        policies={"dma": FaultPolicy(fail_p=1.0)},
        note=lambda *args, **kw: notes.append((sim.now, args, kw)),
    )

    def op(sim):
        yield sim.timeout(1.0)

    def proc(sim):
        try:
            yield from injector.guard("dma", op(sim), actor="eng0",
                                      request_id=42)
        except InjectedFault:
            pass

    sim.spawn(proc(sim))
    sim.run()
    # Noted at the instant of injection, before the fail latency burns.
    assert notes == [
        (0.0, ("inject:fail", "eng0"), {"site": "dma", "request_id": 42}),
    ]
