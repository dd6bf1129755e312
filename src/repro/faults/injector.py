"""Seeded fault injection for the DES model.

A :class:`FaultInjector` perturbs operations at named *sites* ("dma",
"drx", "kernel", "notify", and the backend planner's "dsa" and "xdma")
according to per-site :class:`FaultPolicy` probabilities:

* **DELAY** — the operation runs, but only after an extra latency (a
  straggler: descriptor ring backpressure, a slow completion);
* **HANG** — the operation never starts and never completes (a wedged
  engine); only a watchdog timeout interrupting the waiting process can
  reclaim it;
* **FAIL** — the operation burns a small latency and then raises
  :class:`InjectedFault` (a reported DMA error, a faulted kernel).

All randomness comes from one ``random.Random(seed)``, and the DES event
order is deterministic, so a seeded run replays the exact same fault
sequence — the property the recovery tests and the acceptance scenario
rely on. Each injected fault is passed to an optional ``note`` callback
(the system writes it as a ``fault`` telemetry instant).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Tuple

from ..sim import Event, Simulator

__all__ = ["FaultKind", "FaultPolicy", "InjectedFault", "FaultInjector"]


class FaultKind(enum.Enum):
    """The three perturbation flavours the injector can apply."""

    DELAY = "delay"
    HANG = "hang"
    FAIL = "fail"


class InjectedFault(Exception):
    """Raised inside an operation the injector chose to FAIL."""

    def __init__(self, message: str = "", site: str = "", actor: str = ""):
        super().__init__(message or f"injected fault at {site}:{actor}")
        self.site = site
        self.actor = actor


@dataclass(frozen=True)
class FaultPolicy:
    """Per-site fault probabilities and shapes (everything off by default).

    ``fail_p`` / ``hang_p`` / ``delay_p`` are per-operation probabilities;
    at most one fault is drawn per operation, in that precedence order.
    ``delay_s`` is the mean extra latency of a DELAY (the actual delay is
    drawn uniformly in [0.5x, 1.5x]); ``fail_latency_s`` is the time a
    FAIL burns before the error surfaces.
    """

    fail_p: float = 0.0
    hang_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 100e-6
    fail_latency_s: float = 5e-6

    def __post_init__(self) -> None:
        for name in ("fail_p", "hang_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.fail_p + self.hang_p + self.delay_p > 1.0:
            raise ValueError("fault probabilities must sum to at most 1")
        for name in ("delay_s", "fail_latency_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")

    @property
    def active(self) -> bool:
        return (self.fail_p + self.hang_p + self.delay_p) > 0.0


_NO_FAULTS = FaultPolicy()


class FaultInjector:
    """Applies seeded per-site fault policies to DES operations.

    Parameters
    ----------
    sim:
        Owning simulator.
    seed:
        Seed for the injector's private RNG; two runs with the same seed
        and workload inject the identical fault sequence.
    policies:
        Mapping of site name → :class:`FaultPolicy`. Sites without an
        entry are never perturbed.
    note:
        Optional callback ``note(kind, actor, site=, request_id=)``;
        every injected fault is noted with kind ``inject:<flavour>``.
    """

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        policies: Optional[Dict[str, FaultPolicy]] = None,
        note: Optional[Callable[..., None]] = None,
    ):
        self.sim = sim
        self.seed = seed
        self._rng = random.Random(seed)
        self.policies: Dict[str, FaultPolicy] = dict(policies or {})
        self.note = note
        self.injected: Dict[Tuple[str, FaultKind], int] = {}

    def policy_for(self, site: str) -> FaultPolicy:
        return self.policies.get(site, _NO_FAULTS)

    def injected_count(
        self,
        site: Optional[str] = None,
        kind: Optional[FaultKind] = None,
    ) -> int:
        """Number of faults injected so far, filtered by site and kind."""
        return sum(
            n
            for (s, k), n in self.injected.items()
            if (site is None or s == site) and (kind is None or k == kind)
        )

    def draw(self, site: str) -> Optional[Tuple[FaultKind, float]]:
        """Roll the dice for one operation at ``site``.

        Returns ``(kind, latency_param)`` or None. Consumes exactly one
        uniform draw when the site has any probability mass (plus one
        more for a DELAY magnitude), keeping replay deterministic.
        """
        policy = self.policy_for(site)
        if not policy.active:
            return None
        u = self._rng.random()
        if u < policy.fail_p:
            return (FaultKind.FAIL, policy.fail_latency_s)
        u -= policy.fail_p
        if u < policy.hang_p:
            return (FaultKind.HANG, 0.0)
        u -= policy.hang_p
        if u < policy.delay_p:
            magnitude = policy.delay_s * (0.5 + self._rng.random())
            return (FaultKind.DELAY, magnitude)
        return None

    def _record(
        self, site: str, kind: FaultKind, actor: str, request_id: int
    ) -> None:
        key = (site, kind)
        self.injected[key] = self.injected.get(key, 0) + 1
        if self.note is not None:
            self.note(
                f"inject:{kind.value}", actor or site,
                site=site, request_id=request_id,
            )

    def interpose(
        self, site: str, actor: str = "", request_id: int = -1
    ) -> Generator:
        """Process helper: maybe delay, hang, or fail at ``site``.

        DELAY yields the extra latency and returns; HANG blocks on an
        event that never triggers (only an interrupt reclaims the
        process); FAIL raises :class:`InjectedFault` after its latency.
        """
        fault = self.draw(site)
        if fault is None:
            return False
        kind, param = fault
        self._record(site, kind, actor, request_id)
        if kind is FaultKind.DELAY:
            yield self.sim.timeout(param)
            return True
        if kind is FaultKind.HANG:
            yield Event(self.sim)  # pending forever; a watchdog must reap us
            raise AssertionError("unreachable: hang event triggered")
        if param > 0:
            yield self.sim.timeout(param)
        raise InjectedFault(site=site, actor=actor)

    def guard(
        self,
        site: str,
        op: Generator,
        actor: str = "",
        request_id: int = -1,
    ) -> Generator:
        """Process helper: run ``op`` under this site's fault policy.

        The fault (if any) lands *before* the operation: a failed or hung
        operation never acquires the resources ``op`` would have taken,
        so watchdog interrupts find nothing to unwind but the guard
        itself.
        """
        started = False
        try:
            yield from self.interpose(site, actor=actor, request_id=request_id)
            started = True
            return (yield from op)
        finally:
            if not started:
                op.close()
