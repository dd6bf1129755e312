"""Permanent-failure domains: crash plans and their typed exceptions.

Where :class:`~repro.faults.plan.FaultPlan` injects *transient* faults
(one operation delays, hangs, or fails and the per-request machinery
recovers), a :class:`CrashPlan` models *permanent* loss of a failure
domain: a DRX card, a DSA engine pool, an XDMA-capable fabric link, or a
whole backend dies at a sim instant — optionally coming back later.

A domain is addressed by its dispatch-target name, the same string the
resilience plane keys its breakers on:

* a DRX unit — ``"drx.s0"`` (standalone card), ``"drx.sw0"``
  (switch-integrated), ``"a0k0.drx"`` (bump-in-the-wire), ``"drx.root"``;
* a backend pool — ``"dsa"`` or ``"xdma"`` (the whole engine class goes
  dark, e.g. a shared work queue is disabled or the fabric link drops).

The plan itself is pure data; the mechanics — detection, decommission,
drain via the engine's interrupt machinery, exactly-once rescue, and
half-open re-admission on revival — live in
:class:`repro.resilience.recovery.DomainManager`. An empty plan (no
crashes) arms nothing: the system schedules no events and draws no
randomness, so armed crash-free runs stay byte-identical to unarmed
ones (the property ``benchmarks/test_recovery.py`` pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["DomainCrash", "CrashPlan", "DomainCrashed", "RescueAbandoned"]


@dataclass(frozen=True)
class DomainCrash:
    """One failure domain dying at ``at_s`` (revived at ``revive_at_s``,
    if ever)."""

    target: str
    at_s: float
    revive_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("crash target must be a non-empty name")
        if not self.at_s >= 0:
            raise ValueError("crash instant at_s must be >= 0 (not NaN)")
        if self.revive_at_s is not None and not self.revive_at_s > self.at_s:
            raise ValueError(
                "revive_at_s must come strictly after the crash (not NaN)"
            )


@dataclass(frozen=True)
class CrashPlan:
    """Everything the system needs to arm the permanent-failure layer.

    ``detect_after_failures`` is the consecutive-failure escalation
    threshold: that many observed crash failures on a target promote its
    breaker to DEAD (decommission). The default of 1 models a device
    driver surfacing a surprise link-down immediately; raise it to model
    detection purely by repeated dispatch failures.

    ``rescue_deadline_s`` bounds how much latency a drained in-flight
    leg may already have burned and still be worth rescuing; past it the
    request fails with a typed :class:`RescueAbandoned` instead of being
    resubmitted. ``None`` rescues unconditionally.

    The crash schedule is deterministic data, so the plan has no seed.
    """

    crashes: Tuple[DomainCrash, ...] = ()
    detect_after_failures: int = 1
    rescue_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.detect_after_failures >= 1:
            raise ValueError("detect_after_failures must be >= 1 (not NaN)")
        if self.rescue_deadline_s is not None and not (
            self.rescue_deadline_s >= 0
        ):
            raise ValueError("rescue_deadline_s must be >= 0 (not NaN)")
        targets = [crash.target for crash in self.crashes]
        if len(set(targets)) != len(targets):
            raise ValueError(
                "at most one crash per target (domains die once per run)"
            )


class DomainCrashed(Exception):
    """An in-flight (or just-dispatched) leg's failure domain is dead.

    Raised by the leg race when the domain's crash event fires
    (``inflight=True``, the in-flight drain) or has already fired
    (``inflight=False``, fail-fast at dispatch). The recovery layer
    catches it to rescue the leg onto a surviving backend; it is not a
    timeout, so nothing retries it in place.
    """

    def __init__(self, target: str, crashed_at: float, inflight: bool):
        super().__init__(f"failure domain {target!r} crashed at {crashed_at}")
        self.target = target
        self.crashed_at = crashed_at
        self.inflight = inflight


class RescueAbandoned(Exception):
    """A drained leg was past the rescue deadline: the request fails
    with this typed reason instead of being resubmitted."""

    def __init__(self, target: str, burned_s: float):
        super().__init__(
            f"leg drained from {target!r} had already burned "
            f"{burned_s * 1e3:.2f} ms — past the rescue deadline"
        )
        self.target = target
        self.burned_s = burned_s
