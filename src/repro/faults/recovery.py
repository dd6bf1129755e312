"""Recovery combinators: deadline races, interruption, bounded backoff.

Two process helpers implement the recovery discipline the DMX runtime
threads through the stack:

* :func:`with_timeout` races an operation (run as a child process)
  against a deadline with ``AnyOf(op, timeout)``; on deadline it
  *interrupts* the child — whose ``finally`` blocks release held slots
  and cancel queued requests — and raises
  :class:`~repro.sim.WaitTimeout`. An optional abort event races too
  (a failure domain's crash broadcast): it interrupts the child the
  same way and raises the caller's exception instead.
* :func:`retry` wraps ``with_timeout`` in a bounded
  exponential-backoff loop, re-running an operation factory until it
  succeeds, the attempts are exhausted (:class:`RetryExhausted`), or a
  non-retryable exception escapes.

Both are ordinary generators: ``value = yield from with_timeout(...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple

from ..sim import AnyOf, Event, Interrupt, Simulator, WaitTimeout
from .injector import InjectedFault

__all__ = ["RetryPolicy", "RetryExhausted", "shielded", "with_timeout", "retry"]

#: Exceptions the retry loop treats as transient by default.
DEFAULT_RETRYABLE = (InjectedFault, WaitTimeout)


class RetryExhausted(Exception):
    """All retry attempts failed; ``last`` carries the final cause."""

    def __init__(
        self,
        message: str = "",
        attempts: int = 0,
        last: Optional[BaseException] = None,
    ):
        super().__init__(
            message or f"operation failed after {attempts} attempts: {last!r}"
        )
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``base * multiplier**n``, capped.

    ``max_attempts`` counts the first try; ``max_attempts=3`` means up to
    two retries. Backoff is fully deterministic (no jitter) so seeded
    fault-injection runs replay exactly.
    """

    max_attempts: int = 3
    backoff_base_s: float = 10e-6
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 1e-3

    def __post_init__(self) -> None:
        if not self.max_attempts >= 1:
            raise ValueError("max_attempts must be at least 1 (not NaN)")
        for name in ("backoff_base_s", "backoff_cap_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")
        if not self.backoff_multiplier >= 1.0:
            raise ValueError("backoff_multiplier must be >= 1 (not NaN)")

    def backoff(self, failures: int) -> float:
        """Delay before the attempt following the ``failures``-th failure."""
        return min(
            self.backoff_base_s * self.backoff_multiplier ** failures,
            self.backoff_cap_s,
        )


def shielded(op: Generator) -> Generator:
    """Run ``op``, converting its exceptions into a ``(ok, value)`` result.

    Keeps a failing child process from tripping the simulator's strict
    mode; :func:`with_timeout` re-raises on the waiting side instead.
    Interrupts pass through — the engine treats an interrupt-killed
    process as cancellation, not an error.
    """
    try:
        value = yield from op
    except Interrupt:
        raise
    except Exception as exc:
        return (False, exc)
    return (True, value)


def with_timeout(
    sim: Simulator,
    op: Generator,
    timeout_s: Optional[float],
    what: str = "",
    abort: Optional[Tuple[Event, Callable[[bool], BaseException]]] = None,
) -> Generator:
    """Process helper: run ``op`` as a child process under a deadline.

    On deadline the child is interrupted — its ``finally`` blocks
    release/cancel whatever it holds — and :class:`WaitTimeout` is
    raised here. If ``op`` itself raises, that exception re-raises here.
    A ``timeout_s`` of None (or +inf) is no deadline.

    ``abort=(event, make_exc)`` races ``event`` too. If it has already
    fired, ``op`` never starts and ``make_exc(False)`` is raised at
    once; if it fires first, the child is interrupted, the deadline
    cancelled and ``make_exc(True)`` raised. The racers are checked in
    the order op, abort, deadline, so an op that finishes at the abort's
    instant still wins. With no deadline and no abort, ``op`` runs
    inline with no race.
    """
    if abort is not None:
        event, make_exc = abort
        if event.triggered:
            op.close()
            raise make_exc(False)
    if timeout_s is None or math.isinf(timeout_s):
        if abort is None:
            return (yield from op)
        timeout_s = None
    elif not timeout_s >= 0:
        raise ValueError(f"negative or NaN timeout: {timeout_s}")
    proc = sim.spawn(shielded(op), name=f"deadline:{what or 'op'}")
    racers = [proc]
    deadline = None
    if timeout_s is not None:
        deadline = sim.timeout(timeout_s)
        racers.append(deadline)
    if abort is not None:
        racers.append(event)
    yield AnyOf(sim, racers)
    if deadline is not None:
        # A deadline that lost is cancelled, so the unfired timeout does
        # not drag final ``sim.now`` (and every utilization denominator)
        # out to a deadline nothing is waiting on anymore; one that
        # fired is left as it is.
        deadline.cancel()
    if proc.triggered:
        ok, value = proc.value
        if not ok:
            raise value
        return value
    if abort is not None and event.triggered:
        proc.interrupt(f"{what or 'operation'} aborted")
        raise make_exc(True)
    proc.interrupt(f"deadline {timeout_s} s exceeded")
    raise WaitTimeout(
        f"{what or 'operation'} exceeded its {timeout_s} s deadline"
    )


def retry(
    sim: Simulator,
    make_op: Callable[[], Generator],
    policy: RetryPolicy,
    timeout_s: Optional[float] = None,
    retryable: Tuple[type, ...] = DEFAULT_RETRYABLE,
    on_attempt_failed: Optional[
        Callable[[int, BaseException, bool], None]
    ] = None,
    what: str = "",
) -> Generator:
    """Process helper: deadline + bounded-backoff retry around ``make_op``.

    ``make_op`` is called once per attempt and must return a *fresh*
    operation generator. Returns ``(value, retries_used)`` on success.
    After each failed attempt, ``on_attempt_failed(attempt, exc,
    will_retry)`` is invoked (for stats/tracing). Exhaustion raises
    :class:`RetryExhausted`; non-retryable exceptions propagate as-is.
    """
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        if attempt:
            yield sim.timeout(policy.backoff(attempt - 1))
        try:
            value = yield from with_timeout(
                sim, make_op(), timeout_s, what=what
            )
        except retryable as exc:
            last = exc
            if on_attempt_failed is not None:
                on_attempt_failed(
                    attempt, exc, attempt + 1 < policy.max_attempts
                )
            continue
        return (value, attempt)
    raise RetryExhausted(
        f"{what or 'operation'} failed after {policy.max_attempts} "
        f"attempts: {last!r}",
        attempts=policy.max_attempts,
        last=last,
    )
