"""Driver model: interrupts, coalescing, and the NAPI-style polling switch.

Sec. V: "By default, we operate accelerators and DRXs in interrupt mode
for sending notifications to the CPU. The interrupt handling of the
drivers utilizes interrupt coalescing for the bursty arrival of
interrupts. If the arrival rate of interrupts exceeds a certain
threshold, the drivers switch to polling. This design is similar to
Linux NAPI."

:class:`NotificationModel` tracks a recent-arrival-rate estimate per
device and prices each completion notification accordingly:

* interrupt mode — full ISR cost on a CPU core, minus coalescing
  savings when several completions land inside one coalescing window;
* polling mode — a cheaper amortized per-completion cost (no context
  switch), entered when the rate crosses ``polling_threshold_hz`` and
  left when it falls below half of it (hysteresis).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Deque, Dict, Generator, Optional

from ..cpu import HostCPU
from ..faults.injector import FaultInjector
from ..faults.recovery import RetryPolicy, retry
from ..sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import SpanContext

__all__ = ["NotificationCosts", "NotificationModel", "DriverStats"]

#: Watchdog on one armed delivery.
NOTIFY_TIMEOUT_S = 200e-6
#: Bounded backoff that re-delivers a lost or hung notification.
NOTIFY_RETRY = RetryPolicy()


@dataclass(frozen=True)
class NotificationCosts:
    """Software path lengths for completion notifications (seconds)."""

    interrupt_s: float = 2.0e-6  # ISR + context switch + driver bottom half
    coalesced_s: float = 0.4e-6  # extra completion inside one ISR window
    poll_s: float = 0.5e-6  # amortized polled-completion handling
    coalesce_window_s: float = 20e-6
    polling_threshold_hz: float = 50_000.0

    def __post_init__(self) -> None:
        for name in ("interrupt_s", "coalesced_s", "poll_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")
        for name in ("coalesce_window_s", "polling_threshold_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")


@dataclass
class DriverStats:
    """Counters for reporting."""

    interrupts: int = 0
    coalesced: int = 0
    polled: int = 0

    @property
    def total(self) -> int:
        return self.interrupts + self.coalesced + self.polled


class NotificationModel:
    """Prices device-completion notifications on the host CPU."""

    _RATE_WINDOW = 32  # arrivals kept for rate estimation

    def __init__(
        self,
        sim: Simulator,
        cpu: HostCPU,
        costs: NotificationCosts = NotificationCosts(),
        injector: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.stats = DriverStats()
        # Recovery plane: with an injector, each delivery runs under a
        # watchdog — a lost/hung notification is re-delivered with
        # bounded backoff, like a driver re-polling a completion ring
        # whose interrupt never arrived.
        self.injector = injector
        self._arrivals: Dict[str, Deque[float]] = {}
        self._polling: Dict[str, bool] = {}
        self._last_isr: Dict[str, float] = {}

    def _arrival_rate(self, device: str) -> float:
        history = self._arrivals.get(device)
        if not history or len(history) < 2:
            return 0.0
        span = history[-1] - history[0]
        if span <= 0:
            return float("inf")
        return (len(history) - 1) / span

    def is_polling(self, device: str) -> bool:
        return self._polling.get(device, False)

    _MIN_HISTORY = 8  # sustained arrivals required before mode switches

    def _update_mode(self, device: str) -> None:
        history = self._arrivals.get(device, ())
        if len(history) < self._MIN_HISTORY:
            return  # NAPI-style: only a *sustained* rate flips the mode
        rate = self._arrival_rate(device)
        threshold = self.costs.polling_threshold_hz
        if self._polling.get(device, False):
            if rate < threshold / 2:  # hysteresis
                self._polling[device] = False
        elif rate > threshold:
            self._polling[device] = True

    def _deliver(self, device: str, cost: float) -> Generator:
        """One armed delivery attempt: charge the handler cost on the
        host under the "notify" site's fault policy."""
        return self.injector.guard(
            "notify", self.cpu.charge(cost), actor=device
        )

    def notify(
        self,
        device: str,
        ctx: "SpanContext",
        on_retry: Optional[Callable[[int, BaseException, bool], None]] = None,
        count: int = 1,
    ) -> Generator:
        """Process: deliver one completion notification to the host.

        ``count > 1`` is ONE coalesced completion for a batched
        submission: a single interrupt fires when the whole descriptor
        chain completes, and the remaining ``count - 1`` member
        completions are reaped inside that same ISR at the (much cheaper)
        coalesced rate — the driver walks the completion ring once. In
        polling mode every member still pays the amortized poll cost.

        Returns the CPU cost charged per delivery. With an injector, a
        lost or hung delivery is retried (whole) under the watchdog
        (``on_retry`` observes each failed attempt);
        exhaustion raises :class:`~repro.faults.RetryExhausted`. The
        delivery runs under a "notify" span in ``ctx`` recording the
        delivery mode and billed cost.
        """
        if count < 1:
            raise ValueError(f"notification needs count >= 1: {count}")
        now = self.sim.now
        history = self._arrivals.get(device)
        if history is None:
            history = self._arrivals[device] = deque(maxlen=self._RATE_WINDOW)
        if count == 1:
            history.append(now)
        else:
            # The rate estimator sees every member completion land at
            # once — exactly what the completion ring records.
            history.extend(repeat(now, min(count, self._RATE_WINDOW)))
        self._update_mode(device)

        if self._polling.get(device, False):
            cost = count * self.costs.poll_s
            mode = "poll"
            self.stats.polled += count
        else:
            last = self._last_isr.get(device)
            if last is not None and now - last < self.costs.coalesce_window_s:
                base = self.costs.coalesced_s
                mode = "coalesced"
                self.stats.coalesced += count
            else:
                base = self.costs.interrupt_s
                mode = "interrupt"
                self.stats.interrupts += 1
                self.stats.coalesced += count - 1
            cost = base + (count - 1) * self.costs.coalesced_s
            self._last_isr[device] = now
        if count == 1:
            step = ctx.step("notify", "notify", device, mode=mode, cost_s=cost)
        else:
            step = ctx.step(
                "notify", "notify", device, mode=mode, cost_s=cost,
                batch=count,
            )
        with step:
            yield from self._notify_timed(device, cost, on_retry)
        return cost

    def _notify_timed(
        self,
        device: str,
        cost: float,
        on_retry: Optional[Callable[[int, BaseException, bool], None]],
    ) -> Generator:
        # ISRs preempt whatever the cores are doing, so the notification
        # costs wall time and CPU energy but does not queue behind bulk
        # restructuring chunks.
        if self.injector is None:
            return self.cpu.charge(cost)
        return retry(
            self.sim,
            lambda: self._deliver(device, cost),
            NOTIFY_RETRY,
            timeout_s=NOTIFY_TIMEOUT_S,
            on_attempt_failed=on_retry,
            what=f"notify:{device}",
        )
