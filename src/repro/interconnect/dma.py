"""DMA engine model and point-to-point DMA setup costs.

Two pieces of software overhead matter to the paper's story:

* Every DMA the *CPU* orchestrates costs driver work (ioctl into the GEM
  driver, descriptor setup) plus an interrupt (or polled completion) on
  the way back. In the baseline this happens twice per hop
  (accelerator → host memory, host memory → next accelerator).
* With DMX, the CPU still fields the kernel-completion interrupt and
  configures the point-to-point DMA (Fig. 10 steps 2–4, 8–9), but the
  payload itself never crosses the host bridge.

:class:`DMAEngine` wraps a fabric transfer with those costs. Interrupt
delivery/coalescing lives in :mod:`repro.runtime.driver`; here we charge
only the fixed per-transfer software path lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..faults.injector import FaultInjector
from ..faults.recovery import RetryPolicy, retry
from ..sim import Simulator
from ..telemetry.spans import SpanNames
from .topology import Fabric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import SpanContext

__all__ = ["DMACosts", "DMAEngine", "ROUTE_NAMES"]

#: ``"src->dst"`` for each ``(src, dst)``: the span name of every transfer
#: on that route, and the actor of its retry notes.
ROUTE_NAMES = SpanNames("{0[0]}->{0[1]}")


@dataclass(frozen=True)
class DMACosts:
    """Fixed software costs around one DMA transfer (seconds).

    Defaults are representative Linux numbers: a few microseconds for the
    ioctl + descriptor writes, and an interrupt service path of ~2 us.
    ``setup_s`` covers the ioctl into the driver, the first descriptor
    write, and the doorbell ring; ``chained_descriptor_s`` is the
    marginal cost of appending one more descriptor to an already-open
    ring submission (no extra ioctl, no extra doorbell) — the
    amortization batched submissions buy (cf. the per-descriptor
    submission overheads measured for Intel DSA).
    """

    setup_s: float = 3e-6
    completion_interrupt_s: float = 2e-6
    chained_descriptor_s: float = 0.3e-6

    def __post_init__(self) -> None:
        for name in (
            "setup_s", "completion_interrupt_s", "chained_descriptor_s"
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")


class DMAEngine:
    """Moves data between fabric endpoints with driver overheads.

    Parameters
    ----------
    sim, fabric:
        Simulation context and the PCIe fabric to move data over.
    costs:
        Software overhead parameters.
    name:
        Label for tracing.
    injector:
        Optional :class:`~repro.faults.FaultInjector`; each attempt is
        guarded at the "dma" site (delay/hang/fail).
    timeout_s, retry_policy:
        When either is set, every transfer runs under a watchdog deadline
        with bounded-exponential-backoff re-attempts: a hung or failed
        DMA is interrupted (releasing its fabric links) and re-issued.
        Left at None, the transfer path is byte-identical to the
        fault-free engine.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        costs: Optional[DMACosts] = None,
        name: str = "dma",
        injector: Optional[FaultInjector] = None,
        timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs or DMACosts()
        self.name = name
        self.injector = injector
        self.timeout_s = timeout_s
        self.retry_policy = retry_policy
        self.transfers_completed = 0
        self.bytes_transferred = 0
        self.descriptors_submitted = 0

    @property
    def _recovering(self) -> bool:
        return (
            self.injector is not None
            or self.timeout_s is not None
            or self.retry_policy is not None
        )

    def _attempt(
        self,
        src: str,
        dst: str,
        nbytes: int,
        charge_setup: bool,
        charge_completion: bool,
        descriptors: int,
    ) -> Generator:
        """One DMA issue: driver setup, fabric crossing, completion IRQ.

        ``descriptors > 1`` models a chained submission: one ioctl +
        doorbell, with each extra descriptor appended at the (much
        cheaper) in-ring rate.
        """
        if charge_setup:
            yield self.sim.timeout(
                self.costs.setup_s
                + (descriptors - 1) * self.costs.chained_descriptor_s
            )
        op = self.fabric.transfer(src, dst, nbytes)
        if self.injector is not None:
            yield from self.injector.guard(
                "dma", op, actor=self.name, request_id=-1
            )
        else:
            yield from op
        if charge_completion:
            yield self.sim.timeout(self.costs.completion_interrupt_s)

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        ctx: "SpanContext",
        charge_setup: bool = True,
        charge_completion: bool = True,
        on_retry: Optional[Callable[[int, BaseException, bool], None]] = None,
        descriptors: int = 1,
    ) -> Generator:
        """Process: one DMA from ``src`` to ``dst``, under a "dma" span
        (covering every retry of this transfer) in ``ctx``.

        ``charge_setup`` / ``charge_completion`` let callers batch multiple
        back-to-back DMAs under a single driver invocation (used by the
        one-to-many collectives, where descriptors are chained).
        ``descriptors > 1`` is one descriptor-ring submission moving that
        many member payloads (``nbytes`` in total): one driver invocation
        (ioctl + doorbell, in ``setup_s``) plus ``chained_descriptor_s``
        per extra descriptor, one fabric crossing, one completion
        interrupt. A single transfer is the one-descriptor chain.
        ``on_retry`` (recovery mode only) observes each failed attempt;
        the chain retries *as a unit*, so no member payload is lost.
        Returns the elapsed time; raises
        :class:`~repro.faults.RetryExhausted` when recovery gives up.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        if descriptors < 1:
            raise ValueError(f"DMA needs descriptors >= 1: {descriptors}")
        route = ROUTE_NAMES[src, dst]
        if descriptors == 1:
            step = ctx.step(route, "dma", self.name, bytes=nbytes)
        else:
            step = ctx.step(
                route, "dma", self.name, bytes=nbytes,
                descriptors=descriptors,
            )
        with step:
            start = self.sim.now
            if not self._recovering:
                yield from self._attempt(
                    src, dst, nbytes, charge_setup, charge_completion,
                    descriptors,
                )
            else:
                yield from retry(
                    self.sim,
                    lambda: self._attempt(
                        src, dst, nbytes, charge_setup, charge_completion,
                        descriptors,
                    ),
                    self.retry_policy or RetryPolicy(),
                    timeout_s=self.timeout_s,
                    on_attempt_failed=on_retry,
                    what=f"{self.name}:{route}",
                )
            self.transfers_completed += 1
            self.bytes_transferred += nbytes
            self.descriptors_submitted += descriptors
        return self.sim.now - start

    def unloaded_latency(self, src: str, dst: str, nbytes: int) -> float:
        """Contention-free estimate including software costs."""
        return (
            self.costs.setup_s
            + self.fabric.unloaded_latency(src, dst, nbytes)
            + self.costs.completion_interrupt_s
        )
