"""Batch formation for coalesced dispatch (RPCAcc-style).

The frontend dispatches each admitted request individually, so every
motion stage pays the full control path — descriptor-ring submission,
doorbell, completion interrupt — per request. A :class:`BatchFormer`
accumulates same-tenant admitted requests (same chain, hence same chain
legs) into a forming batch that seals on whichever comes first:

* **size-out** — the batch reaches its member cap, or
* **time-out** — the formation window expires on the sim clock.

Sealed batches execute as one coalesced submission via
:meth:`~repro.core.system.DMXSystem.submit_batch`: one chained DMA
descriptor submission + doorbell, one amortized DRX program load, and
one coalesced completion ISR cover every member, while kernels and
payload restructuring still run per member. The price is formation
delay — each member waits up to ``window_s`` for the batch to fill —
which is exactly the batch-formation-delay-vs-tail-latency trade the
knee benchmark (``benchmarks/test_batching_knee.py``) measures.

Formation is deterministic: it is driven entirely by the DES clock and
the arrival order of admitted requests, with no stochastic state of its
own, so seeded serving runs with batching enabled replay byte-for-byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from ..sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .frontend import _Admitted

__all__ = ["BatchingConfig", "FormingBatch", "BatchFormer"]


@dataclass(frozen=True)
class BatchingConfig:
    """Batch-formation knobs for one serving run.

    ``max_batch`` is the size-out threshold (members per coalesced
    submission); ``window_s`` is the time-out — the longest any member
    waits for its batch to fill, and therefore the bound on the latency
    batching may add to a request. ``window_s=0`` still coalesces
    requests dispatched at the same sim instant (the timer fires after
    the current instant's events drain) but adds no wall-clock delay.

    Under the brownout ``COALESCE`` tier the window stretches by
    ``coalesce_window_factor`` and the cap is replaced by
    ``coalesce_max_batch`` (when set) — trading more formation delay for
    fewer control-path invocations exactly when the system is drowning
    in them. Both escalations read the tier at the moment a batch is
    *opened*, so an in-flight batch's terms never change under it.

    ``size_aware=True`` shrinks the window of a batch *at open time* to
    the time the tenant's recent admission rate says it actually needs:
    a window long enough for the members that can plausibly arrive, and
    zero when the rate estimate says no other request will show up
    inside ``window_s`` at all. Low-rate tenants stop paying the full
    window as pure added latency on every singleton batch, while
    high-rate tenants (whose batches size-out anyway) are untouched.
    The estimate is the last ``rate_window`` admission timestamps of the
    tenant — deterministic DES state, so seeded replays still match.
    """

    max_batch: int = 8
    window_s: float = 2e-3
    coalesce_window_factor: float = 4.0
    coalesce_max_batch: Optional[int] = None
    size_aware: bool = False
    rate_window: int = 8

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not self.window_s >= 0:
            raise ValueError("window_s must be non-negative (not NaN)")
        if not self.coalesce_window_factor >= 1:
            raise ValueError("coalesce_window_factor must be >= 1 (not NaN)")
        if self.coalesce_max_batch is not None and self.coalesce_max_batch < 1:
            raise ValueError("coalesce_max_batch must be >= 1")
        if self.rate_window < 2:
            raise ValueError(
                "rate_window must be >= 2 (a rate needs two samples)"
            )


class FormingBatch:
    """One per-tenant batch being accumulated (then sealed)."""

    __slots__ = ("tenant", "seq", "created", "members", "max_batch",
                 "window_s", "sealed", "sealed_by")

    def __init__(
        self, tenant: str, seq: int, created: float,
        max_batch: int, window_s: float,
    ):
        self.tenant = tenant
        self.seq = seq
        self.created = created
        self.members: List["_Admitted"] = []
        self.max_batch = max_batch
        self.window_s = window_s
        self.sealed = False
        self.sealed_by = ""  # "size" | "window"

    def __len__(self) -> int:
        return len(self.members)


class BatchFormer:
    """Per-tenant accumulation of admitted requests into sealed batches.

    The dispatcher hands items in via :meth:`add`; a sealed batch is
    delivered to the ``launch`` callback (synchronously on size-out,
    from a timer process on window expiry). The caller owns concurrency
    accounting: a forming batch should hold one dispatch slot from the
    moment it opens (`is_forming` tells the caller whether ``add`` will
    open one) until its launched execution completes — otherwise
    formation would drain admission queues without backpressure and
    destroy the dispatch discipline's semantics.
    """

    def __init__(
        self,
        sim: Simulator,
        launch: Callable[[FormingBatch], None],
    ):
        self.sim = sim
        self._launch = launch
        self._forming: Dict[str, FormingBatch] = {}
        self._seq = itertools.count()
        self.batches_sealed = 0
        self.sealed_by_size = 0
        self.sealed_by_window = 0

    def is_forming(self, tenant: str) -> bool:
        """True when ``add(item)`` for this tenant joins an open batch
        (False means it will open a new one — and a new dispatch slot)."""
        return tenant in self._forming

    def forming_count(self) -> int:
        return len(self._forming)

    def open_batch(self, tenant: str) -> Optional[FormingBatch]:
        """The tenant's forming batch, if one is open."""
        return self._forming.get(tenant)

    def add(
        self, item: "_Admitted", max_batch: int, window_s: float
    ) -> FormingBatch:
        """Add one admitted request to its tenant's forming batch.

        ``max_batch``/``window_s`` are the formation terms *for a batch
        opened by this call* (the frontend resolves brownout escalation
        at open time); an already-forming batch keeps its own terms.
        Returns the batch the item joined; the batch may seal (and
        launch) during this call when the item fills it.
        """
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        tenant = item.spec.name
        batch = self._forming.get(tenant)
        if batch is None:
            batch = FormingBatch(
                tenant, next(self._seq), self.sim.now, max_batch, window_s
            )
            self._forming[tenant] = batch
            batch.members.append(item)
            if len(batch) >= batch.max_batch:
                self._seal(batch, "size")
            else:
                self.sim.spawn(
                    self._window_timer(batch),
                    name=f"batch-window:{tenant}#{batch.seq}",
                )
            return batch
        batch.members.append(item)
        if len(batch) >= batch.max_batch:
            self._seal(batch, "size")
        return batch

    def _window_timer(self, batch: FormingBatch) -> Generator:
        yield self.sim.timeout(batch.window_s)
        if not batch.sealed:
            self._seal(batch, "window")

    def _seal(self, batch: FormingBatch, cause: str) -> None:
        batch.sealed = True
        batch.sealed_by = cause
        if self._forming.get(batch.tenant) is batch:
            del self._forming[batch.tenant]
        self.batches_sealed += 1
        if cause == "size":
            self.sealed_by_size += 1
        else:
            self.sealed_by_window += 1
        self._launch(batch)
