"""Per-tenant token buckets for admission policing.

A :class:`TokenBucket` caps a tenant's *sustained* admission rate at
``rate_per_s`` while letting bursts of up to ``burst`` requests through
unthrottled — the standard policer shape. Refill is lazy (computed from
elapsed sim time on each query), so the bucket costs O(1) per arrival
and adds no DES events of its own.

The serving frontend consults the bucket at arrival time, *before* the
queue-capacity check: a policer protects co-tenants from a misbehaving
(bursty) tenant at the door, rather than letting the burst occupy queue
slots and dispatch windows first. The isolation test in
``tests/serve/test_isolation.py`` pins exactly that property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TokenBucketConfig", "TokenBucket"]


@dataclass(frozen=True)
class TokenBucketConfig:
    """Sustained rate + burst allowance for one tenant's policer.

    ``initial`` is the starting fill (defaults to a full bucket).
    """

    rate_per_s: float
    burst: float = 1.0
    initial: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.rate_per_s > 0:
            raise ValueError("rate_per_s must be positive (not NaN)")
        if not self.burst >= 1.0:
            raise ValueError("burst must be >= 1 (not NaN)")
        if self.initial is not None and not 0.0 <= self.initial <= self.burst:
            raise ValueError("initial must be in [0, burst]")


class TokenBucket:
    """Lazily refilled token bucket on the (monotone) sim clock."""

    def __init__(self, config: TokenBucketConfig, now: float = 0.0):
        self.config = config
        self._tokens = (
            config.burst if config.initial is None else config.initial
        )
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.config.burst,
                self._tokens + (now - self._last) * self.config.rate_per_s,
            )
            self._last = now

    def available(self, now: float) -> float:
        """Tokens on hand at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self._tokens

    def try_take(self, now: float, tokens: float = 1.0) -> bool:
        """Admit (and debit) if at least ``tokens`` are on hand."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False
