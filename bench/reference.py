"""A fixed pure-Python yardstick for the host's current speed.

The benchmark shares a 2-core host whose speed drifts by about ±10% over
minutes as other tenants come and go. This loop does the kind of work
the simulator does — generator processes driven off a heap, small
objects and dicts — but none of ``repro``, so no change to the code under
test can move it. Timing it right before each part and dividing gives a
host cost that the drift mostly cancels out of (``wall_per_ref``).

Never change this file in a change that claims a gain: every
``wall_per_ref`` ever recorded is in units of it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict, Generator, List


class _Event:
    __slots__ = ("time", "process", "attrs")

    def __init__(self, time_s: float, process: Generator, attrs: Dict):
        self.time = time_s
        self.process = process
        self.attrs = attrs


def _process(index: int, log: List[Dict]) -> Generator:
    total = 0.0
    for step in range(6):
        total += yield (step + 1) * 1e-4 * (index % 7 + 1)
    log.append({"id": index, "total": total, "name": f"p{index}"})


def run(processes: int = 6000) -> int:
    """Simulate ``processes`` six-step processes; returns how many ended."""
    heap: list = []
    log: List[Dict] = []
    seq = 0
    for index in range(processes):
        process = _process(index, log)
        delay = next(process)
        heapq.heappush(
            heap, (delay, seq, _Event(delay, process, {"i": index}))
        )
        seq += 1
    while heap:
        now, _, event = heapq.heappop(heap)
        try:
            delay = event.process.send(now)
        except StopIteration:
            continue
        heapq.heappush(heap, (
            now + delay, seq, _Event(now + delay, event.process,
                                     dict(event.attrs)),
        ))
        seq += 1
    return len(log)


def seconds() -> float:
    """Host seconds of one :func:`run` (about 0.07 s on a 2-core box)."""
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
