"""Host CPU as a DES device.

The host plays three roles in the modeled system:

* **control plane** — fielding interrupts and configuring DMAs (short
  inline work that queues behind no core, :meth:`HostCPU.charge`);
* **data restructuring** (baseline / Integrated-DRX-less configs) — the
  MKL-style parallel restructuring the paper profiles: a job fans out
  over up to ``max_threads`` cores and contends with every other
  concurrent application for the core pool;
* **application kernels** (All-CPU config) — running the domain kernels
  themselves.

Single-core time for a :class:`~repro.profiles.WorkProfile` comes from the
top-down cycle model, so Fig. 5's characterization and the end-to-end
latency numbers are produced by one consistent model.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..profiles import WorkProfile
from ..sim import AllOf, Resource, Simulator
from .specs import CPUSpec, XEON_8260L
from .topdown import TopDownModel

__all__ = ["HostCPU"]


class HostCPU:
    """DES model of the host processor.

    Parameters
    ----------
    sim:
        Owning simulator.
    spec:
        Static CPU description (defaults to the testbed Xeon).
    max_threads:
        Cap on per-job restructuring parallelism. The paper observes MKL
        spawning 130–140 ephemeral threads over 16 cores; per job the
        useful parallelism is bounded by the core count.
    parallel_overhead:
        Per-extra-thread efficiency loss (synchronization, bandwidth
        sharing): ``chunk_time = serial/p * (1 + overhead*(p-1))``.
    spawn_overhead_s:
        Fixed cost of fanning a restructuring job out to worker threads.
        The paper observes MKL spawning 130–140 *ephemeral* threads per
        restructuring run — that churn is a real, fixed tax per job.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: CPUSpec = XEON_8260L,
        max_threads: Optional[int] = None,
        parallel_overhead: float = 0.05,
        spawn_overhead_s: float = 5e-5,
    ):
        for name, value in (("parallel_overhead", parallel_overhead),
                            ("spawn_overhead_s", spawn_overhead_s)):
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")
        self.sim = sim
        self.spec = spec
        self.cores = Resource(sim, capacity=spec.cores, name="cpu-cores")
        self.topdown = TopDownModel(spec)
        self.max_threads = max_threads or spec.cores
        self.parallel_overhead = parallel_overhead
        self.spawn_overhead_s = spawn_overhead_s
        self.restructure_jobs = 0
        self.busy_seconds = 0.0
        #: serial_time memo: a pure function of the profile and the spec
        #: fixed above, asked on every CPU restructure and every CPU bid.
        self._serial: Dict[WorkProfile, float] = {}

    # -- cost model ------------------------------------------------------------

    def serial_time(self, profile: WorkProfile) -> float:
        """Single-core execution time for ``profile``.

        The top-down cycle model prices the pipeline behaviour; a
        sustained-bandwidth floor prices the streaming traffic (a core
        cannot stream faster than its achievable memory bandwidth, and
        gathers derate that bandwidth sharply). Computed once per
        distinct profile and kept.
        """
        seconds = self._serial.get(profile)
        if seconds is None:
            cycle_time = self.topdown.runtime_seconds(profile)
            effective_bw = self.spec.core_stream_bandwidth * (
                1.0 - 0.8 * profile.gather_fraction
            )
            bandwidth_floor = profile.total_bytes / effective_bw
            seconds = self._serial[profile] = max(cycle_time, bandwidth_floor)
        return seconds

    def parallel_time(self, profile: WorkProfile, threads: int) -> float:
        """Contention-free job time using ``threads`` cores.

        Includes the per-job thread-spawn tax and a socket-bandwidth floor
        (all threads share the memory controllers).
        """
        threads = max(1, min(threads, self.max_threads))
        serial = self.serial_time(profile)
        scaled = serial / threads * (1.0 + self.parallel_overhead * (threads - 1))
        socket_floor = profile.total_bytes / self.spec.socket_stream_bandwidth
        spawn = self.spawn_overhead_s if threads > 1 else 0.0
        return max(scaled, socket_floor) + spawn

    # -- DES processes -----------------------------------------------------------

    def _chunk(self, duration: float) -> Generator:
        request = self.cores.request()
        yield request
        try:
            yield self.sim.timeout(duration)
            self.busy_seconds += duration
        finally:
            self.cores.release(request)

    def restructure(
        self, profile: WorkProfile, threads: Optional[int] = None
    ) -> Generator:
        """Process: run one restructuring job on the core pool.

        The job is split into ``threads`` chunks that each occupy one core;
        under load the chunks queue behind other jobs' chunks, which is how
        cross-application contention for restructuring capacity emerges.
        Returns elapsed wall time.
        """
        threads = max(1, min(threads or self.max_threads, self.max_threads))
        start = self.sim.now
        chunk_time = self.parallel_time(profile, threads) if threads > 1 else (
            self.serial_time(profile)
        )
        if threads > 1:
            procs = [
                self.sim.spawn(self._chunk(chunk_time))
                for _ in range(threads)
            ]
            yield AllOf(self.sim, procs)
        else:
            yield from self._chunk(chunk_time)
        self.restructure_jobs += 1
        return self.sim.now - start

    def run_kernel(self, duration: float, threads: int = 1) -> Generator:
        """Process: occupy ``threads`` cores for ``duration`` (All-CPU mode)."""
        if duration < 0:
            raise ValueError(f"negative kernel duration: {duration}")
        start = self.sim.now
        procs = [
            self.sim.spawn(self._chunk(duration))
            for _ in range(max(1, threads))
        ]
        yield AllOf(self.sim, procs)
        return self.sim.now - start

    def charge(self, cost: float) -> Generator:
        """Process: ``cost`` seconds of inline host work (an ISR, a
        descriptor write, a completion poll, a driver copy). It takes
        wall time and bills the cores' busy time, but queues behind no
        core: like an ISR, the issuing core runs it inline."""
        yield self.sim.timeout(cost)
        self.busy_seconds += cost

    def utilization(self) -> float:
        """Average busy fraction of the core pool so far."""
        if self.sim.now <= 0:
            return 0.0
        return self.cores.busy_time() / (self.sim.now * self.spec.cores)
