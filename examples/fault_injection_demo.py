#!/usr/bin/env python
"""Fault injection: recovery and graceful degradation under a hostile fabric.

Runs the Sound Detection benchmark on a Standalone-DRX system while a
seeded :class:`~repro.faults.FaultInjector` fails 10% of DMA transfers
and hangs 5% of DRX restructure calls. The runtime's watchdogs retry
failed DMAs with bounded exponential backoff, and any motion stage whose
DRX leg blows its deadline budget degrades to CPU restructuring (the
Multi-Axl path) — so every request still completes.

Prints per-app retries/fallbacks/failures, the injected-fault trace
summary, and the latency price of running degraded.

Usage::

    python examples/fault_injection_demo.py [seed]
"""

import sys
from collections import Counter

from repro.core import DMXSystem, Mode, SystemConfig
from repro.faults import FaultPlan, FaultPolicy
from repro.workloads import build_benchmark_chains


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    n_apps, requests = 3, 5
    plan = FaultPlan(
        seed=seed,
        dma=FaultPolicy(fail_p=0.10),  # 10% of DMA transfers error out
        drx=FaultPolicy(hang_p=0.05),  # 5% of DRX restructures wedge
        drx_deadline_s=30e-3,  # budget before degrading to the CPU
    )
    print(f"Sound Detection x {n_apps} apps, Standalone DRX, seed {seed}")
    print("faults: 10% DMA fail, 5% DRX hang, 30 ms DRX deadline")
    print("=" * 60)

    runs = {}
    for label, faults in (("healthy", None), ("faulted", plan)):
        system = DMXSystem(
            build_benchmark_chains("sound-detection", n_apps),
            SystemConfig(mode=Mode.STANDALONE),
            faults=faults,
        )
        runs[label] = (system, system.run_latency(requests_per_app=requests))

    system, run = runs["faulted"]
    print(f"\nper-app recovery ({requests} requests each):")
    for app in run.apps():
        print(f"  {app}: retries={run.total_retries(app)}"
              f"  fallbacks={run.fallback_count(app)}"
              f"  failures={run.failure_count(app)}")

    print("\ninjected-fault trace:")
    notes = Counter(
        i.name for i in system.telemetry.instants if i.category == "fault"
    )
    for kind, count in sorted(notes.items()):
        print(f"  {kind:16s} x{count}")

    healthy = runs["healthy"][1].mean_latency()
    faulted = run.mean_latency()
    print("\n" + "=" * 60)
    summary = run.recovery_summary()
    print(f"requests completed:   {summary['requests']}/{n_apps * requests}"
          f"  (failures: {summary['failures']})")
    print(f"mean latency healthy: {healthy * 1e3:8.2f} ms")
    print(f"mean latency faulted: {faulted * 1e3:8.2f} ms"
          f"  ({faulted / healthy:.2f}x — the price of riding through faults)")


if __name__ == "__main__":
    main()
