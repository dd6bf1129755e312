"""Split a cProfile run's host time by ``repro.<package>``.

A frame in a ``repro`` module is charged to its package (top-level
modules such as ``repro/profiles.py`` go to ``other``). A frame outside
``repro`` — builtins, ``json``, ``dataclasses``, ``heapq`` — is charged
up the pstats caller graph to its nearest ``repro`` callers, split in
proportion to each caller edge's cumulative time; what reaches no
``repro`` frame is ``external``. Every second of profiled self time is
charged exactly once, so the layers sum to the profile's total.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "sim", "interconnect", "drx", "core", "backends", "serve", "telemetry",
    "resilience", "control", "faults", "cpu", "runtime", "other",
    "external",
)
_PACKAGES = frozenset(LAYERS[:-2])

#: Ledger name -> import path of a plain (non-generator) function.
#: ``Topology.path`` is the routing walk of ``repro.interconnect.topology``,
#: whose class is ``Fabric``.
FUNCTIONS = {
    "Topology.path": "repro.interconnect.topology:Fabric.path",
    "TierCostModel.bids": "repro.control.cost:TierCostModel.bids",
    "ClosedLoopController.update":
        "repro.control.controller:ClosedLoopController.update",
    "BrownoutController.update":
        "repro.resilience.brownout:BrownoutController.update",
    "ControlPlane.record": "repro.resilience.control:ControlPlane.record",
    "LegPlanner.plan": "repro.backends.planner:LegPlanner.plan",
    "P2Quantile.add": "repro.serve.slo:P2Quantile.add",
    "LatencyTracker.add": "repro.serve.slo:LatencyTracker.add",
    "SpanTracker.begin": "repro.telemetry.spans:SpanTracker.begin",
    "SpanTracker.end": "repro.telemetry.spans:SpanTracker.end",
    "observe_run": "repro.telemetry.alerts:observe_run",
    "write_artifact": "repro.telemetry.artifact:write_artifact",
    "verify_artifact": "repro.resilience.invariants:verify_artifact",
    "Simulator.run": "repro.sim.engine:Simulator.run",
}

#: pstats key: (filename, first line, function name).
Key = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """Layer of a code file, or None when it is not under ``package_dir``
    (the directory of the ``repro`` package)."""
    prefix = os.path.join(os.path.abspath(package_dir), "")
    path = os.path.abspath(filename)
    if not path.startswith(prefix):
        return None
    head = path[len(prefix):].split(os.sep, 1)
    if len(head) == 2 and head[0] in _PACKAGES:
        return head[0]
    return "other"


def layer_self_times(stats: Dict, package_dir: str) -> Dict[str, float]:
    """Self seconds per layer from pstats ``stats``
    (``{key: (cc, nc, tt, ct, callers)}``)."""
    own = {key: layer_of(key[0], package_dir) for key in stats}
    memo: Dict[Key, Dict[str, float]] = {}

    def shares(key: Key, visiting: frozenset) -> Dict[str, float]:
        """Fractions (summing to 1) of ``key``'s time per layer."""
        if own[key] is not None:
            return {own[key]: 1.0}
        if key in memo:
            return memo[key]
        callers = {
            caller: edge for caller, edge in stats[key][4].items()
            if caller in stats and caller not in visiting
        }
        weights = {caller: edge[3] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result["external"] = 1.0
        else:
            inner = visiting | {key}
            for caller in sorted(weights):
                if weights[caller] <= 0:
                    continue
                part = weights[caller] / total
                for layer, frac in shares(caller, inner).items():
                    result[layer] = result.get(layer, 0.0) + part * frac
        memo[key] = result
        return result

    out = {layer: 0.0 for layer in LAYERS}
    for key in sorted(stats):
        self_s = stats[key][2]
        if self_s <= 0:
            continue
        for layer, frac in shares(key, frozenset()).items():
            out[layer] += self_s * frac
    return out


def _code_key(spec: str) -> Optional[Key]:
    module, _, attr = spec.partition(":")
    try:
        obj = importlib.import_module(module)
        for name in attr.split("."):
            obj = getattr(obj, name)
    except (ImportError, AttributeError):
        return None
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def function_stats(stats: Dict) -> Tuple[Dict[str, float], List[str]]:
    """``fn.<F>.calls`` / ``fn.<F>.cum_s`` for every ledger function, and
    the names that no longer resolve (reported as zero)."""
    out: Dict[str, float] = {}
    missing: List[str] = []
    for name, spec in FUNCTIONS.items():
        key = _code_key(spec)
        if key is None:
            missing.append(name)
        entry = stats.get(key) if key is not None else None
        out[f"fn.{name}.calls"] = float(entry[1]) if entry else 0.0
        out[f"fn.{name}.cum_s"] = float(entry[3]) if entry else 0.0
    return out, missing


def ledger(
    stats: Dict, package_dir: str
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer self time and share plus the function table."""
    self_s = layer_self_times(stats, package_dir)
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_s[layer]
        out[f"layer.{layer}.share"] = self_s[layer] / total if total else 0.0
    functions, missing = function_stats(stats)
    out.update(functions)
    return out, missing


def total_self_time(stats: Dict) -> float:
    return sum(entry[2] for entry in stats.values())


def metric_names() -> Iterable[str]:
    """Every name :func:`ledger` reports, in order."""
    for layer in LAYERS:
        yield f"layer.{layer}.self_s"
        yield f"layer.{layer}.share"
    for name in FUNCTIONS:
        yield f"fn.{name}.calls"
        yield f"fn.{name}.cum_s"
