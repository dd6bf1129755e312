"""Regenerate the chain table: ``python -m repro.workloads.calibrate``.

The paper prices each kernel from a CPU measurement taken once and
scaled by a per-accelerator speedup (Sec. VI). Here the measurement is
each app's functional builder: it runs the real kernels and
restructuring ops (numpy) on a small sample and scales the profiles to
the paper's batch. Nothing in that changes between runs, so this module
runs every builder once and writes the chains it returns into
``calibrated.py`` as literals, and ``build_benchmark_chains`` reads only
that table. Rerun this command after changing a builder, a kernel's or
op's work profile, or the host cost model;
``tests/workloads/test_calibrated.py`` fails until the table matches a
fresh render.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from typing import Callable, Dict

from ..core.chain import AppChain
from . import ner_extension
from .registry import BENCHMARKS

__all__ = ["SOURCES", "TABLE_PATH", "main", "render"]

#: Table name -> functional builder: the five Table I apps in paper
#: order, then the Fig. 16 NER extension.
SOURCES: Dict[str, Callable[[int], AppChain]] = {
    **BENCHMARKS, "pii-ner": ner_extension.build_chain,
}

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "calibrated.py")

_HEADER = '''\
"""The six template chains, calibrated from the functional kernels.

Generated by ``python -m repro.workloads.calibrate`` from each app's
functional builder (instance 0); do not edit. A kernel stage row holds
its accelerator spec, a motion stage row its merged work profile; every
field is a keyword of the stage's dataclass.
"""

CHAINS = '''


def _builtin(value):
    """``value`` with every leaf a builtin ``int``, ``float`` or ``str``
    (numpy scalars converted, non-finite numbers refused)."""
    if isinstance(value, dict):
        return {key: _builtin(item) for key, item in value.items()}
    if type(value) in (int, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and math.isfinite(value):
        return float(value)
    raise TypeError(f"no literal for {value!r}")


def _literal(value, depth: int) -> str:
    """Python source for ``value``: strings double-quoted, numbers by
    ``repr`` (which round-trips every float exactly)."""
    pad = "    " * depth
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = [
            f"{pad}    {_literal(key, 0)}: {_literal(item, depth + 1)},\n"
            for key, item in value.items()
        ]
        return "{\n" + "".join(items) + pad + "}"
    if isinstance(value, tuple):
        items = [f"{pad}    {_literal(item, depth + 1)},\n" for item in value]
        return "(\n" + "".join(items) + pad + ")"
    return repr(value)


def render() -> str:
    """The text of ``calibrated.py``, from a fresh run of every builder."""
    table = {}
    for name, build in SOURCES.items():
        chain = build(0)
        table[name] = {
            "name": chain.name,
            "stages": tuple(_builtin(dataclasses.asdict(stage))
                            for stage in chain.stages),
        }
    return _HEADER + _literal(table, 0) + "\n"


def main() -> None:
    text = render()
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {len(SOURCES)} chains to {TABLE_PATH}")


if __name__ == "__main__":
    main()
