"""The committed chain table is what the functional builders produce.

``build_benchmark_chains`` reads only ``workloads/calibrated.py``, so a
builder, kernel profile or cost-model change reaches a run only through
``python -m repro.workloads.calibrate``. These tests are that table's
oracle: they fail, naming the command, until it is rerun.
"""

import pytest

from repro.workloads import build_benchmark_chains
from repro.workloads.calibrate import SOURCES, TABLE_PATH, render
from repro.workloads.calibrated import CHAINS

STALE = "calibrated.py is stale: run python -m repro.workloads.calibrate"


def test_committed_table_is_a_fresh_render():
    with open(TABLE_PATH, encoding="utf-8") as handle:
        committed = handle.read()
    assert committed == render(), STALE


@pytest.mark.parametrize("name", list(SOURCES))
def test_table_chain_equals_its_functional_build(name):
    table = build_benchmark_chains(name, 1)[0]
    assert table == SOURCES[name](0), f"{name}: {STALE}"


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_every_leaf_is_a_builtin_literal():
    leaves = list(_leaves(CHAINS))
    assert len(leaves) > 100
    assert {type(leaf) for leaf in leaves} <= {int, float, str, type(None)}

