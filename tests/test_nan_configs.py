"""NaN is rejected by every serve, control and planner config check.

A check written as ``x <= 0`` or ``x < 0`` lets NaN through, because
every comparison with NaN is false. The configs below once accepted
NaN and silently corrupted results: ``FrontendConfig(slo_s=nan)``
counted no SLO violations and kept the brownout ladder at NORMAL,
``BrownoutConfig(min_dwell_s=nan)`` froze the ladder after its first
step, ``PlannerConfig(queue_weight=nan)`` priced every bid at NaN (so
the ranking fell back to declaration order), and
``TenantSpec(deadline_s=nan)`` broke EDF ordering. Negative values of
the three controller cost weights were accepted too.
"""

import math

import pytest

from repro.backends import PlannerConfig
from repro.control import ControllerConfig
from repro.resilience.brownout import BrownoutConfig, BrownoutController
from repro.serve import (
    BatchingConfig,
    FrontendConfig,
    PoissonArrivals,
    TenantSpec,
)

NAN = math.nan


def _tenant(**kw):
    return TenantSpec(
        name="t", arrivals=PoissonArrivals(100.0), n_requests=1, **kw
    )


#: (constructor, field): each call must reject ``field=value``.
CHECKS = [
    (FrontendConfig, "slo_s"),
    (FrontendConfig, "sample_period_s"),
    (_tenant, "deadline_s"),
    (BatchingConfig, "window_s"),
    (BatchingConfig, "coalesce_window_factor"),
    (BrownoutConfig, "min_dwell_s"),
    (BrownoutConfig, "update_period_s"),
    (ControllerConfig, "update_period_s"),
    (ControllerConfig, "weight_dwell_s"),
    (ControllerConfig, "scale_dwell_s"),
    (ControllerConfig, "placement_dwell_s"),
    (ControllerConfig, "coalesce_cost_s"),
    (ControllerConfig, "shed_cost_weight"),
    (ControllerConfig, "coalesce_relief_fraction"),
    (ControllerConfig, "energy_cost_s_per_j"),
    (PlannerConfig, "queue_weight"),
]


def _id(check):
    make, name = check
    return f"{getattr(make, '__name__', 'make').lstrip('_')}.{name}"


@pytest.mark.parametrize("check", CHECKS, ids=[_id(c) for c in CHECKS])
def test_nan_is_rejected(check):
    make, name = check
    with pytest.raises(ValueError, match=rf"{name}.*NaN"):
        make(**{name: NAN})


@pytest.mark.parametrize("name", [
    "shed_cost_weight", "coalesce_relief_fraction", "energy_cost_s_per_j",
])
def test_negative_controller_cost_fields_are_rejected(name):
    with pytest.raises(ValueError, match=name):
        ControllerConfig(**{name: -1.0})


def test_brownout_controller_rejects_nan_slo():
    with pytest.raises(ValueError, match="slo_s.*NaN"):
        BrownoutController(NAN)


@pytest.mark.parametrize("check", CHECKS, ids=[_id(c) for c in CHECKS])
def test_finite_defaults_still_accepted(check):
    make, name = check
    value = {"slo_s": 1e-3, "deadline_s": 1e-3}.get(name)
    make(**({name: value} if value is not None else {}))
