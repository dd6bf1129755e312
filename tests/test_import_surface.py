"""What importing ``repro`` loads, and what each package exports.

Every package ``__init__`` serves one export map through
:func:`repro._lazy.lazy_exports`: a public name's submodule is imported
the first time the name is read. So the timing core (DESIGN.md §5)
starts without numpy and without the functional layer (the kernels, the
restructuring ops, the DRX ISA, assembler, functional simulator and
compiler, the six app modules) or the offline telemetry tools (report,
diff, dashboard, export). A benchmark chain comes from the calibrated
table, so building all six and running one loads none of that either.
These tests pin that, and that every exported name still resolves to
the object its defining submodule holds.
"""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: A fresh interpreter imports the timing core and reads every name it
#: exports (the workloads registry, not the app modules), then prints
#: what it loaded.
TIMING_CORE = """
import json, sys
from repro.core import *
from repro.serve import *
from repro.backends.planner import *
from repro.control import *
from repro.faults import *
from repro.resilience.recovery import *
from repro.telemetry.alerts import *
from repro.workloads import BENCHMARKS, benchmark_names, build_benchmark_chains
print(json.dumps(sorted(sys.modules)))
"""

#: A fresh interpreter builds all six template chains from the
#: calibrated table and runs a sound-detection latency run, then prints
#: what it loaded and the type names of the clock and of every span's
#: start and end.
TABLE_RUN = """
import json, sys
from repro.core import DMXSystem, Mode, SystemConfig
from repro.workloads import benchmark_names, build_benchmark_chains
for name in benchmark_names() + ["pii-ner"]:
    build_benchmark_chains(name, 1)
system = DMXSystem(build_benchmark_chains("sound-detection", 2),
                   SystemConfig(mode=Mode.BUMP_IN_WIRE))
system.run_latency(2)
spans = system.telemetry.spans
print(json.dumps({
    "modules": sorted(sys.modules),
    "now": type(system.sim.now).__name__,
    "spans": len(spans),
    "times": sorted({type(t).__name__
                     for span in spans for t in (span.start, span.end)}),
}))
"""

#: Modules the timing core must not load.
FUNCTIONAL_LAYER = re.compile(r"""
    numpy(\..+)?
  | repro\.accelerators\.(?!base$).+
  | repro\.restructuring(\..+)?
  | repro\.drx\.(isa|assembler|functional|compiler)(\..+)?
  | repro\.telemetry\.(report|diff|dashboard|export)
  | repro\.workloads\.(brain_stimulation|hash_join|ner_extension
                      |pii_redaction|sound_detection|video_surveillance)
""", re.VERBOSE)

_WALK = list(pkgutil.walk_packages(repro.__path__, "repro."))
MODULES = ["repro"] + [info.name for info in _WALK]
PACKAGES = ["repro"] + [info.name for info in _WALK if info.ispkg]


def test_timing_core_loads_neither_numpy_nor_the_functional_layer():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", TIMING_CORE],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    loaded = json.loads(out)
    assert "repro.core.system" in loaded and "repro.serve.sweep" in loaded
    assert [m for m in loaded if FUNCTIONAL_LAYER.fullmatch(m)] == []


def test_a_table_chain_run_loads_no_numpy_and_keeps_builtin_times():
    """The functional FFT stages price in ``np.float64``, which used to
    make the clock and every span time of a sound-detection run numpy
    scalars; the table's stages are builtin floats."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", TABLE_RUN],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    run = json.loads(out)
    assert "repro.workloads.calibrated" in run["modules"]
    assert [m for m in run["modules"] if FUNCTIONAL_LAYER.fullmatch(m)] == []
    assert run["spans"] > 0
    assert run["now"] == "float"
    assert run["times"] == ["float"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_submodules_object(package):
    from repro._lazy import EXPORTS

    # Load everything first: a submodule imported after a name was read
    # must not shadow that name in the package namespace.
    for name in MODULES:
        importlib.import_module(name)
    namespace = importlib.import_module(package)
    origin = EXPORTS.get(package, {})
    exported = list(getattr(namespace, "__all__", ()))
    assert sorted(exported) == sorted(origin)
    listing = dir(namespace)
    for name in exported:
        value = getattr(namespace, name)
        assert name in listing
        assert vars(namespace)[name] is value  # cached: read once
        defining = importlib.import_module(origin[name])
        if origin[name] == f"{package}.{name}":
            assert value is defining
            continue
        assert value is getattr(defining, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == origin[name], name


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error(package):
    namespace = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(namespace, "no_such_name")
    assert not hasattr(namespace, "__no_such_dunder__")
