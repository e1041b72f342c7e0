"""The names benchmarks/tracer.py wraps must stay in the package.

The tracer patches difflab's module-level names from outside. A name it cannot
find makes `benchmarks/run.py --trace 1` crash or read its metrics as null, so
a cleanup that deletes one fails here first.
"""

import importlib.util
import inspect
from pathlib import Path

import difflab
import difflab.cli  # noqa: F401  (the tracer reads every module off the package)
from difflab import runner

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook():
    tracer = _load_tracer().Tracer()
    tracer.install(difflab)
    try:
        assert tracer.missing == {}
    finally:
        tracer.uninstall()
    # the tracer reads the step kernel's first five arguments by position
    params = list(inspect.signature(runner._step_core).parameters)[:5]
    assert params == ["state", "model", "schedule", "config", "eps_noise"]
