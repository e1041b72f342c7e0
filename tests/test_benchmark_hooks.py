"""The names benchmarks/tracer.py wraps must stay in the package.

The tracer patches difflab's module-level names from outside. A name it cannot
find makes `benchmarks/run.py --trace 1` crash or read its metrics as null, so
a cleanup that deletes one fails here first.
"""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import difflab
import difflab.cli  # noqa: F401  (the tracer reads every module off the package)
from difflab import runner
from difflab.model import GaussianMixtureModel
from difflab.samplers import SamplerConfig
from difflab.schedule import linear_beta_schedule

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


def test_tracer_sees_every_per_step_call():
    # a refactor that stops calling a wrapped name would make its metric read
    # a measured 0 instead of failing: 2 blocks x 20 steps, 2100 chains
    tracer = _load_tracer().Tracer()
    tracer.install(difflab)
    try:
        gmm = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                   variances=[0.0, 0.0])
        runner.run_chains(gmm, linear_beta_schedule(20, 1e-3, 0.05), SamplerConfig.vanilla(),
                          2100, seed=0, threads=2,
                          heatmap={"t_bins": 5, "x_bins": 12, "x_min": -6, "x_max": 6})
        spans, _ = tracer.take()
    finally:
        tracer.uninstall()
    calls = Counter(span[3] for span in spans)
    assert {name: calls[name] for name in ("metrics.heatmap_bin", "samplers.step", "model.eps",
                                           "runner.block", "runner.noise")} == {
        "metrics.heatmap_bin": 40, "samplers.step": 40, "model.eps": 40,
        "runner.block": 2, "runner.noise": 2100}
