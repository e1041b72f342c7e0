"""The names benchmarks/tracer.py wraps must stay in the package.

The tracer patches difflab's module-level names from outside. A name it cannot
find makes `benchmarks/run.py --trace 1` crash or read its metrics as null, so
a cleanup that deletes one fails here first.
"""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import difflab
import difflab.cli  # noqa: F401  (the tracer reads every module off the package)
from difflab import runner
from difflab.config import SweepSpec
from difflab.model import GaussianMixtureModel
from difflab.samplers import SamplerConfig, StepPlan
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
    # the tracer reads the step kernel's first five arguments by position, and
    # run_chains' thread count as its sixth when it is not a keyword
    params = list(inspect.signature(runner._step_core).parameters)[:5]
    assert params == ["state", "model", "schedule", "config", "eps_noise"]
    assert list(inspect.signature(runner.run_chains).parameters)[5] == "threads"


def test_tracer_sees_every_per_step_call():
    # a refactor that stops calling a wrapped name would make its metric read
    # a measured 0 instead of failing: 2 blocks x 20 steps, 2100 chains in 33
    # noise groups
    tracer = _load_tracer().Tracer()
    tracer.install(difflab)
    try:
        gmm = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                   variances=[0.0, 0.0])
        runner.run_chains(gmm, (linear_beta_schedule(20, 1e-3, 0.05),),
                          (SamplerConfig.vanilla(),), 2100, (0,), threads=2,
                          heatmap={"t_bins": 5, "x_bins": 12, "x_min": -6, "x_max": 6})
        spans, _ = tracer.take()
    finally:
        tracer.uninstall()
    calls = Counter(span[3] for span in spans)
    assert {name: calls[name] for name in ("metrics.heatmap_bin", "samplers.step", "model.eps",
                                           "runner.block", "runner.noise")} == {
        "metrics.heatmap_bin": 40, "samplers.step": 40, "model.eps": 40,
        "runner.block": 2, "runner.noise": 33}


def _traced(gmm, config, n_chains, threads=1):
    """Spans and counters of one traced run_chains call, 20 steps."""
    tracer = _load_tracer().Tracer()
    tracer.install(difflab)
    try:
        runner.run_chains(gmm, (linear_beta_schedule(20, 1e-3, 0.05),), (config,),
                          n_chains, (0,), threads=threads)
        return tracer.take()
    finally:
        tracer.uninstall()


_TWO_POINT = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                  variances=[0.0, 0.0])


def _mix16(D=16, K=8):
    rng = np.random.default_rng(16)
    w = rng.uniform(0.2, 1.0, K)
    return GaussianMixtureModel(weights=w / w.sum(), means=rng.normal(0.0, 1.5, (K, D)),
                                variances=rng.uniform(0.05, 0.5, K))


@pytest.mark.parametrize("gmm, config", [
    (_TWO_POINT, SamplerConfig(method="adaptive", b=0.3, c=0.01)),   # momentum rows
    (_mix16(), SamplerConfig.vanilla()),
], ids=["adaptive", "D16"])
def test_tracer_sees_one_step_and_one_prediction_per_block_and_step(gmm, config):
    # 2100 chains are 2 blocks; each of their 20 steps is one kernel call that
    # calls the predictor once, through the names the tracer wraps
    spans, counts = _traced(gmm, config, 2100, threads=2)
    calls = Counter(span[3] for span in spans)
    assert (calls["samplers.step"], calls["model.eps"], calls["runner.block"]) == (40, 40, 2)
    assert counts["chain_steps"] == 2100 * 20


def test_tracer_counts_every_drawn_noise_value_as_used():
    # the tracer keys its per-step noise count on the kernel's state.t: a state
    # that reads the next step's t would undercount the used draws. 320 chains
    # are 5 whole noise groups
    _, counts = _traced(_TWO_POINT, SamplerConfig.vanilla("ddpm_unit"), 320)
    assert counts["noise_drawn"] == 320 * 20     # x_T and 19 noisy steps
    assert counts["noise_used"] / counts["noise_drawn"] == 1.0


def test_tracer_counts_a_partial_groups_unused_chains_as_drawn():
    # 300 chains draw 5 whole groups, 320 chains' rows. The tracer counts a
    # group's x_T row as used, so the 20 chains past 300 leave their 19 noisy
    # rows drawn and unused
    _, counts = _traced(_TWO_POINT, SamplerConfig.vanilla("ddpm_unit"), 300)
    assert counts["noise_drawn"] == 320 * 20
    assert counts["noise_drawn"] - counts["noise_used"] == 20 * 19


def test_tracer_counts_a_stacked_noisy_sweeps_used_noise_as_its_plans_imply(tmp_path):
    # 3 K values x 2 seeds of 300 chains are one stack, K = 20, 20, 8, 8, 3, 3,
    # whose cells end at different steps: at steps 2 and 7 the cells on their
    # noiseless last row take a call of their own. The tracer reads each call's
    # first cell's schedule, config and t, so it must count exactly the noise
    # the plans use: x_T and one row per noisy step of every chain. Each cell
    # draws 5 whole noise groups, 320 chains, and the tracer counts x_T as
    # used for all of them
    base = {"model": {"weights": [0.45, 0.55], "means": [[-1.5], [2.5]],
                      "variances": [0.3, 0.2]},
            "schedule": {"T": 200, "beta_start": 1e-4, "beta_end": 0.05},
            "sampler": {"method": "adaptive", "eta_mode": "ddpm_unit", "b": 0.2, "c": 0.02},
            "n_chains": 300, "seed": 5, "trajectories": False, "heatmap": None,
            "metrics": True}
    sweep = SweepSpec.from_dict({"base": base, "axis": "K", "values": [3, 8, 20],
                                 "seeds_per_cell": 2})
    used = drawn = 0
    for value in sweep.values:
        spec = sweep.cell_spec(value, 0)
        plan = StepPlan.build(spec.build_schedule(), spec.build_sampler_config(),
                              spec.build_model())
        noisy = np.count_nonzero(plan.noise)
        used += sweep.seeds_per_cell * (320 + 300 * noisy)
        drawn += sweep.seeds_per_cell * 320 * (1 + noisy)
    tracer = _load_tracer().Tracer()
    tracer.install(difflab)
    try:
        runner.execute_sweep(sweep, tmp_path)
        spans, counts = tracer.take()
    finally:
        tracer.uninstall()
    calls = Counter(span[3] for span in spans)
    assert (calls["runner.run_chains"], calls["samplers.step"]) == (1, 20 + 2)
    assert (counts["noise_used"], counts["noise_drawn"]) == (used, drawn)
