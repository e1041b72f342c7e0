"""Shared test helpers, and the hypothesis profile "no-shrink"."""

import numpy as np
import pytest
from hypothesis import Phase, settings

import difflab.runner as runner
from difflab.model import GaussianMixtureModel
from difflab.samplers import ChainState, StepPlan, StepRows, StepWork, _step_core

# `pytest --hypothesis-profile=no-shrink` reports a failing property's first
# falsifying example without shrinking it: for mutation checks, where a broken
# kernel fails many properties and shrinking each takes minutes. Registering it
# changes nothing unless that option selects it.
settings.register_profile("no-shrink",
                          phases=[phase for phase in Phase if phase is not Phase.shrink])


def unit_gaussian(D=1):
    """One standard Gaussian in D dimensions: a model for plans whose predictor
    terms a test does not read."""
    return GaussianMixtureModel(weights=[1.0], means=[[0.0] * D], variances=[1.0])


def run_one(model, schedule, config, n_chains, seed, **kwargs):
    """The RunResult of a run_chains call with one cell: schedule, config and seed."""
    result, = runner.run_chains(model, (schedule,), (config,), n_chains, (seed,), **kwargs)
    return result


@pytest.fixture()
def drive_chains():
    """Step chains from chosen starting points through every row of the step
    plan, one in-place kernel call per row; noise(k, shape) gives row k's noise
    draw. Returns the final samples and the per-step x0_hat predictions."""
    def drive(model, schedule, config, x_T, noise):
        rows = StepRows([StepPlan.build(schedule, config, model)])
        state = ChainState.init(x_T, rows)
        work = StepWork(state.x_bar.shape, model)
        x0_hats = []
        for k in rows.k:
            state, x_next, x0_hat, _ = _step_core(state, model, schedule, config,
                                                  noise(k, state.x_bar.shape), rows, k, work)
            x0_hats.append(x0_hat.copy())   # the next step writes over work's x0_hat
        return x_next, np.array(x0_hats)
    return drive


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """An expected failure's examples are not worth keeping: drop hypothesis's
    record of them from an xfail-marked test before its plugin reads the record
    and writes a .hypothesis/patches file for it."""
    if item.get_closest_marker("xfail") is not None:
        item.__dict__.pop("_hypothesis_failing_examples", None)
    yield
