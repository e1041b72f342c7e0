"""Shared test helpers."""

import numpy as np
import pytest

from difflab.samplers import ChainState, StepPlan, _step_core


@pytest.fixture()
def drive_chains():
    """Step chains from chosen starting points through every row of the step
    plan, one kernel call per row; noise(k, shape) gives row k's noise draw.
    Returns the final samples and the per-step x0_hat predictions."""
    def drive(model, schedule, config, x_T, noise):
        plan = StepPlan.build(schedule, config)
        state = ChainState.init(x_T, plan)
        x0_hats = []
        for k in range(plan.K):
            state, x_next, x0_hat, _ = _step_core(state, model, schedule, config,
                                                  noise(k, state.x_bar.shape), plan, k)
            x0_hats.append(x0_hat)
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
