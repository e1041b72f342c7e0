"""Shared test helpers."""

import numpy as np
import pytest

from difflab.model import EpsTerms
from difflab.samplers import ChainState, StepPlan, StepWork, _step_core, plan_rows


@pytest.fixture()
def drive_chains():
    """Step chains from chosen starting points through every row of the step
    plan, one in-place kernel call per row; noise(k, shape) gives row k's noise
    draw. Returns the final samples and the per-step x0_hat predictions."""
    def drive(model, schedule, config, x_T, noise):
        plan = StepPlan.build(schedule, config, model.D)
        rows = plan_rows([plan], [EpsTerms(model, plan.alpha)])
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
