"""Noise-schedule construction, validation, respacing, and CSV dumps."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from difflab.samplers import SamplerConfig, StepPlan
from difflab.schedule import linear_beta_schedule, respace

from conftest import unit_gaussian


def transitions(schedule):
    """The (t, t_prev) pairs of the step plan's rows, in reverse order."""
    plan = StepPlan.build(schedule, SamplerConfig(), unit_gaussian())
    return list(zip(plan.t.tolist(), plan.t_prev.tolist()))


def test_linear_schedule_endpoints_and_monotonicity():
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    assert sched.T == 1000
    assert sched.betas[0] == pytest.approx(1e-4, abs=0.0)
    assert sched.betas[-1] == pytest.approx(0.02, abs=0.0)
    assert np.all(np.diff(sched.betas) > 0.0)
    assert np.all(np.diff(sched.alphas_cum) < 0.0)


def test_alpha_cumulative_product_frozen_value():
    # independently computed as prod(1 - linspace(1e-4, 0.02, 1000))
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    assert sched.alpha(1000) == pytest.approx(4.035829765375676e-05, rel=1e-12)
    assert sched.alpha(1) == pytest.approx(1.0 - 1e-4, rel=1e-15)


def test_alpha_zero_boundary():
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    assert sched.alpha(0) == 1.0
    custom = linear_beta_schedule(10, 1e-3, 0.05, alpha_zero=0.9999)
    assert custom.alpha(0) == 0.9999


def test_invalid_constructions_raise():
    with pytest.raises(ValueError):
        linear_beta_schedule(0, 1e-3, 0.05)
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 0.05, 1e-3)      # decreasing betas
    with pytest.raises(ValueError):
        linear_beta_schedule(10, -0.1, 0.05)
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 0.5, 1.0)        # beta_end not < 1
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 1e-3, 0.05, alpha_zero=0.1)  # below alpha_1


def test_timestep_bounds_checked():
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    with pytest.raises(ValueError):
        sched.alpha(-1)
    with pytest.raises(ValueError):
        sched.alpha(11)


def test_transitions_cover_reverse_chain():
    sched = linear_beta_schedule(5, 1e-3, 0.05)
    assert sched.tau == (1, 2, 3, 4, 5)
    assert transitions(sched) == [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]
    assert sched.tau[-1] == 5
    assert sched.prev_t(3) == 2
    # row k of the plan is k steps from the top
    assert transitions(sched)[0][0] == 5
    assert transitions(sched)[4][0] == 1


def test_uniform_respacing_frozen_tau():
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    sub = respace(sched, 25, "uniform")
    assert sub.tau == tuple(range(40, 1001, 40))
    assert len(sub.tau) == 25
    assert StepPlan.build(sub, SamplerConfig(), unit_gaussian()).K == 25
    assert sub.tau[-1] == 1000


def test_uniform_respacing_is_the_floor_of_k_T_over_K():
    # tau_k = floor(k T / K): where K does not divide T, the floor, not the
    # ceiling or a rounding, picks each step
    assert respace(linear_beta_schedule(10, 1e-3, 0.05), 3).tau == (3, 6, 10)
    assert respace(linear_beta_schedule(7, 1e-3, 0.05), 4).tau == (1, 3, 5, 7)
    for T in range(1, 40):
        sched = linear_beta_schedule(T, 1e-3, 0.05)
        for K in range(1, T + 1):
            assert respace(sched, K, "uniform").tau == tuple(k * T // K for k in range(1, K + 1))


def test_respaced_alphas_are_exact_parent_reads():
    sched = linear_beta_schedule(200, 5e-4, 0.1)
    sub = respace(sched, 7, "uniform")
    for t in sub.tau:
        assert sub.alpha(t) == sched.alpha(t)
    assert sub.alpha(0) == sched.alpha(0)
    assert sub.T == sched.T


def test_respaced_transitions_and_prev():
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    sub = respace(sched, 4, "uniform")
    assert sub.tau == (25, 50, 75, 100)
    assert transitions(sub) == [(100, 75), (75, 50), (50, 25), (25, 0)]
    assert sub.prev_t(25) == 0
    with pytest.raises(ValueError):
        sub.alpha(30)  # not in the subsequence
    with pytest.raises(ValueError):
        sub.prev_t(30)


def test_quadratic_respacing_valid_and_endpoint_fixed():
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    for K in (5, 10, 25, 50, 250, 1000):
        sub = respace(sched, K, "quadratic")
        tau = np.array(sub.tau)
        assert tau[-1] == 1000
        assert np.all(np.diff(tau) > 0)
        assert tau[0] >= 1
    # quadratic front-loads the fine steps near t = 0
    sub = respace(sched, 10, "quadratic")
    assert sub.tau[0] < respace(sched, 10, "uniform").tau[0]


def test_respace_k_equals_t_is_identity():
    sched = linear_beta_schedule(50, 1e-3, 0.05)
    sub = respace(sched, 50, "uniform")
    assert sub.tau == tuple(range(1, 51)) == sched.tau
    assert np.array_equal([sub.alpha(t) for t in sub.tau], sched.alphas_cum)


def test_respace_bounds():
    sched = linear_beta_schedule(50, 1e-3, 0.05)
    with pytest.raises(ValueError):
        respace(sched, 0)
    with pytest.raises(ValueError):
        respace(sched, 51)
    with pytest.raises(ValueError):
        respace(sched, 5, "cubic")


def test_respaced_schedule_rejects_bad_tau():
    sched = linear_beta_schedule(50, 1e-3, 0.05)
    with pytest.raises(ValueError):
        replace(sched, tau=(10, 10, 50))    # not increasing
    with pytest.raises(ValueError):
        replace(sched, tau=(10, 20))        # missing endpoint
    with pytest.raises(ValueError):
        replace(sched, tau=())
    with pytest.raises(ValueError):
        replace(sched, tau=(0, 50))         # below t = 1


def test_schedule_csv_roundtrip(tmp_path):
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    path = tmp_path / "schedule.csv"
    sched.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for row in rows:
        t = int(row["t"])
        assert float(row["beta"]) == sched.betas[t - 1]
        assert float(row["alpha_cum"]) == sched.alpha(t)
