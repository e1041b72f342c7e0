"""Reverse-step algebra, momentum coefficient rules, and chain invariants."""

import math

import numpy as np
import pytest

from difflab.model import GaussianMixtureModel, analytic_eps
from difflab.samplers import (ETA_DDPM_HAT, ETA_DDPM_UNIT, ETA_DETERMINISTIC,
                              ChainState, SamplerConfig, SecondMomentError,
                              _step_core, adaptive_momentum_step,
                              ddim_step, increment, predicted_x0, run_chain,
                              sigma, vanilla_step)
from difflab.schedule import NoiseSchedule, linear_beta_schedule


def pair_schedule():
    """Two-step schedule with cumulative alphas (0.8, 0.5)."""
    betas = np.array([0.2, 0.375])
    return NoiseSchedule(betas=betas, alphas_cum=np.cumprod(1.0 - betas))


def two_point():
    return GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                variances=[0.0, 0.0])


# --- noise scale sigma --------------------------------------------------

def test_sigma_frozen_examples():
    sched = pair_schedule()
    assert sched.alpha(2) == pytest.approx(0.5, rel=1e-15)
    assert sched.alpha(1) == pytest.approx(0.8, rel=1e-15)
    # sqrt(0.2/0.5) * sqrt(1 - 0.5/0.8) = sqrt(0.15)
    assert sigma(sched, 2, 1, ETA_DDPM_UNIT) == pytest.approx(
        0.3872983346207417, rel=1e-14)
    # eta_hat cancels to sqrt(1 - 0.5/0.8) = sqrt(0.375)
    assert sigma(sched, 2, 1, ETA_DDPM_HAT) == pytest.approx(
        0.6123724356957945, rel=1e-14)
    assert sigma(sched, 2, 1, ETA_DETERMINISTIC) == 0.0


def test_sigma_hat_zero_at_alpha_boundary():
    # final step to alpha(0) = 1: the 0/0 in eta_hat resolves to sigma = 0
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    assert sigma(sched, 1, 0, ETA_DDPM_HAT) == 0.0
    assert sigma(sched, 1, 0, ETA_DDPM_UNIT) == 0.0


def test_sigma_rejects_non_increasing_noise():
    sched = pair_schedule()
    with pytest.raises(ValueError):
        sigma(sched, 1, 2, ETA_DDPM_UNIT)
    with pytest.raises(ValueError):
        sigma(sched, 2, 1, "bogus")


# --- increment coefficient mu -------------------------------------------

def test_increment_frozen_example():
    # alpha_t=0.5, alpha_prev=0.8, eta=0, eps_hat=1:
    # mu = sqrt(0.2/0.8) - sqrt(0.5/0.5) = -0.5
    sched = pair_schedule()
    dxb = increment(np.array([0.0]), np.array([1.0]), np.array([0.0]),
                    sched, 2, ETA_DETERMINISTIC)
    assert dxb[0] == pytest.approx(-0.5, rel=1e-14)


def test_ddim_step_increment_identity():
    # x_{t-1}/sqrt(a_prev) - x_t/sqrt(a_t) equals the x_bar increment
    ramp = linear_beta_schedule(50, 1e-3, 0.05)
    flat = linear_beta_schedule(50, 0.03, 0.03)   # eta_hat needs a_t/a_p >= a_p
    rng = np.random.default_rng(2)
    for eta, sched in ((ETA_DETERMINISTIC, ramp), (ETA_DDPM_UNIT, ramp),
                       (ETA_DDPM_HAT, flat)):
        for _ in range(20):
            t = int(rng.integers(2, 51))
            x_t = rng.uniform(-3, 3, 2)
            eps_hat = rng.standard_normal(2)
            eps = rng.standard_normal(2)
            x_prev = ddim_step(x_t, eps_hat, eps, sched, t, eta)
            a_t, a_p = sched.alpha(t), sched.alpha(t - 1)
            dxb = increment(x_t / math.sqrt(a_t), eps_hat, eps, sched, t, eta)
            lhs = x_prev / math.sqrt(a_p) - x_t / math.sqrt(a_t)
            assert np.allclose(lhs, dxb, rtol=0, atol=1e-10)


def test_predicted_x0_inverts_forward():
    a = 0.37
    x0 = np.array([1.5, -0.3])
    eps = np.array([0.2, 2.0])
    x_t = math.sqrt(a) * x0 + math.sqrt(1 - a) * eps
    assert np.allclose(predicted_x0(x_t, eps, a), x0, atol=1e-14)


def test_deterministic_point_mass_telescopes_to_mode():
    # perfect predictor on one point mass: eta=0 lands exactly on the mode
    gmm = GaussianMixtureModel(weights=[1.0], means=[[1.7]], variances=[0.0])
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    rng = np.random.default_rng(0)
    for x_T in (-5.0, 0.0, 3.2):
        x0, _ = run_chain(gmm, sched, SamplerConfig.vanilla(ETA_DETERMINISTIC),
                          np.array([x_T]), rng)
        assert abs(x0[0] - 1.7) < 1e-10


def test_deterministic_chain_ignores_rng():
    gmm = two_point()
    sched = linear_beta_schedule(30, 1e-3, 0.05)
    x_T = np.array([0.4])
    a, _ = run_chain(gmm, sched, SamplerConfig.vanilla(ETA_DETERMINISTIC),
                     x_T, np.random.default_rng(1))
    b, _ = run_chain(gmm, sched, SamplerConfig.vanilla(ETA_DETERMINISTIC),
                     x_T, np.random.default_rng(999))
    assert np.array_equal(a, b)


def test_final_step_is_noiseless():
    # the t=1 -> 0 transition zeroes its noise draw, so with alpha(0)=1 the
    # final state is exactly the last predicted x0
    gmm = two_point()
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla(ETA_DDPM_UNIT, record_trajectory=True)
    x0, traj = run_chain(gmm, sched, cfg, np.array([0.3]), np.random.default_rng(4))
    assert np.allclose(x0, traj.x0_hats[-1], atol=1e-12)


_FINAL_STEP_CONFIGS = {
    "vanilla": lambda eta: SamplerConfig.vanilla(eta, record_trajectory=True),
    "momentum": lambda eta: SamplerConfig.momentum(0.3, eta, record_trajectory=True),
    "adaptive": lambda eta: SamplerConfig(method="adaptive", eta_mode=eta, b=0.4,
                                          c=0.003, record_trajectory=True),
}


@pytest.mark.parametrize("respaced", [False, True], ids=["full", "respaced"])
@pytest.mark.parametrize("eta", [ETA_DETERMINISTIC, ETA_DDPM_UNIT, ETA_DDPM_HAT])
@pytest.mark.parametrize("method", sorted(_FINAL_STEP_CONFIGS))
def test_final_step_is_noiseless_for_every_method(method, eta, respaced):
    # the final transition is the plain step for every method, momentum and
    # adaptive included, so every chain ends on its last predicted x0.
    # eta_hat needs a non-expanding per-step rate, so its cases run on a
    # constant-rate schedule.
    from difflab.schedule import respace
    gmm = two_point()
    if eta == ETA_DDPM_HAT:
        sched = linear_beta_schedule(40, 0.03, 0.03)
    else:
        sched = linear_beta_schedule(40, 1e-3, 0.05)
    if respaced:
        sched = respace(sched, 10)
    cfg = _FINAL_STEP_CONFIGS[method](eta)
    x0, traj = run_chain(gmm, sched, cfg, np.array([0.3]), np.random.default_rng(4))
    assert traj.ts[-1] == 0
    assert np.allclose(x0, traj.x0_hats[-1], rtol=0, atol=1e-12)


# --- coefficient rules ---------------------------------------------------

def test_spherical_rule_frozen_value():
    cfg = SamplerConfig(b=0.15, a_rule="spherical")
    a, b = cfg.coeffs(0, 100)
    assert b == 0.15
    assert a == pytest.approx(0.98868599666425943, rel=1e-15)
    assert a * a + b * b == pytest.approx(1.0, abs=1e-15)


def test_affine_rule_and_override():
    a, b = SamplerConfig(b=0.3, a_rule="affine").coeffs(5, 100)
    assert (a, b) == (0.7, 0.3)
    a, _ = SamplerConfig(b=0.3, a_override=0.42).coeffs(5, 100)
    assert a == 0.42


def test_linear_ramp_schedule():
    cfg = SamplerConfig(b=0.2, b_schedule="linear_ramp")
    assert cfg.coeffs(0, 11)[1] == 0.0
    assert cfg.coeffs(10, 11)[1] == pytest.approx(0.2)
    assert cfg.coeffs(5, 11)[1] == pytest.approx(0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(b=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(c=-0.1)
    with pytest.raises(ValueError):
        SamplerConfig(zeta=-1e-9)
    with pytest.raises(ValueError):
        SamplerConfig(method="turbo")
    with pytest.raises(ValueError):
        SamplerConfig(eta_mode="eta2")
    with pytest.raises(ValueError):
        SamplerConfig(a_rule="geometric")
    with pytest.raises(ValueError):
        SamplerConfig(v_norm="max")


# --- momentum chain invariants -------------------------------------------

def test_chain_state_init():
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    x_T = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = ChainState.init(x_T, sched)
    assert state.t == 10
    assert np.allclose(state.x_bar, x_T / math.sqrt(sched.alpha(10)))
    assert np.all(state.m == 0.0)
    assert np.all(state.v == 1.0)
    assert state.v.shape == (2,)


def test_degenerate_adaptive_equals_vanilla():
    # b=1, spherical (a=0), c=0, zeta=0 collapses the update to x_bar + dxb
    gmm = two_point()
    sched = linear_beta_schedule(40, 1e-3, 0.05)
    degen = SamplerConfig(method="adaptive", b=1.0, c=0.0, zeta=0.0)
    for eta in (ETA_DETERMINISTIC, ETA_DDPM_UNIT):
        for seed in range(5):
            x_T = np.random.default_rng(seed).standard_normal(1)
            van, _ = run_chain(gmm, sched, SamplerConfig.vanilla(eta), x_T,
                               np.random.default_rng(100 + seed))
            from dataclasses import replace
            ada, _ = run_chain(gmm, sched, replace(degen, eta_mode=eta), x_T,
                               np.random.default_rng(100 + seed))
            assert np.max(np.abs(van - ada)) <= 1e-12


def test_second_moment_stays_positive():
    gmm = two_point()
    sched = linear_beta_schedule(60, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", b=0.3, c=0.05)
    state = ChainState.init(np.random.default_rng(7).standard_normal((16, 1)), sched)
    rng = np.random.default_rng(8)
    while state.t > 0:
        state = adaptive_momentum_step(state, gmm, sched, cfg, rng)
        assert np.all(state.v > 0.0)


def test_zero_second_moment_raises_named_error():
    # c=1 makes v the last squared increment; at x_bar = 0 on a point mass at 0
    # the deterministic increment is 0, so v reaches 0. A valid config, so this
    # must be a named error, not an assert that -O would strip.
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", eta_mode=ETA_DETERMINISTIC, c=1.0)
    state = ChainState(t=sched.top_t(), x_bar=np.zeros((3, 1)), m=np.zeros((3, 1)),
                       v=np.ones(3))
    with pytest.raises(SecondMomentError, match=r"c=1\.0, zeta=1e-08"):
        _step_core(state, gmm, sched, cfg, np.zeros((3, 1)))


def test_vanilla_step_leaves_momentum_untouched():
    gmm = two_point()
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    state = ChainState.init(np.array([0.5]), sched)
    nxt = vanilla_step(state, gmm, sched, SamplerConfig.vanilla(), np.random.default_rng(0))
    assert nxt.t == 9
    assert np.array_equal(nxt.m, state.m)
    assert np.array_equal(nxt.v, state.v)


def test_trajectory_recording_shapes():
    gmm = two_point()
    sched = linear_beta_schedule(25, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", b=0.2, record_trajectory=True)
    x0, traj = run_chain(gmm, sched, cfg, np.array([0.1]), np.random.default_rng(9))
    assert traj.xs.shape == (25, 1)
    assert traj.x0_hats.shape == (25, 1)
    assert traj.increments.shape == (25, 1)
    assert traj.ts[0] == 24 and traj.ts[-1] == 0
    assert np.allclose(x0, traj.xs[-1], atol=1e-12)


def test_respaced_chain_runs_and_uses_subsequence():
    gmm = two_point()
    from difflab.schedule import respace
    sub = respace(linear_beta_schedule(100, 1e-3, 0.05), 10)
    cfg = SamplerConfig.vanilla(record_trajectory=True)
    x0, traj = run_chain(gmm, sub, cfg, np.array([0.2]), np.random.default_rng(10))
    assert traj.xs.shape[0] == 10
    assert list(traj.ts) == [90, 80, 70, 60, 50, 40, 30, 20, 10, 0]


def test_mu_is_negative_for_unit_eta():
    # for eta=1, mu = (a_t - a_p) / (a_p sqrt(1-a_t) sqrt(a_t)) < 0
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    for t in (2, 50, 100):
        a_t, a_p = sched.alpha(t), sched.alpha(t - 1)
        dxb = increment(np.zeros(1), np.ones(1), np.zeros(1), sched, t, ETA_DDPM_UNIT)
        closed = (a_t - a_p) / (a_p * math.sqrt(1 - a_t) * math.sqrt(a_t))
        assert dxb[0] < 0.0
        assert dxb[0] == pytest.approx(closed, rel=1e-10)


def test_analytic_eps_drives_steps_consistently():
    # one hand-rolled vanilla step equals the library step
    gmm = two_point()
    sched = linear_beta_schedule(30, 1e-3, 0.05)
    t = 30
    x_t = np.array([0.9])
    eps_hat = analytic_eps(gmm, x_t, t, sched).eps_hat
    eps = np.array([0.7])
    manual = ddim_step(x_t, eps_hat, eps, sched, t, ETA_DDPM_UNIT)
    state = ChainState.init(x_t, sched)

    class FixedRng:
        def standard_normal(self, shape):
            return np.broadcast_to(eps, shape).copy()

    nxt = vanilla_step(state, gmm, sched, SamplerConfig.vanilla(), FixedRng())
    assert np.allclose(math.sqrt(sched.alpha(29)) * nxt.x_bar, manual, atol=1e-12)
