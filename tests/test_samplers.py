"""Reverse-step algebra, momentum coefficient rules, and chain invariants."""

import math

import numpy as np
import pytest

from difflab.model import GaussianMixtureModel, analytic_eps
from difflab.samplers import (ETA_DDPM_HAT, ETA_DDPM_UNIT, ETA_DETERMINISTIC,
                              ChainState, SamplerConfig, SecondMomentError,
                              StepPlan, StepRows, StepWork, _step_core, sigma)
from difflab.schedule import NoiseSchedule, linear_beta_schedule, respace

from conftest import run_one


def pair_schedule():
    """Two-step schedule with cumulative alphas (0.8, 0.5)."""
    betas = np.array([0.2, 0.375])
    return NoiseSchedule(betas=betas)


def two_point():
    return GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                variances=[0.0, 0.0])


def ddim_reference(x_t, eps_hat, eps_noise, a_t, a_p, sig):
    """The generalized reverse step in data space, written out by hand:
    x_{t-1} = sqrt(a_p) x0_hat + sqrt(1 - a_p - sigma^2) eps_hat + sigma eps."""
    x0_hat = (x_t - math.sqrt(1.0 - a_t) * eps_hat) / math.sqrt(a_t)
    return (math.sqrt(a_p) * x0_hat + math.sqrt(max(1.0 - a_p - sig * sig, 0.0)) * eps_hat
            + sig * eps_noise)


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
    plan = StepPlan.build(pair_schedule(), SamplerConfig.vanilla(ETA_DETERMINISTIC),
                          two_point())
    assert (plan.t[0], plan.t_prev[0]) == (2, 1)
    assert plan.mu[0] == pytest.approx(-0.5, rel=1e-14)
    assert plan.noise[0] == 0.0


def test_ddim_step_increment_identity():
    # the data-space generalized step equals the kernel's x_bar increment:
    # x_{t-1}/sqrt(a_prev) - x_t/sqrt(a_t) = d x_bar
    gmm = GaussianMixtureModel(weights=[0.4, 0.6], means=[[-1.0, 2.0], [3.0, 0.0]],
                               variances=[0.3, 0.0])
    ramp = linear_beta_schedule(50, 1e-3, 0.05)
    flat = linear_beta_schedule(50, 0.03, 0.03)   # eta_hat needs a_t/a_p >= a_p
    rng = np.random.default_rng(2)
    for eta, sched in ((ETA_DETERMINISTIC, ramp), (ETA_DDPM_UNIT, ramp),
                       (ETA_DDPM_HAT, flat)):
        cfg = SamplerConfig.vanilla(eta)
        plan = StepPlan.build(sched, cfg, gmm)
        rows = StepRows([plan])
        for _ in range(20):
            t = int(rng.integers(2, 51))
            k = sched.T - t
            state = ChainState(t=t, x_bar=rng.uniform(-3, 3, 2), m=np.zeros(2),
                               v=np.ones(()))
            x_t = plan.terms.sa[k] * state.x_bar     # the step writes over x_bar
            eps = rng.standard_normal(2)
            _, x_prev, _, dxb = _step_core(state, gmm, sched, cfg, eps, rows, k,
                                           StepWork((2,), gmm))
            a_t, a_p = sched.alpha(t), sched.alpha(t - 1)
            eps_hat = analytic_eps(gmm, x_t, a_t).eps_hat
            ref = ddim_reference(x_t, eps_hat, eps, a_t, a_p, sigma(sched, t, t - 1, eta))
            assert np.allclose(x_prev, ref, rtol=0, atol=1e-10)
            lhs = ref / math.sqrt(a_p) - x_t / math.sqrt(a_t)
            assert np.allclose(lhs, dxb, rtol=0, atol=1e-10)


def test_predicted_x0_inverts_forward(drive_chains):
    # with the exact eps of a point mass, the plain final step t=1 -> 0 is
    # (x_t - sqrt(1-a) eps) / sqrt(a), which inverts the forward noising
    a = 0.37
    sched = NoiseSchedule(betas=[1.0 - a])
    x0 = np.array([1.5, -0.3])
    gmm = GaussianMixtureModel(weights=[1.0], means=[x0], variances=[0.0])
    eps = np.array([0.2, 2.0])
    x_t = math.sqrt(a) * x0 + math.sqrt(1 - a) * eps
    got, _ = drive_chains(gmm, sched, SamplerConfig.vanilla(ETA_DDPM_UNIT), x_t,
                          lambda k, shape: np.full(shape, 5.0))
    assert np.allclose(got, x0, atol=1e-14)


def test_deterministic_point_mass_telescopes_to_mode(drive_chains):
    # perfect predictor on one point mass: eta=0 lands exactly on the mode
    gmm = GaussianMixtureModel(weights=[1.0], means=[[1.7]], variances=[0.0])
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    rng = np.random.default_rng(0)
    x0, _ = drive_chains(gmm, sched, SamplerConfig.vanilla(ETA_DETERMINISTIC),
                         np.array([[-5.0], [0.0], [3.2]]),
                         lambda k, shape: rng.standard_normal(shape))
    assert np.all(np.abs(x0[:, 0] - 1.7) < 1e-10)


def test_deterministic_chain_ignores_rng(drive_chains):
    gmm = two_point()
    sched = linear_beta_schedule(30, 1e-3, 0.05)
    x_T = np.array([0.4])
    cfg = SamplerConfig.vanilla(ETA_DETERMINISTIC)
    runs = []
    for seed in (1, 999):
        rng = np.random.default_rng(seed)
        runs.append(drive_chains(gmm, sched, cfg, x_T,
                                 lambda k, shape: rng.standard_normal(shape))[0])
    assert np.array_equal(runs[0], runs[1])


def test_final_step_is_noiseless():
    # the t=1 -> 0 transition weights its noise draw by 0, so with alpha(0)=1
    # the final state is exactly the last predicted x0
    gmm = two_point()
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla(ETA_DDPM_UNIT)
    res = run_one(gmm, sched, cfg, 4, seed=4, trajectory_chains=4)
    assert StepPlan.build(sched, cfg, gmm).noise[-1] == 0.0
    assert res.trajectories.x0_hats.shape[0] == 4
    for x0, x0_hats in zip(res.samples, res.trajectories.x0_hats):
        assert np.allclose(x0, x0_hats[-1], atol=1e-12)


_FINAL_STEP_CONFIGS = {
    "vanilla": lambda eta: SamplerConfig.vanilla(eta),
    "momentum": lambda eta: SamplerConfig(eta_mode=eta, b=0.3, c=0.0, zeta=0.0),
    "adaptive": lambda eta: SamplerConfig(method="adaptive", eta_mode=eta, b=0.4, c=0.003),
}


@pytest.mark.parametrize("respaced", [False, True], ids=["full", "respaced"])
@pytest.mark.parametrize("eta", [ETA_DETERMINISTIC, ETA_DDPM_UNIT, ETA_DDPM_HAT])
@pytest.mark.parametrize("method", sorted(_FINAL_STEP_CONFIGS))
def test_final_step_is_noiseless_for_every_method(method, eta, respaced):
    # the final transition is the plain step for every method, momentum and
    # adaptive included, so every chain ends on its last predicted x0.
    # eta_hat needs a non-expanding per-step rate, so its cases run on a
    # constant-rate schedule.
    gmm = two_point()
    if eta == ETA_DDPM_HAT:
        sched = linear_beta_schedule(40, 0.03, 0.03)
    else:
        sched = linear_beta_schedule(40, 1e-3, 0.05)
    if respaced:
        sched = respace(sched, 10)
    cfg = _FINAL_STEP_CONFIGS[method](eta)
    res = run_one(gmm, sched, cfg, 4, seed=4, trajectory_chains=4)
    assert res.trajectories.ts[-1] == 0
    assert res.trajectories.x0_hats.shape[0] == 4
    for x0, x0_hats in zip(res.samples, res.trajectories.x0_hats):
        assert np.allclose(x0, x0_hats[-1], rtol=0, atol=1e-12)


# --- coefficient rules ---------------------------------------------------

def test_spherical_rule_frozen_value():
    cfg = SamplerConfig(b=0.15, a_rule="spherical")
    a, b = cfg.coeffs(0, 100)
    assert b == 0.15
    assert a == pytest.approx(0.98868599666425943, rel=1e-15)
    assert a * a + b * b == pytest.approx(1.0, abs=1e-15)
    ramp = SamplerConfig(b=0.15, b_schedule="linear_ramp", a_rule="spherical")
    for k in range(100):
        a, b = ramp.coeffs(k, 100)
        assert a * a + b * b == pytest.approx(1.0, abs=1e-15), k


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
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0])
    state = ChainState.init(x_T, StepRows([StepPlan.build(sched, SamplerConfig(), gmm)]))
    assert state.t == 10
    assert np.array_equal(state.x_bar, x_T / math.sqrt(sched.alpha(10)))
    assert np.all(state.m == 0.0)
    assert np.all(state.v == 1.0)
    assert state.v.shape == (2,)


def test_degenerate_adaptive_equals_vanilla():
    # b=1, spherical (a=0), c=0, zeta=0 collapses the update to x_bar + dxb
    gmm = two_point()
    sched = linear_beta_schedule(40, 1e-3, 0.05)
    for eta in (ETA_DETERMINISTIC, ETA_DDPM_UNIT):
        degen = SamplerConfig(method="adaptive", eta_mode=eta, b=1.0, c=0.0, zeta=0.0)
        van = run_one(gmm, sched, SamplerConfig.vanilla(eta), 5, seed=100).samples
        ada = run_one(gmm, sched, degen, 5, seed=100).samples
        assert np.max(np.abs(van - ada)) <= 1e-12


def test_second_moment_stays_positive():
    gmm = two_point()
    sched = linear_beta_schedule(60, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", b=0.3, c=0.05)
    rows = StepRows([StepPlan.build(sched, cfg, gmm)])
    state = ChainState.init(np.random.default_rng(7).standard_normal((16, 1)), rows)
    work = StepWork((16, 1), gmm)
    rng = np.random.default_rng(8)
    for k in rows.k:
        state, _, _, _ = _step_core(state, gmm, sched, cfg,
                                    rng.standard_normal(state.x_bar.shape), rows, k, work)
        assert np.all(state.v > 0.0)
    assert state.t == 0


def test_zero_second_moment_raises_named_error():
    # c=1 makes v the last squared increment; at x_bar = 0 on a point mass at 0
    # the deterministic increment is 0, so v reaches 0. A valid config, so this
    # must be a named error, not an assert that -O would strip.
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", eta_mode=ETA_DETERMINISTIC, c=1.0)
    state = ChainState(t=sched.tau[-1], x_bar=np.zeros((3, 1)), m=np.zeros((3, 1)),
                       v=np.ones(3))
    with pytest.raises(SecondMomentError, match=r"c=1\.0, zeta=1e-08"):
        _step_core(state, gmm, sched, cfg, np.zeros((3, 1)),
                   StepRows([StepPlan.build(sched, cfg, gmm)]), 0, StepWork((3, 1), gmm))


def test_zero_second_moment_in_a_stack_names_the_slice_that_hit_it():
    # a stack's rows hold per-slice columns of c; the error names the settings
    # of the slice whose v reached 0, not the first slice's
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    plans = [StepPlan.build(sched, SamplerConfig(method="adaptive", eta_mode=ETA_DETERMINISTIC,
                                                 c=c), gmm) for c in (0.5, 1.0)]
    rows = StepRows(plans, 0, 1)
    assert rows.c[0].shape == (2, 1)
    state = ChainState(t=rows.t[0], x_bar=np.zeros((2, 3, 1)), m=np.zeros((2, 3, 1)),
                       v=np.ones((2, 3)))
    with pytest.raises(SecondMomentError, match=r"stack slice 1 \(c=1\.0, zeta=1e-08\)"):
        _step_core(state, gmm, sched, None, np.zeros((2, 3, 1)), rows, 0,
                   StepWork((2, 3, 1), gmm))


def test_zero_second_moment_names_the_slice_where_the_slices_share_c():
    # slices of different K with one config share a float c and zeta, and
    # their rows differ in t: the error still names the slice whose v reached
    # 0, by its index, c and zeta, not the first slice's t
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])
    full = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", eta_mode=ETA_DETERMINISTIC, c=1.0, zeta=0.25)
    plans = [StepPlan.build(sched, cfg, gmm) for sched in (full, respace(full, 5))]
    rows = StepRows(plans, 0, 2)
    assert type(rows.c[1]) is float and type(rows.zeta[1]) is float
    assert rows.t[1] == 19 and isinstance(rows.sa[1], np.ndarray)
    state = ChainState.init(np.ones((2, 3, 1)), rows)
    work = StepWork((2, 3, 1), gmm)
    state, *_ = _step_core(state, gmm, full, cfg, np.zeros((2, 3, 1)), rows, 0, work)
    assert np.all(state.v > 0.0)
    # slice 1's chains now sit on the point mass, where a step with eta = 0 moves none
    state.x_bar[1] = 0.0
    with pytest.raises(SecondMomentError,
                       match=r"at step 1 of stack slice 1 \(c=1\.0, zeta=0\.25\)"):
        _step_core(state, gmm, full, cfg, np.zeros((2, 3, 1)), rows, 1, work)


def test_vanilla_step_leaves_momentum_untouched():
    gmm = two_point()
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla()
    plan = StepPlan.build(sched, cfg, gmm)
    assert plan.plain.all()
    rows = StepRows([plan])
    state = ChainState.init(np.array([0.5]), rows)
    m, v = state.m.copy(), state.v.copy()
    nxt, _, _, _ = _step_core(state, gmm, sched, cfg,
                              np.random.default_rng(0).standard_normal(1), rows, 0,
                              StepWork((1,), gmm))
    assert nxt.t == 9
    assert nxt.m.tobytes() == m.tobytes()
    assert nxt.v.tobytes() == v.tobytes()


def test_trajectory_recording_shapes():
    gmm = two_point()
    sched = linear_beta_schedule(25, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", b=0.2)
    res = run_one(gmm, sched, cfg, 3, seed=9, trajectory_chains=2)
    traj = res.trajectories
    assert traj.ts.shape == (25,)
    assert traj.xs.shape == (2, 25, 1)
    assert traj.x0_hats.shape == (2, 25, 1)
    assert traj.ts[0] == 24 and traj.ts[-1] == 0
    assert np.array_equal(res.samples[:2], traj.xs[:, -1])


def test_respaced_chain_runs_and_uses_subsequence():
    gmm = two_point()
    sub = respace(linear_beta_schedule(100, 1e-3, 0.05), 10)
    cfg = SamplerConfig.vanilla()
    traj = run_one(gmm, sub, cfg, 1, seed=10, trajectory_chains=1).trajectories
    assert traj.xs.shape == (1, 10, 1)
    assert list(traj.ts) == [90, 80, 70, 60, 50, 40, 30, 20, 10, 0]


def test_mu_is_negative_for_unit_eta():
    # for eta=1, mu = (a_t - a_p) / (a_p sqrt(1-a_t) sqrt(a_t)) < 0
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    plan = StepPlan.build(sched, SamplerConfig.vanilla(ETA_DDPM_UNIT), two_point())
    for t in (2, 50, 100):
        a_t, a_p = sched.alpha(t), sched.alpha(t - 1)
        mu = plan.mu[sched.T - t]
        closed = (a_t - a_p) / (a_p * math.sqrt(1 - a_t) * math.sqrt(a_t))
        assert mu < 0.0
        assert mu == pytest.approx(closed, rel=1e-10)


def test_analytic_eps_drives_steps_consistently():
    # one hand-rolled vanilla step equals the library step
    gmm = two_point()
    sched = linear_beta_schedule(30, 1e-3, 0.05)
    t = 30
    x_t = np.array([0.9])
    eps_hat = analytic_eps(gmm, x_t, sched.alpha(t)).eps_hat
    eps = np.array([0.7])
    manual = ddim_reference(x_t, eps_hat, eps, sched.alpha(t), sched.alpha(t - 1),
                            sigma(sched, t, t - 1, ETA_DDPM_UNIT))
    cfg = SamplerConfig.vanilla()
    rows = StepRows([StepPlan.build(sched, cfg, gmm)])
    nxt, _, _, _ = _step_core(ChainState.init(x_t, rows), gmm, sched, cfg, eps, rows, 0,
                              StepWork((1,), gmm))
    assert np.allclose(math.sqrt(sched.alpha(29)) * nxt.x_bar, manual, atol=1e-12)
