"""Property tests on random schedules, mixtures and sampler settings."""

import numpy as np
import pytest
from hypothesis import Phase, assume, event, given, settings
from hypothesis import strategies as st

from difflab.config import RunSpec, SpecError
from difflab.model import GaussianMixtureModel
from difflab.runner import run_chains
from difflab.samplers import StepPlan, SamplerConfig
from difflab.schedule import linear_beta_schedule, respace

ETA_MODES = ("deterministic", "ddpm_unit", "ddpm_hat")
# few examples, the same ones on every run, and nothing written to disk
_FEW = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@st.composite
def schedules(draw, max_T=60):
    """A linear-beta schedule, sometimes respaced."""
    T = draw(st.integers(1, max_T))
    beta_start = draw(st.floats(1e-4, 0.2))
    beta_end = draw(st.floats(beta_start, 0.3))
    sched = linear_beta_schedule(T, beta_start, beta_end)
    if draw(st.booleans()):
        sched = respace(sched, draw(st.integers(1, T)),
                        draw(st.sampled_from(("uniform", "quadratic"))))
    return sched


@st.composite
def configs(draw, eta_modes=ETA_MODES):
    return SamplerConfig(method=draw(st.sampled_from(("vanilla", "adaptive"))),
                         eta_mode=draw(st.sampled_from(eta_modes)),
                         b=draw(st.floats(0.0, 1.0)),
                         b_schedule=draw(st.sampled_from(("constant", "linear_ramp"))),
                         c=draw(st.floats(0.0, 0.5)))


@st.composite
def mixtures(draw):
    D = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    means = draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=D, max_size=D),
                          min_size=k, max_size=k))
    variances = draw(st.lists(st.sampled_from((0.0, 0.1, 0.5, 1.0)),
                              min_size=k, max_size=k))
    return GaussianMixtureModel(weights=w, means=means, variances=variances)


def _fitting(sched, config):
    try:
        StepPlan.build(sched, config)
    except ValueError:
        return False
    return True


@_FEW
@given(st.integers(1, 80), st.floats(1e-4, 0.2), st.floats(0.0, 0.1),
       st.sampled_from(("uniform", "quadratic")), st.integers(1, 80),
       configs(eta_modes=("deterministic", "ddpm_unit")))
def test_plan_of_respace_to_T_equals_full_plan(T, beta_start, spread, mode, K, config):
    full = linear_beta_schedule(T, beta_start, beta_start + spread)
    want = StepPlan.build(full, config)
    got = StepPlan.build(respace(full, T, mode), config)
    for name in ("t", "t_prev", "sqrt_alpha", "sqrt_alpha_prev", "mu", "noise",
                 "a", "b", "plain"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    # a shorter subsequence reads its alphas straight from the full arrays
    sub = respace(full, min(K, T), mode)
    plan = StepPlan.build(sub, config)
    assert plan.t.tolist() == list(sub.tau[::-1])
    assert plan.sqrt_alpha.tobytes() == np.sqrt(full.alphas_cum[plan.t - 1]).tobytes()


@settings(_FEW, max_examples=60)   # cheap: no chains run
@given(st.integers(1, 60), st.floats(1e-4, 0.2), st.floats(0.0, 0.1),
       st.floats(0.99, 1.0), st.one_of(st.none(), st.integers(1, 60)),
       st.sampled_from(("uniform", "quadratic")), configs())
def test_plan_build_fails_only_with_value_error_and_validate_names_it(
        T, beta_start, spread, alpha_zero, respace_k, mode, config):
    spec = RunSpec(weights=(1.0,), means=((0.0,),), variances=(0.0,), T=T,
                   beta_start=beta_start, beta_end=beta_start + spread,
                   alpha_zero=alpha_zero,
                   respace_k=None if respace_k is None else min(respace_k, T),
                   respace_mode=mode,
                   sampler={"method": config.method, "eta_mode": config.eta_mode,
                            "b": config.b, "b_schedule": config.b_schedule, "c": config.c})
    try:
        schedule = spec.build_schedule()
    except SpecError:
        assume(False)     # alpha_zero not above alpha_1
    try:
        StepPlan.build(schedule, config)
    except ValueError as exc:
        event("the eta mode does not fit")
        assert "at t=" in str(exc)
        with pytest.raises(SpecError, match="sampler.eta_mode"):
            spec.validate()
    else:
        spec.validate()


@_FEW
@given(mixtures(), schedules(max_T=30), st.sampled_from(ETA_MODES), st.integers(0, 2**32))
def test_degenerate_adaptive_equals_vanilla(gmm, sched, eta, seed):
    vanilla = SamplerConfig.vanilla(eta)
    assume(_fitting(sched, vanilla))
    degen = SamplerConfig(method="adaptive", eta_mode=eta, b=1.0, a_rule="spherical",
                          c=0.0, zeta=0.0)
    van = run_chains(gmm, sched, vanilla, 8, seed).samples
    ada = run_chains(gmm, sched, degen, 8, seed).samples
    assert np.max(np.abs(van - ada)) <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "analytic_eps sums over components with BLAS (r.T @ means, gain @ r), whose "
    "rounding depends on the batch size, so chains of a partial block can move by "
    "a few ulps when chains are added; see CHANGES.md"))
@settings(_FEW, phases=[Phase.generate])
@given(mixtures(), schedules(max_T=30), configs(), st.integers(0, 2**32),
       st.integers(0, 20), st.integers(0, 20))
def test_chain_prefix_is_stable(gmm, sched, config, seed, m, extra):
    assume(_fitting(sched, config))
    small = run_chains(gmm, sched, config, m, seed).samples
    big = run_chains(gmm, sched, config, m + extra, seed).samples
    assert np.array_equal(big[:m], small)
