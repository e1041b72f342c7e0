"""Numerical consistency checks between the discrete samplers and their
continuous-time counterparts.

Two families: (i) the eta=1 step against an Euler-Maruyama discretization of
the reverse-time SDE in x_bar space, and (ii) the momentum recursion against a
direct midpoint recursion of the damped second-order system, via the friction
mapping a = (2 - lambda)/(2 + lambda), b = -2/(2 + lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as gm
from .model import GaussianMixtureModel
from .samplers import ETA_DDPM_UNIT, SamplerConfig, StepPlan

__all__ = [
    "FrictionMapping",
    "reverse_sde_euler_step",
    "drift_consistency",
    "midpoint_equivalence",
]


@dataclass(frozen=True)
class FrictionMapping:
    """Momentum coefficients induced by the friction parameter of the
    second-order form; note b comes out negative."""

    lam: float
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        if self.lam == -2.0:
            raise ValueError("lambda = -2 makes the mapping singular")
        object.__setattr__(self, "a", (2.0 - self.lam) / (2.0 + self.lam))
        object.__setattr__(self, "b", -2.0 / (2.0 + self.lam))


def _step_beta(schedule, t: int) -> float:
    """Per-step noise rate 1 - alpha_t / alpha_{t-1} read off the cumulative alphas."""
    return 1.0 - schedule.alpha(t) / schedule.alpha(t - 1)


def reverse_sde_euler_step(score, x_bar, t: int, schedule, eps_noise) -> np.ndarray:
    """One Euler-Maruyama step of the reverse-time SDE in x_bar space.

    x_bar_{t-1} = x_bar_t + (beta_t / alpha_t) score(x_bar_t, t)
                  + sqrt(beta_t / alpha_t) eps
    where score is the gradient of the log density of x_bar at step t.
    """
    beta = _step_beta(schedule, t)
    a_t = schedule.alpha(t)
    x_bar = np.asarray(x_bar, dtype=float)
    return x_bar + (beta / a_t) * np.asarray(score(x_bar, t)) \
        + math.sqrt(beta / a_t) * np.asarray(eps_noise)


def drift_consistency(schedule, gmm: GaussianMixtureModel, n_points: int, rng) -> dict:
    """Per-timestep agreement between the eta=1 step and the reverse-time SDE.

    Returns arrays over t = 1..T:
      - drift_rel_mismatch: |mu eps_hat - (beta/alpha) score| relative to the
        drift magnitude, maximized over sample points (an algebraic identity,
        so machine-size numbers are expected);
      - diffusion_ratio: the closed-form noise scale of the eta=1 step stated
        for the SDE comparison, divided by the step's exact noise scale
        (analytically sqrt(1 - beta_t); NaN at t=1 where both vanish);
      - sde_scale_ratio: exact step noise scale divided by the SDE target
        sqrt(beta_t/alpha_t) (approaches 1 only once accumulated noise
        dominates the per-step rate).
    """
    T = schedule.T
    ts = np.arange(1, T + 1)
    plan = StepPlan.build(schedule, SamplerConfig.vanilla(ETA_DDPM_UNIT))  # row T - t
    drift_mis = np.zeros(T)
    diff_ratio = np.full(T, np.nan)
    sde_ratio = np.full(T, np.nan)
    for t in ts:
        a_t = schedule.alpha(int(t))
        a_p = schedule.alpha(int(t) - 1)
        beta = 1.0 - a_t / a_p
        # points drawn from the exact noised marginal at this step
        x = _sample_marginal(gmm, a_t, n_points, rng)
        x_bar = x / math.sqrt(a_t)
        eps_hat = gm.analytic_eps(gmm, x, int(t), schedule).eps_hat
        drift_step = plan.mu[T - t] * eps_hat
        drift_sde = (beta / a_t) * gm.score_xbar(gmm, x_bar, int(t), schedule)
        scale = max(float(np.max(np.abs(drift_sde))), 1e-300)
        drift_mis[t - 1] = float(np.max(np.abs(drift_step - drift_sde))) / scale

        exact = float(plan.noise[T - t])
        closed_sq = (1.0 - beta) * (1.0 - beta - a_t) * beta / ((1.0 - a_t) * a_t)
        if exact > 0.0 and closed_sq > 0.0:
            diff_ratio[t - 1] = math.sqrt(closed_sq) / exact
        if exact > 0.0:
            sde_ratio[t - 1] = exact / math.sqrt(beta / a_t)
    return {
        "t": ts,
        "beta": np.array([_step_beta(schedule, int(t)) for t in ts]),
        "drift_rel_mismatch": drift_mis,
        "diffusion_ratio": diff_ratio,
        "sde_scale_ratio": sde_ratio,
    }


def _sample_marginal(gmm: GaussianMixtureModel, alpha: float, n: int, rng) -> np.ndarray:
    comps = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    mu = math.sqrt(alpha) * gmm.means[comps]
    std = np.sqrt(alpha * gmm.variances[comps] + (1.0 - alpha))
    return mu + std[:, None] * rng.standard_normal((n, gmm.D))


def midpoint_equivalence(lam: float, n_steps: int, drift, noise_seq) -> float:
    """Max state deviation between the momentum recursion (with the friction
    mapping's a, b) and the direct midpoint recursion on a scalar test problem.

    drift(k) gives the deterministic forcing at step k; noise_seq is pre-drawn
    and shared so the comparison is exact, not statistical.
    """
    fm = FrictionMapping(lam=lam)
    noise_seq = np.asarray(noise_seq, dtype=float)
    if noise_seq.size < n_steps:
        raise ValueError("noise_seq shorter than n_steps")
    # momentum path
    x_m, m = 0.0, 0.0
    # midpoint path: eta_{t+0.5} = -m, started at rest
    x_mid, eta = 0.0, 0.0
    half = 0.5 * lam
    max_dev = 0.0
    for k in range(n_steps):
        g = float(drift(k)) + float(noise_seq[k])
        m = fm.a * m + fm.b * g
        x_m = x_m + m
        eta = ((1.0 - half) * eta + g) / (1.0 + half)
        x_mid = x_mid - eta
        max_dev = max(max_dev, abs(x_m - x_mid), abs(m + eta))
    return max_dev
