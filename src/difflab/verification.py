"""Executable verification suite behind the ``verify`` CLI command, and the
numerical consistency checks between the discrete samplers and their
continuous-time counterparts that it runs.

Two families of consistency checks: (i) the eta=1 step against an
Euler-Maruyama discretization of the reverse-time SDE in x_bar space, and (ii)
the sampler's momentum step against a direct midpoint recursion of the damped
second-order system, via the friction mapping a = (2 - lambda)/(2 + lambda),
b = -2/(2 + lambda).

Every check returns a dict {name, passed, observed, expected} so
failures can be enumerated with the values that tripped them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as gm
from .model import EpsTerms, GaussianMixtureModel
from .runner import run_chains
from .samplers import (ETA_DDPM_UNIT, ChainState, SamplerConfig, StepPlan, StepRows, StepWork,
                       _step_core)
from .schedule import linear_beta_schedule

__all__ = [
    "FrictionMapping",
    "drift_consistency",
    "midpoint_equivalence",
    "check_score_consistency",
    "check_drift_identity",
    "check_diffusion_scale",
    "check_midpoint_equivalence",
    "check_degeneracy",
    "run_all_checks",
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
    plan = StepPlan.build(schedule, SamplerConfig.vanilla(ETA_DDPM_UNIT), gmm)  # row T - t
    betas = np.zeros(T)
    drift_mis = np.zeros(T)
    diff_ratio = np.full(T, np.nan)
    sde_ratio = np.full(T, np.nan)
    for t in ts:
        a_t = schedule.alpha(int(t))
        a_p = schedule.alpha(int(t) - 1)
        beta = betas[t - 1] = 1.0 - a_t / a_p
        # points drawn from the exact noised marginal at this step
        x = gm.sample_marginal(gmm, a_t, n_points, rng)
        x_bar = x / math.sqrt(a_t)
        eps_hat = gm.analytic_eps(gmm, x, a_t).eps_hat
        drift_step = plan.mu[T - t] * eps_hat
        # the score of x_bar, by the chain rule through x = sqrt(a_t) x_bar
        score_xbar = np.sqrt(a_t) * gm.score_x(gmm, np.sqrt(a_t) * x_bar, a_t)
        drift_sde = (beta / a_t) * score_xbar
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
        "beta": betas,
        "drift_rel_mismatch": drift_mis,
        "diffusion_ratio": diff_ratio,
        "sde_scale_ratio": sde_ratio,
    }


def _friction_plan(fm: FrictionMapping, n_steps: int, model: GaussianMixtureModel) -> StepPlan:
    """n_steps momentum rows that make the step kernel the bare recursion
    m <- a m + b g, x_bar <- x_bar + m, for a one-chain state whose noise row is
    the forcing g: mu = 0 drops the predictor, noise = 1 passes g through,
    sqrt(alpha_prev) = 1 makes x_{t-1} = x_bar, and c = zeta = 0 keep v at 1.
    Built directly, not through SamplerConfig: the friction mapping's b is
    negative, outside its [0, 1]."""
    def const(value):
        return np.full(n_steps, value, dtype=float)
    t = np.arange(n_steps, 0, -1)
    return StepPlan(t=t, t_prev=t - 1, alpha=const(0.5), sqrt_alpha_prev=const(1.0),
                    mu=const(0.0), noise=const(1.0), a=const(fm.a), b=const(fm.b),
                    c=const(0.0), zeta=const(0.0), v_div=const(1.0),
                    plain=np.zeros(n_steps, dtype=bool), terms=EpsTerms(model, const(0.5)))


def midpoint_equivalence(lam: float, n_steps: int, drift, noise_seq) -> float:
    """Max state deviation between the sampler's momentum step (with the friction
    mapping's a, b) and the direct midpoint recursion on a scalar test problem.

    The momentum side is the step kernel itself, on a friction plan with c = zeta
    = 0, so v stays 1. drift(k) gives the deterministic forcing at step k;
    noise_seq is pre-drawn and shared so the comparison is exact, not statistical.
    """
    fm = FrictionMapping(lam=lam)
    noise_seq = np.asarray(noise_seq, dtype=float)
    if noise_seq.size < n_steps:
        raise ValueError("noise_seq shorter than n_steps")
    # any model will do: mu = 0 cancels its prediction
    model = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])
    rows = StepRows([_friction_plan(fm, n_steps, model)])
    # the momentum path: one chain at rest, stepped in place as a run steps it
    state = ChainState.init(np.zeros((1, 1)), rows)
    work = StepWork((1, 1), model)
    # midpoint path: eta_{t+0.5} = -m, started at rest
    x_mid, eta = 0.0, 0.0
    half = 0.5 * lam
    max_dev = 0.0
    for k in range(n_steps):
        g = float(drift(k)) + float(noise_seq[k])
        state, x_m, _, _ = _step_core(state, model, None, None, np.array([[g]]), rows, k, work)
        eta = ((1.0 - half) * eta + g) / (1.0 + half)
        x_mid = x_mid - eta
        max_dev = max(max_dev, abs(float(x_m[0, 0]) - x_mid), abs(float(state.m[0, 0]) + eta))
    return max_dev


def _result(name, passed, observed, expected) -> dict:
    return {"name": name, "passed": bool(passed), "observed": observed,
            "expected": expected}


def _random_mixture(rng, d: int) -> GaussianMixtureModel:
    """1-3 components whose variances, drawn from [0, 2), are all 0, all one
    value, 0 for the first two only, or all apart: the predictor skips a term
    only where every variance is equal or 0."""
    k = int(rng.integers(1, 4))
    w = rng.uniform(0.2, 1.0, k)
    w /= w.sum()
    means, spread = rng.uniform(-4.0, 4.0, (k, d)), rng.uniform(0.0, 2.0, k)
    kind = ("zero", "equal", "mixed", "apart")[int(rng.integers(0, 4))]
    variances = {"zero": np.zeros(k), "equal": np.full(k, spread[0]),
                 "mixed": np.where(np.arange(k) < 2, 0.0, spread), "apart": spread}[kind]
    return GaussianMixtureModel(weights=w, means=means, variances=variances)


def fd_score_error(gmm, x, a, h: float = 1e-5) -> float:
    """Relative error of analytic_eps at signal level a against -sqrt(1-a) times
    a central-difference gradient of the exact log density."""
    eps_hat = gm.analytic_eps(gmm, x, a).eps_hat
    grad = np.zeros_like(np.asarray(x, dtype=float))
    for d in range(grad.shape[-1]):
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[..., d] += h
        xm[..., d] -= h
        grad[..., d] = (gm.log_density_t(gmm, xp, a)
                        - gm.log_density_t(gmm, xm, a)) / (2 * h)
    target = -math.sqrt(1.0 - a) * grad
    return float(np.linalg.norm(eps_hat - target) / max(np.linalg.norm(target), 1e-8))


def check_score_consistency(n_triples: int = 100, seed: int = 7,
                            tol: float = 1e-5) -> dict:
    rng = np.random.default_rng(seed)
    schedule = linear_beta_schedule(100, 1e-3, 0.05)
    worst = 0.0
    for _ in range(n_triples):
        d = int(rng.integers(1, 4))
        gmm = _random_mixture(rng, d)
        t = int(rng.integers(1, schedule.T + 1))
        x = rng.uniform(-6.0, 6.0, d)
        worst = max(worst, fd_score_error(gmm, x, schedule.alpha(t)))
    return _result("score-consistency", worst < tol, worst, f"< {tol}")


def _toy_two_point() -> GaussianMixtureModel:
    return GaussianMixtureModel(weights=np.array([0.5, 0.5]),
                                means=np.array([[-2.0], [4.0]]),
                                variances=np.array([0.0, 0.0]))


def check_drift_identity(tol: float = 1e-10, seed: int = 11) -> tuple[dict, dict]:
    """Returns (check, per-t report table)."""
    schedule = linear_beta_schedule(1000, 1e-4, 0.02)
    report = drift_consistency(schedule, _toy_two_point(), n_points=8,
                               rng=np.random.default_rng(seed))
    worst = float(np.max(report["drift_rel_mismatch"]))
    return _result("drift-identity", worst < tol, worst, f"< {tol}"), report


def check_diffusion_scale(report: dict, tol: float = 0.02) -> dict:
    """|diffusion ratio - 1| below tol wherever the per-step beta is below tol,
    read off check_drift_identity's per-t report."""
    mask = (report["beta"] < tol) & ~np.isnan(report["diffusion_ratio"])
    worst = float(np.max(np.abs(report["diffusion_ratio"][mask] - 1.0)))
    return _result("diffusion-scale", worst < tol, worst, f"< {tol}")


def check_midpoint_equivalence(tol: float = 1e-12, n_steps: int = 1000,
                               seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    noise = 0.05 * rng.standard_normal(n_steps)
    worst = 0.0
    for lam in (0.0, 0.5, 1.0, 2.0):
        dev = midpoint_equivalence(lam, n_steps,
                                   drift=lambda k: 0.1 * math.sin(0.01 * k),
                                   noise_seq=noise)
        worst = max(worst, dev)
    return _result("midpoint-equivalence", worst < tol, worst, f"< {tol}")


def degenerate_config(eta_mode: str) -> SamplerConfig:
    """Adaptive settings that must reproduce the vanilla sampler exactly."""
    return SamplerConfig(method="adaptive", eta_mode=eta_mode, b=1.0,
                         a_rule="spherical", c=0.0, zeta=0.0)


def check_degeneracy(tol: float = 1e-12, T: int = 50, n_chains: int = 16,
                     seed: int = 5) -> dict:
    gmm = _toy_two_point()
    schedule = linear_beta_schedule(T, 1e-3, 0.05)
    worst = 0.0
    for eta in ("deterministic", "ddpm_unit"):
        van, = run_chains(gmm, (schedule,), (SamplerConfig.vanilla(eta),), n_chains, (seed,))
        ada, = run_chains(gmm, (schedule,), (degenerate_config(eta),), n_chains, (seed,))
        worst = max(worst, float(np.max(np.abs(van.samples - ada.samples))))
    return _result("degeneracy-equivalence", worst <= tol, worst, f"<= {tol}")


def run_all_checks() -> dict:
    """Full verification report; `passed` is the conjunction of every check."""
    drift_check, report = check_drift_identity()
    checks = [
        check_score_consistency(),
        drift_check,
        check_diffusion_scale(report),
        check_midpoint_equivalence(),
        check_degeneracy(),
    ]
    table = {
        "t": report["t"].tolist(),
        "beta": report["beta"].tolist(),
        "drift_rel_mismatch": report["drift_rel_mismatch"].tolist(),
        "diffusion_ratio": [None if np.isnan(v) else float(v)
                            for v in report["diffusion_ratio"]],
        "sde_scale_ratio": [None if np.isnan(v) else float(v)
                            for v in report["sde_scale_ratio"]],
    }
    return {"passed": all(c["passed"] for c in checks), "checks": checks,
            "drift_diffusion_table": table}
