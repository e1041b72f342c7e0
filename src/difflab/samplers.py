"""Reverse samplers: the generalized (DDIM-family) step, plus momentum and
adaptive-momentum variants operating in the rescaled space x_bar = x / sqrt(alpha).

Momentum and second-moment scaling apply on every transition except the last:
the final step (t_prev == 0) is the plain generalized step for every method, so
with alpha(0) = 1 each chain ends on its last predicted clean sample.

All step math broadcasts over leading batch dimensions; a single chain is the
(D,) special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import GaussianMixtureModel, analytic_eps

__all__ = [
    "SecondMomentError",
    "ETA_DETERMINISTIC",
    "ETA_DDPM_UNIT",
    "ETA_DDPM_HAT",
    "SamplerConfig",
    "ChainState",
    "Trajectory",
    "sigma",
    "ddim_step",
    "increment",
    "vanilla_step",
    "adaptive_momentum_step",
    "run_chain",
]

ETA_DETERMINISTIC = "deterministic"   # eta = 0
ETA_DDPM_UNIT = "ddpm_unit"           # eta = 1
ETA_DDPM_HAT = "ddpm_hat"             # eta = sqrt((1-a_t)/(1-a_prev))
_ETA_MODES = (ETA_DETERMINISTIC, ETA_DDPM_UNIT, ETA_DDPM_HAT)

# tolerance for clamping float cancellation in 1 - a_prev - sigma^2
_CLAMP = 1e-12


class SecondMomentError(ArithmeticError):
    """The adaptive sampler's second-moment accumulator v is no longer
    positive (zero or NaN), so m / (sqrt(v) + zeta) is not a scaled step."""


def _sigma_from_alphas(alpha_t: float, alpha_prev: float, eta_mode: str) -> float:
    if alpha_t >= alpha_prev:
        raise ValueError("need alpha_t < alpha_prev (noise must increase with t)")
    step_var = 1.0 - alpha_t / alpha_prev
    if eta_mode == ETA_DETERMINISTIC:
        return 0.0
    if eta_mode == ETA_DDPM_UNIT:
        return math.sqrt((1.0 - alpha_prev) / (1.0 - alpha_t) * step_var)
    if eta_mode == ETA_DDPM_HAT:
        # eta_hat cancels the leading factor, leaving sqrt(1 - a_t/a_prev);
        # at the alpha_zero=1 boundary eta_hat itself is 0/0, resolved as 0
        # so the final step returns the predicted x0.
        if alpha_prev >= 1.0:
            return 0.0
        return math.sqrt(step_var)
    raise ValueError(f"unknown eta mode {eta_mode!r}")


def sigma(schedule, t_hi: int, t_lo: int, eta_mode: str) -> float:
    """Noise scale of the generalized reverse step from t_hi to t_lo."""
    return _sigma_from_alphas(schedule.alpha(t_hi), schedule.alpha(t_lo), eta_mode)


def _dir_coeff(alpha_prev: float, sig: float) -> float:
    """sqrt(1 - alpha_prev - sigma^2), clamping float-level cancellation."""
    val = 1.0 - alpha_prev - sig * sig
    if val < 0.0:
        if val < -_CLAMP:
            raise ValueError(
                f"1 - alpha_prev - sigma^2 = {val} < 0: invalid eta/sigma combination"
            )
        val = 0.0
    return math.sqrt(val)


def predicted_x0(x_t, eps_hat, alpha_t: float) -> np.ndarray:
    return (np.asarray(x_t) - math.sqrt(1.0 - alpha_t) * np.asarray(eps_hat)) / math.sqrt(alpha_t)


def ddim_step(x_t, eps_hat, eps_noise, schedule, t: int, eta_mode: str,
              t_prev: int | None = None) -> np.ndarray:
    """One generalized reverse step in data space.

    x_{t-1} = sqrt(a_prev) x0_hat + sqrt(1 - a_prev - sigma^2) eps_hat + sigma eps_noise
    """
    if t_prev is None:
        t_prev = schedule.prev_t(t)
    a_t = schedule.alpha(t)
    a_p = schedule.alpha(t_prev)
    sig = _sigma_from_alphas(a_t, a_p, eta_mode)
    x0_hat = predicted_x0(x_t, eps_hat, a_t)
    return (
        math.sqrt(a_p) * x0_hat
        + _dir_coeff(a_p, sig) * np.asarray(eps_hat)
        + sig * np.asarray(eps_noise)
    )


def _increment_coeffs(a_t: float, a_p: float, eta_mode: str) -> tuple[float, float]:
    """(mu, noise coefficient) of the x_bar increment."""
    sig = _sigma_from_alphas(a_t, a_p, eta_mode)
    mu = _dir_coeff(a_p, sig) / math.sqrt(a_p) - math.sqrt((1.0 - a_t) / a_t)
    return mu, sig / math.sqrt(a_p)


def increment(x_bar, eps_hat, eps_noise, schedule, t: int, eta_mode: str,
              t_prev: int | None = None) -> np.ndarray:
    """The per-step increment d x_bar; the vanilla update is x_bar + d x_bar."""
    if t_prev is None:
        t_prev = schedule.prev_t(t)
    mu, nc = _increment_coeffs(schedule.alpha(t), schedule.alpha(t_prev), eta_mode)
    return mu * np.asarray(eps_hat) + nc * np.asarray(eps_noise)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the reverse samplers.

    method "vanilla" ignores the momentum fields; "adaptive" runs the
    momentum + second-moment update (plain momentum is the c=0, zeta=0 case)
    on every transition but the last, which is the plain step onto the
    predicted clean sample.
    """

    method: str = "adaptive"
    eta_mode: str = ETA_DDPM_UNIT
    b: float = 0.15
    b_schedule: str = "constant"      # or "linear_ramp": 0 -> b over the chain
    a_rule: str = "spherical"         # a = sqrt(1 - b^2); "affine": a = 1 - b
    a_override: float | None = None   # explicit a, bypassing the rule
    c: float = 0.01
    zeta: float = 1e-8
    v_norm: str = "mean_sq"           # ||dxb||^2 / D; "raw_l2sq" keeps the raw norm
    record_trajectory: bool = False

    def __post_init__(self):
        if self.method not in ("vanilla", "adaptive"):
            raise ValueError(f"unknown sampler method {self.method!r}")
        if self.eta_mode not in _ETA_MODES:
            raise ValueError(f"unknown eta mode {self.eta_mode!r}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")
        if self.b_schedule not in ("constant", "linear_ramp"):
            raise ValueError(f"unknown b schedule {self.b_schedule!r}")
        if self.a_rule not in ("spherical", "affine"):
            raise ValueError(f"unknown a rule {self.a_rule!r}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("c must lie in [0, 1]")
        if self.zeta < 0.0:
            raise ValueError("zeta must be non-negative")
        if self.v_norm not in ("mean_sq", "raw_l2sq"):
            raise ValueError(f"unknown v normalization {self.v_norm!r}")

    @classmethod
    def vanilla(cls, eta_mode: str = ETA_DDPM_UNIT, **kw) -> "SamplerConfig":
        return cls(method="vanilla", eta_mode=eta_mode, **kw)

    @classmethod
    def momentum(cls, b: float, eta_mode: str = ETA_DDPM_UNIT, **kw) -> "SamplerConfig":
        return cls(method="adaptive", eta_mode=eta_mode, b=b, c=0.0, zeta=0.0, **kw)

    def coeffs(self, step_index: int, n_steps: int) -> tuple[float, float]:
        """(a_t, b_t) for the step with 0-based index from the chain start."""
        b_t = self.b
        if self.b_schedule == "linear_ramp" and n_steps > 1:
            b_t = self.b * step_index / (n_steps - 1)
        if self.a_override is not None:
            a_t = self.a_override
        elif self.a_rule == "spherical":
            a_t = math.sqrt(1.0 - b_t * b_t)
        else:
            a_t = 1.0 - b_t
        return a_t, b_t


@dataclass(frozen=True)
class ChainState:
    """Per-chain reverse-trajectory state (value semantics)."""

    t: int
    x_bar: np.ndarray   # (..., D)
    m: np.ndarray       # (..., D)
    v: np.ndarray       # (...,), scalar second-moment accumulator

    @classmethod
    def init(cls, x_T, schedule) -> "ChainState":
        t = schedule.top_t()
        x_T = np.asarray(x_T, dtype=float)
        x_bar = x_T / math.sqrt(schedule.alpha(t))
        return cls(t=t, x_bar=x_bar, m=np.zeros_like(x_bar),
                   v=np.ones(x_bar.shape[:-1]))


@dataclass
class Trajectory:
    """Recorded reverse trajectory of one chain."""

    ts: np.ndarray          # t after each step (t_prev labels), length = steps taken
    xs: np.ndarray          # x_{t-1} per step, data space, (steps, D)
    x0_hats: np.ndarray     # predicted clean sample per step, (steps, D)
    increments: np.ndarray  # d x_bar per step, (steps, D)


def _step_core(state: ChainState, model: GaussianMixtureModel, schedule,
               config: SamplerConfig, eps_noise):
    """Shared step math; returns (new state, x_{t-1}, x0_hat, d x_bar)."""
    t = state.t
    t_prev = schedule.prev_t(t)
    a_t = schedule.alpha(t)
    a_p = schedule.alpha(t_prev)
    x_t = math.sqrt(a_t) * state.x_bar
    pred = analytic_eps(model, x_t, t, schedule)
    mu, nc = _increment_coeffs(a_t, a_p, config.eta_mode)
    dxb = mu * pred.eps_hat + nc * eps_noise

    if config.method == "vanilla" or t_prev == 0:
        # the final transition is the plain step onto the predicted x0
        x_bar_new = state.x_bar + dxb
        m_new, v_new = state.m, state.v
    else:
        sq = np.sum(dxb * dxb, axis=-1)
        if config.v_norm == "mean_sq":
            sq = sq / dxb.shape[-1]
        v_new = (1.0 - config.c) * state.v + config.c * sq
        if not np.all(v_new > 0.0):
            raise SecondMomentError(
                f"second-moment accumulator v is not positive at t={t} "
                f"(c={config.c}, zeta={config.zeta}); with c=1, v is the last "
                "squared increment, which is 0 when the step moves no chain")
        a_coef, b_coef = config.coeffs(schedule.steps_from_top(t), schedule.n_steps)
        m_new = a_coef * state.m + b_coef * dxb
        x_bar_new = state.x_bar + m_new / (np.sqrt(v_new)[..., None] + config.zeta)

    new_state = ChainState(t=t_prev, x_bar=x_bar_new, m=m_new, v=v_new)
    x_next = math.sqrt(a_p) * x_bar_new
    return new_state, x_next, pred.x0_hat, dxb


def _draw_noise(state: ChainState, schedule, rng) -> np.ndarray:
    # Algorithm convention: the noise draw is zeroed on the final step.
    if schedule.prev_t(state.t) == 0:
        return np.zeros_like(state.x_bar)
    return rng.standard_normal(state.x_bar.shape)


def vanilla_step(state: ChainState, model: GaussianMixtureModel, schedule,
                 config: SamplerConfig, rng) -> ChainState:
    """One reverse step of the plain generalized sampler; m and v untouched."""
    cfg = config if config.method == "vanilla" else replace(config, method="vanilla")
    new_state, _, _, _ = _step_core(state, model, schedule, cfg, _draw_noise(state, schedule, rng))
    return new_state

def adaptive_momentum_step(state: ChainState, model: GaussianMixtureModel, schedule,
                           config: SamplerConfig, rng) -> ChainState:
    """One reverse step with momentum and adaptive second-moment scaling."""
    cfg = config if config.method == "adaptive" else replace(config, method="adaptive")
    new_state, _, _, _ = _step_core(state, model, schedule, cfg, _draw_noise(state, schedule, rng))
    return new_state


def run_chain(model: GaussianMixtureModel, schedule, config: SamplerConfig,
              x_T, rng) -> tuple[np.ndarray, Trajectory | None]:
    """Run one full reverse chain from x_T; returns x_0 and optionally its trajectory."""
    state = ChainState.init(x_T, schedule)
    record = config.record_trajectory
    ts, xs, x0s, dxbs = [], [], [], []
    for _ in range(schedule.n_steps):
        eps_noise = _draw_noise(state, schedule, rng)
        state, x_next, x0_hat, dxb = _step_core(state, model, schedule, config, eps_noise)
        if record:
            ts.append(state.t)
            xs.append(x_next)
            x0s.append(x0_hat)
            dxbs.append(dxb)
    traj = None
    if record:
        traj = Trajectory(ts=np.array(ts), xs=np.array(xs),
                          x0_hats=np.array(x0s), increments=np.array(dxbs))
    x0 = math.sqrt(schedule.alpha(0)) * state.x_bar
    return x0, traj
