"""Reverse samplers: the generalized (DDIM-family) step, plus momentum and
adaptive-momentum variants operating in the rescaled space x_bar = x / sqrt(alpha).

A ``StepPlan`` holds every per-transition coefficient of one (schedule,
SamplerConfig) pair, and ``_step_core`` applies one of its rows. The plan owns
the per-transition policy: momentum and second-moment scaling apply on every
transition except the last, and the final step (t_prev == 0) is the plain,
noiseless generalized step for every method, so with alpha(0) = 1 each chain
ends on its last predicted clean sample.

All step math broadcasts over leading batch dimensions; a single chain is the
(D,) special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GaussianMixtureModel, analytic_eps

__all__ = [
    "SecondMomentError",
    "ETA_DETERMINISTIC",
    "ETA_DDPM_UNIT",
    "ETA_DDPM_HAT",
    "SamplerConfig",
    "StepPlan",
    "ChainState",
    "Trajectory",
    "sigma",
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


def _sigma_from_alphas(alpha_t, alpha_prev, eta_mode: str):
    """Noise scale of the generalized reverse step, for alpha_t < alpha_prev;
    floats or arrays of alphas."""
    step_var = 1.0 - alpha_t / alpha_prev
    if eta_mode == ETA_DETERMINISTIC:
        return 0.0 * step_var
    if eta_mode == ETA_DDPM_UNIT:
        return np.sqrt((1.0 - alpha_prev) / (1.0 - alpha_t) * step_var)
    if eta_mode == ETA_DDPM_HAT:
        # eta_hat cancels the leading factor, leaving sqrt(1 - a_t/a_prev);
        # at the alpha_zero=1 boundary eta_hat itself is 0/0, resolved as 0
        # so the final step returns the predicted x0.
        return np.sqrt(step_var) * (alpha_prev < 1.0)
    raise ValueError(f"unknown eta mode {eta_mode!r}")


def sigma(schedule, t_hi: int, t_lo: int, eta_mode: str) -> float:
    """Noise scale of the generalized reverse step from t_hi to t_lo."""
    alpha_t, alpha_prev = schedule.alpha(t_hi), schedule.alpha(t_lo)
    if alpha_t >= alpha_prev:
        raise ValueError("need alpha_t < alpha_prev (noise must increase with t)")
    return float(_sigma_from_alphas(alpha_t, alpha_prev, eta_mode))


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

    def coeffs(self, step_index, n_steps: int) -> tuple:
        """(a_t, b_t) for the step with 0-based index from the chain start;
        elementwise when step_index is an array."""
        b_t = self.b
        if self.b_schedule == "linear_ramp" and n_steps > 1:
            b_t = self.b * step_index / (n_steps - 1)
        if self.a_override is not None:
            a_t = self.a_override
        elif self.a_rule == "spherical":
            a_t = np.sqrt(1.0 - b_t * b_t)
        else:
            a_t = 1.0 - b_t
        return a_t, b_t


@dataclass(frozen=True)
class StepPlan:
    """Per-transition coefficients of one (schedule, SamplerConfig) pair.

    Row k is the k-th reverse step, from t[k] down to t_prev[k]. In x_bar
    space the step's increment is d x_bar = mu eps_hat + noise eps, with
    mu = sqrt(1 - a_prev - sigma^2) / sqrt(a_prev) - sqrt((1 - a_t) / a_t) and
    noise = sigma / sqrt(a_prev). Rows flagged ``plain`` take x_bar + d x_bar;
    the others take the momentum + second-moment update with (a[k], b[k]).
    """

    t: np.ndarray                # (K,) int, from tau[-1] down to tau[0]
    t_prev: np.ndarray           # (K,) int, 0 on the last row
    sqrt_alpha: np.ndarray       # sqrt(alpha(t))
    sqrt_alpha_prev: np.ndarray  # sqrt(alpha(t_prev))
    mu: np.ndarray               # drift coefficient of eps_hat
    noise: np.ndarray            # coefficient of the noise draw; 0 on the last row
    a: np.ndarray                # momentum coefficients, SamplerConfig.coeffs(k, K)
    b: np.ndarray
    plain: np.ndarray            # bool: every row for vanilla, the last row always

    @property
    def K(self) -> int:
        return int(self.t.size)

    @classmethod
    def build(cls, schedule, config: SamplerConfig) -> "StepPlan":
        """Raises ValueError, naming t, where the eta mode does not fit the
        schedule. The schedule's alphas decrease along tau and alpha(0)
        exceeds them all, so every row has alpha_t < alpha_prev."""
        tau = np.array(schedule.tau)
        t = tau[::-1]
        t_prev = np.concatenate(([0], tau[:-1]))[::-1]
        alphas = np.concatenate(([schedule.alpha_zero], schedule.alphas_cum))  # alphas[t]
        a_t, a_p = alphas[t], alphas[t_prev]
        sig = _sigma_from_alphas(a_t, a_p, config.eta_mode)
        dir_sq = 1.0 - a_p - sig * sig
        bad = dir_sq < -_CLAMP
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(
                f"1 - alpha_prev - sigma^2 = {dir_sq[k]:.2g} < 0 at t={t[k]}: "
                f"eta mode {config.eta_mode!r} does not fit this schedule")
        # clamp float-level cancellation
        dir_coeff = np.sqrt(np.where(dir_sq < 0.0, 0.0, dir_sq))
        sqrt_a_p = np.sqrt(a_p)
        noise = sig / sqrt_a_p
        noise[-1] = 0.0     # the final step is noiseless
        a, b = config.coeffs(np.arange(t.size), t.size)
        plain = np.full(t.size, config.method == "vanilla")
        plain[-1] = True    # and plain for every method
        return cls(t=t, t_prev=t_prev, sqrt_alpha=np.sqrt(a_t), sqrt_alpha_prev=sqrt_a_p,
                   mu=dir_coeff / sqrt_a_p - np.sqrt((1.0 - a_t) / a_t), noise=noise,
                   a=np.full(t.size, a, dtype=float), b=np.full(t.size, b, dtype=float),
                   plain=plain)


@dataclass(frozen=True)
class ChainState:
    """Per-chain reverse-trajectory state (value semantics)."""

    t: int
    x_bar: np.ndarray   # (..., D)
    m: np.ndarray       # (..., D)
    v: np.ndarray       # (...,), scalar second-moment accumulator

    @classmethod
    def init(cls, x_T, schedule) -> "ChainState":
        t = schedule.tau[-1]
        x_T = np.asarray(x_T, dtype=float)
        x_bar = x_T / math.sqrt(schedule.alpha(t))
        return cls(t=t, x_bar=x_bar, m=np.zeros_like(x_bar),
                   v=np.ones(x_bar.shape[:-1]))


@dataclass
class Trajectory:
    """Recorded reverse trajectories of the first n_rec chains of a run."""

    ts: np.ndarray          # (K,) t after each step (the t_prev labels)
    xs: np.ndarray          # (n_rec, K, D) x_{t-1} per chain and step, data space
    x0_hats: np.ndarray     # (n_rec, K, D) predicted clean sample per chain and step


def _step_core(state: ChainState, model: GaussianMixtureModel, schedule,
               config: SamplerConfig, eps_noise, plan: StepPlan, k: int):
    """Row k of ``plan`` (built from this schedule and config) applied to
    ``state``; returns (new state, x_{t-1}, x0_hat, d x_bar)."""
    t = int(plan.t[k])
    pred = analytic_eps(model, plan.sqrt_alpha[k] * state.x_bar, t, schedule)
    dxb = plan.mu[k] * pred.eps_hat + plan.noise[k] * eps_noise

    if plan.plain[k]:
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
        m_new = plan.a[k] * state.m + plan.b[k] * dxb
        x_bar_new = state.x_bar + m_new / (np.sqrt(v_new)[..., None] + config.zeta)

    new_state = ChainState(t=int(plan.t_prev[k]), x_bar=x_bar_new, m=m_new, v=v_new)
    return new_state, plan.sqrt_alpha_prev[k] * x_bar_new, pred.x0_hat, dxb
