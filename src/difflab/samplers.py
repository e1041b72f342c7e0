"""Reverse samplers: the generalized (DDIM-family) step, plus momentum and
adaptive-momentum variants operating in the rescaled space x_bar = x / sqrt(alpha).

A ``StepPlan`` holds every per-transition coefficient of one (schedule,
SamplerConfig) pair for one model, the predictor's terms among them, and
``StepRows`` turns plans into one column table of every coefficient
``_step_core`` and the predictor read, which both index by row. The plan owns
the per-transition policy: momentum and second-moment scaling apply on every transition except the
last, and the final step (t_prev == 0) is the plain generalized step with
sigma = 0 for every method, so with alpha(0) = 1 each chain ends on its last
predicted clean sample.

All step math broadcasts over leading batch dimensions. The run loop steps each
stack of S slices of n chains in place, as (S, n, D), each slice on its own
plan's row: a row holds a coefficient once, as a per-slice column only where
the slices' values differ. A stack's state arrays and one ``StepWork`` are its
one buffer set. A step pays for numpy calls more than for arithmetic at the
benchmark's sizes, so the kernel adds no noise term on a noiseless row (every
deterministic row and the last row of any plan), and at D = 1 a momentum row
takes |d x_bar|^2 as one product, with no sum over D and no division by v_div.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EpsTerms, EpsWork, GaussianMixtureModel, analytic_eps

__all__ = [
    "SecondMomentError",
    "ETA_DETERMINISTIC",
    "ETA_DDPM_UNIT",
    "ETA_DDPM_HAT",
    "SamplerConfig",
    "StepPlan",
    "StepRows",
    "ChainState",
    "StepWork",
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
        for name, value in (("b", self.b), ("c", self.c), ("a_override", self.a_override)):
            if name == "a_override" and value is None:
                continue    # no override: the a rule applies
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1]")
        if self.b_schedule not in ("constant", "linear_ramp"):
            raise ValueError(f"unknown b schedule {self.b_schedule!r}")
        if self.a_rule not in ("spherical", "affine"):
            raise ValueError(f"unknown a rule {self.a_rule!r}")
        if isinstance(self.zeta, bool) or not isinstance(self.zeta, numbers.Real) \
                or not self.zeta >= 0.0:    # NaN too
            raise ValueError(f"zeta must be non-negative, a number, not {self.zeta!r}")
        if self.v_norm not in ("mean_sq", "raw_l2sq"):
            raise ValueError(f"unknown v normalization {self.v_norm!r}")

    @classmethod
    def vanilla(cls, eta_mode: str = ETA_DDPM_UNIT, **kw) -> "SamplerConfig":
        return cls(method="vanilla", eta_mode=eta_mode, **kw)

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
    """Per-transition coefficients of one (schedule, SamplerConfig) pair for one
    model, of data dimension D.

    Row k is the k-th reverse step, from t[k] down to t_prev[k]. In x_bar
    space the step's increment is d x_bar = mu eps_hat + noise eps, with
    mu = sqrt(1 - a_prev - sigma^2) / sqrt(a_prev) - sqrt((1 - a_t) / a_t) and
    noise = sigma / sqrt(a_prev). Rows flagged ``plain`` take x_bar + d x_bar;
    the others take the momentum + second-moment update with (a[k], b[k]),
    v <- (1 - c) v + c |d x_bar|^2 / v_div and the step m / (sqrt(v) + zeta).
    The last row takes sigma = 0, in its drift as in its noise: it is the
    deterministic step onto the predicted clean sample (at alpha(0) = 1).
    """

    t: np.ndarray                # (K,) int, from tau[-1] down to tau[0]
    t_prev: np.ndarray           # (K,) int, 0 on the last row
    alpha: np.ndarray            # alpha(t), the predictor's signal level
    sqrt_alpha_prev: np.ndarray  # sqrt(alpha(t_prev))
    mu: np.ndarray               # drift coefficient of eps_hat
    noise: np.ndarray            # coefficient of the noise draw; 0 on the last row
    a: np.ndarray                # momentum coefficients, SamplerConfig.coeffs(k, K)
    b: np.ndarray
    c: np.ndarray                # second-moment weight, SamplerConfig.c
    zeta: np.ndarray             # SamplerConfig.zeta
    v_div: np.ndarray            # D for v_norm "mean_sq", 1 for "raw_l2sq": 1 at D = 1
    plain: np.ndarray            # bool: every row for vanilla, the last row always
    terms: EpsTerms              # the predictor's terms at alpha; sa is sqrt(alpha)

    @property
    def K(self) -> int:
        return int(self.t.size)

    @classmethod
    def build(cls, schedule, config: SamplerConfig,
              model: GaussianMixtureModel) -> "StepPlan":
        """Raises ValueError, naming t, where the eta mode does not fit the
        schedule. The schedule's alphas decrease along tau and alpha(0)
        exceeds them all, so every row has alpha_t < alpha_prev."""
        tau = np.array(schedule.tau)
        t = tau[::-1]
        t_prev = np.concatenate(([0], tau[:-1]))[::-1]
        alphas = np.concatenate(([schedule.alpha_zero], schedule.alphas_cum))  # alphas[t]
        a_t, a_p = alphas[t], alphas[t_prev]
        sig = _sigma_from_alphas(a_t, a_p, config.eta_mode)
        sig[-1] = 0.0       # the final step is noiseless
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
        a, b = config.coeffs(np.arange(t.size), t.size)
        plain = np.full(t.size, config.method == "vanilla")
        plain[-1] = True    # and plain for every method

        def full(value):
            return np.full(t.size, value, dtype=float)
        return cls(t=t, t_prev=t_prev, alpha=a_t, sqrt_alpha_prev=sqrt_a_p,
                   mu=dir_coeff / sqrt_a_p - np.sqrt((1.0 - a_t) / a_t), noise=noise,
                   a=full(a), b=full(b), c=full(config.c), zeta=full(config.zeta),
                   v_div=full(model.D if config.v_norm == "mean_sq" else 1), plain=plain,
                   terms=EpsTerms(model, a_t))


# StepPlan's arrays in a row, each with the trailing axes of its per-slice column
_COEFFS = (("sqrt_alpha_prev", 2), ("mu", 2), ("noise", 2), ("a", 2), ("b", 2),
           ("c", 1), ("zeta", 1), ("v_div", 1))


def _column(arrays, k0: int, k1: int, axes: int = 2):
    """Rows k0..k1-1 of one coefficient of a stack whose slice s holds it over
    its plan's rows in arrays[s]. Where every slice's rows equal the first's
    byte for byte (so 0.0 and -0.0 differ), they are the first's: a list of
    Python floats for a scalar, else its row arrays. Otherwise they are the
    slices' rows stacked, (rows, S, ...), a scalar's with ``axes`` more axes."""
    rows = [array[k0:k1] for array in arrays]
    first = rows[0].tobytes()
    if all(part.tobytes() == first for part in rows[1:]):
        return rows[0].tolist() if rows[0].ndim == 1 else rows[0]
    col = np.stack(rows, axis=1)
    return col.reshape(col.shape + (1,) * axes) if col.ndim == 2 else col


class StepRows:
    """Rows k0..k1-1 (every row by default) of a stack whose slice s has the
    plan plans[s], each plan of at least k1 rows, as one column table indexed
    from 0 that the kernel and the predictor read at row i. Each of k, t,
    t_prev, plain and noisy (noise != 0) is the first slice's, a list over the
    rows: a row serves only slices of one kind. Each of ``StepPlan``'s
    coefficients and each of its terms' ``EpsTerms.names`` (sqrt(alpha) is
    ``sa``) is held once over the rows, as ``_column`` gives it: where every
    slice agrees, a row is one value, a Python float or the terms' row array;
    where they differ, a per-slice column, (S, 1, 1) against the (S, n, D)
    chains, or (S, 1) for c, zeta and v_div against the (S, n) second moments.
    So a run's table is itself the predictor's terms, and a step builds no
    object of its own."""

    def __init__(self, plans, k0: int = 0, k1: int | None = None):
        first = plans[0]
        k1 = first.K if k1 is None else k1
        self.k = range(k0, k1)
        self.t, self.t_prev = first.t[k0:k1].tolist(), first.t_prev[k0:k1].tolist()
        self.plain, self.noisy = first.plain[k0:k1].tolist(), (first.noise[k0:k1] != 0.0).tolist()
        for name, axes in _COEFFS:
            setattr(self, name, _column([getattr(p, name) for p in plans], k0, k1, axes))
        for name in EpsTerms.names:
            setattr(self, name, _column([getattr(p.terms, name) for p in plans], k0, k1))


class ChainState(NamedTuple):
    """Per-chain reverse-trajectory state at step t. ``_step_core`` writes into
    its arrays, a stack's one set of x_bar, m and v buffers."""

    t: int
    x_bar: np.ndarray   # (..., D)
    m: np.ndarray       # (..., D)
    v: np.ndarray       # (...,), scalar second-moment accumulator

    @classmethod
    def init(cls, x_T, rows: StepRows) -> "ChainState":
        """Chains at the step of rows' row 0, from data-space x_T: a plan's
        first row, or a stack's, whose columns give each slice its own plan's
        first row."""
        x_bar = np.asarray(x_T, dtype=float) / rows.sa[0]
        return cls(rows.t[0], x_bar, np.zeros_like(x_bar), np.ones(x_bar.shape[:-1]))


class StepWork:
    """The buffers a stack's steps write into besides its state's arrays, for
    chains of shape (n, D) or a stack (S, n, D): d x_bar, a scratch array, the
    second-moment temporary, two x_{t-1} arrays used in turn (the caller reads
    the previous step's while the next is written) and the predictor's
    ``EpsWork``. A stack's ``slices`` are views of its buffers."""

    def __init__(self, shape, model: GaussianMixtureModel):
        self._views(np.empty(shape), np.empty(shape), np.empty(shape[:-1]),
                    (np.empty(shape), np.empty(shape)), EpsWork(model, shape[:-1]))

    def _views(self, dxb, scratch, sq, x_next, eps_work) -> None:
        self.dxb, self.scratch, self.sq, self.x_next = dxb, scratch, sq, x_next
        self.eps_work = eps_work

    def slices(self, lo: int, hi: int) -> "StepWork":
        """The work of slices lo..hi-1 of a stack: views of this one's buffers."""
        part = object.__new__(StepWork)
        part._views(self.dxb[lo:hi], self.scratch[lo:hi], self.sq[lo:hi],
                    tuple(x[lo:hi] for x in self.x_next), self.eps_work.slices(lo, hi))
        return part


@dataclass
class Trajectory:
    """Recorded reverse trajectories of the first n_rec chains of a run."""

    ts: np.ndarray          # (K,) t after each step (the t_prev labels)
    xs: np.ndarray          # (n_rec, K, D) x_{t-1} per chain and step, data space
    x0_hats: np.ndarray     # (n_rec, K, D) predicted clean sample per chain and step


def _v_error(rows: StepRows, i: int, v) -> SecondMomentError:
    """The error for row i's step, whose v is not positive, naming the settings
    of the first slice whose v is not where the stack has more than one."""
    c, zeta, where = rows.c[i], rows.zeta[i], f"t={rows.t[i]}"
    if v.ndim > 1 and len(v) > 1:     # (S, n): find the slice
        s = int(np.argmax(~(np.min(v, axis=-1) > 0.0)))
        c, zeta = (float(np.broadcast_to(x, (len(v), 1))[s, 0]) for x in (c, zeta))
        where = f"step {rows.k[i]} of stack slice {s}"
    return SecondMomentError(
        f"second-moment accumulator v is not positive at {where} "
        f"(c={c}, zeta={zeta}); with c=1, v is the last "
        "squared increment, which is 0 when the step moves no chain")


def _step_core(state: ChainState, model: GaussianMixtureModel, schedule,
               config: SamplerConfig, eps_noise, rows: StepRows, i: int, work: StepWork):
    """Row i of rows applied to ``state`` in place; returns (new state,
    x_{t-1}, x0_hat, d x_bar). The new state holds state's own arrays, updated,
    and the other three are work's buffers, which later steps overwrite
    (x_{t-1} only every second step).
    """
    # schedule and config are unused here: benchmarks/tracer.py reads them by
    # position, as the schedule and config of the row's first slice
    _, x_bar, m, v = state
    dxb, tmp = work.dxb, work.scratch
    pred = analytic_eps(model, x_bar, None, work.eps_work, rows, i)
    np.multiply(rows.mu[i], pred.eps_hat, out=dxb)
    if rows.noisy[i]:   # a noiseless row adds nothing, and its eps_noise is None
        np.add(dxb, np.multiply(rows.noise[i], eps_noise, out=tmp), out=dxb)

    if rows.plain[i]:
        np.add(x_bar, dxb, out=x_bar)
    else:
        sq, c = work.sq, rows.c[i]
        if dxb.shape[-1] == 1:  # |d x_bar|^2 is one square, and v_div is 1 at D = 1
            np.multiply(dxb[..., 0], dxb[..., 0], out=sq)
        else:
            np.add.reduce(np.multiply(dxb, dxb, out=tmp), axis=-1, out=sq)
            np.divide(sq, rows.v_div[i], out=sq)
        np.add(np.multiply(1.0 - c, v, out=v), np.multiply(c, sq, out=sq), out=v)
        if not np.minimum.reduce(v, axis=None, initial=np.inf) > 0.0:    # NaN too
            raise _v_error(rows, i, v)
        np.add(np.multiply(rows.a[i], m, out=m), np.multiply(rows.b[i], dxb, out=tmp), out=m)
        np.add(np.sqrt(v, out=sq), rows.zeta[i], out=sq)
        np.add(x_bar, np.divide(m, sq[..., None], out=tmp), out=x_bar)

    x_next = np.multiply(rows.sqrt_alpha_prev[i], x_bar, out=work.x_next[rows.k[i] % 2])
    return ChainState(rows.t_prev[i], x_bar, m, v), x_next, pred.x0_hat, dxb
