"""Diffusion noise schedules and timestep respacing.

Convention: timesteps are 1-based, t = 1..T. ``alpha(t)`` is the cumulative
signal fraction prod_{i<=t}(1 - beta_i); ``alpha(0)`` is the configurable
boundary value used for the final reverse step (1 by default, so that step
returns the predicted clean sample exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .files import FLOAT, write_csv

__all__ = [
    "NoiseSchedule",
    "linear_beta_schedule",
    "respace",
    "RESPACE_MODES",
]

RESPACE_MODES = ("uniform", "quadratic")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates, their cumulative signal products (derived from
    the rates), and the increasing timestep subsequence ``tau`` that the
    reverse sampler visits.

    The full schedule is tau = (1, ..., T); ``respace`` picks a shorter tau
    over the same arrays, so every alpha is an exact read of ``alphas_cum``.
    """

    betas: np.ndarray          # shape (T,), betas[t-1] = beta_t
    alpha_zero: float = 1.0
    tau: tuple | None = None   # 1-based, strictly increasing, ends at T; None = 1..T
    alphas_cum: np.ndarray = field(init=False)   # alphas_cum[t-1] = prod_{i<=t}(1-beta_i)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1D sequence")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("every beta_t must lie strictly inside (0, 1)")
        alphas = np.cumprod(1.0 - betas)
        object.__setattr__(self, "alphas_cum", alphas)
        # a tiny beta can round 1 - beta, or the product, back to its last value
        if np.any(np.diff(alphas) >= 0.0):
            raise ValueError("alphas_cum must be strictly decreasing")
        if not (alphas[0] < self.alpha_zero <= 1.0):
            raise ValueError("alpha_zero must lie in (alpha_1, 1]")
        betas.flags.writeable = False
        alphas.flags.writeable = False

        T = betas.size
        if self.tau is None:
            tau = tuple(range(1, T + 1))
        else:
            tau = tuple(np.asarray(self.tau, dtype=np.int64).tolist())
            if len(tau) == 0:
                raise ValueError("tau must be non-empty")
            if np.any(np.diff(tau) <= 0):
                raise ValueError("tau must be strictly increasing")
            if tau[0] < 1 or tau[-1] != T:
                raise ValueError("tau must lie in [1, T] and end at T")
        object.__setattr__(self, "tau", tau)

    @cached_property
    def _index(self) -> dict:
        """Position of each timestep in tau."""
        return dict(zip(self.tau, range(len(self.tau))))

    @property
    def T(self) -> int:
        return int(self.betas.size)

    def alpha(self, t: int) -> float:
        """Cumulative alpha at timestep t in tau; alpha(0) is the boundary value."""
        if t == 0:
            return float(self.alpha_zero)
        if t not in self._index:
            raise ValueError(f"timestep {t} is not in the schedule's subsequence")
        return float(self.alphas_cum[t - 1])

    def prev_t(self, t: int) -> int:
        """The timestep the reverse step from t lands on (0 after tau[0])."""
        k = self._index.get(t)
        if k is None:
            raise ValueError(f"timestep {t} is not in the schedule's subsequence")
        return self.tau[k - 1] if k > 0 else 0

    def to_csv(self, path) -> None:
        """All T rates of the full schedule, whatever the subsequence."""
        fmt = f"%d,{FLOAT},{FLOAT}"
        write_csv(path, ["t", "beta", "alpha_cum"],
                  (fmt % row for row in zip(range(1, self.T + 1), self.betas.tolist(),
                                            self.alphas_cum.tolist())))


# benchmarks/tracer.py wraps both names; this alias keeps traced runs working.
RespacedSchedule = NoiseSchedule


def linear_beta_schedule(T: int, beta_start: float, beta_end: float,
                         alpha_zero: float = 1.0) -> NoiseSchedule:
    """Linearly interpolated betas from beta_start to beta_end inclusive."""
    if T < 1:
        raise ValueError("T must be a positive integer")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, T)
    return NoiseSchedule(betas=betas, alpha_zero=alpha_zero)


def respace(schedule: NoiseSchedule, K: int | None, mode: str = "uniform") -> NoiseSchedule:
    """Select K timesteps out of T, always including T; K None keeps all T (mode still checked)."""
    if mode not in RESPACE_MODES:
        raise ValueError(f"respace_mode must be one of {RESPACE_MODES}, not {mode!r}")
    T = schedule.T
    if K is None:
        return schedule
    if not 1 <= K <= T:
        raise ValueError(f"K={K} outside [1, T={T}]")
    if mode == "uniform":
        tau = [(k * T) // K for k in range(1, K + 1)]
    else:
        raw = [max(1, round(T * (k / K) ** 2)) for k in range(1, K + 1)]
        raw[-1] = T
        # repair collisions from rounding while keeping the endpoint fixed
        for k in range(K - 2, -1, -1):
            raw[k] = min(raw[k], raw[k + 1] - 1)
        for k in range(K):
            raw[k] = max(raw[k], k + 1)
        tau = raw
    return replace(schedule, tau=tuple(tau))
