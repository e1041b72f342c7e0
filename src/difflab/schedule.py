"""Diffusion noise schedules and timestep respacing.

Convention: timesteps are 1-based, t = 1..T. ``alpha(t)`` is the cumulative
signal fraction prod_{i<=t}(1 - beta_i); ``alpha(0)`` is the configurable
boundary value used for the final reverse step (1 by default, so that step
returns the predicted clean sample exactly).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "NoiseSchedule",
    "linear_beta_schedule",
    "respace",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates, their cumulative signal products, and the
    increasing timestep subsequence ``tau`` that the reverse sampler visits.

    The full schedule is tau = (1, ..., T); ``respace`` picks a shorter tau
    over the same arrays, so every alpha is an exact read of ``alphas_cum``.
    """

    betas: np.ndarray          # shape (T,), betas[t-1] = beta_t
    alphas_cum: np.ndarray     # shape (T,), alphas_cum[t-1] = prod_{i<=t}(1-beta_i)
    alpha_zero: float = 1.0
    tau: tuple | None = None   # 1-based, strictly increasing, ends at T; None = 1..T

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        alphas = np.asarray(self.alphas_cum, dtype=float)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas_cum", alphas)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1D sequence")
        if alphas.shape != betas.shape:
            raise ValueError("alphas_cum must match betas in length")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("every beta_t must lie strictly inside (0, 1)")
        if np.any(np.diff(alphas) >= 0.0):
            raise ValueError("alphas_cum must be strictly decreasing")
        expected = np.cumprod(1.0 - betas)
        if not np.allclose(alphas, expected, rtol=1e-12, atol=0.0):
            raise ValueError("alphas_cum is inconsistent with the running product of (1 - beta)")
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

    @property
    def K(self) -> int:
        """Number of reverse transitions, one per element of tau."""
        return len(self.tau)

    def beta(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} outside [1, {self.T}]")
        return float(self.betas[t - 1])

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "beta", "alpha_cum"])
            for t in range(1, self.T + 1):
                writer.writerow([t, format(self.beta(t), ".17g"),
                                 format(float(self.alphas_cum[t - 1]), ".17g")])


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
    alphas = np.cumprod(1.0 - betas)
    return NoiseSchedule(betas=betas, alphas_cum=alphas, alpha_zero=alpha_zero)


def respace(schedule: NoiseSchedule, K: int, mode: str = "uniform") -> NoiseSchedule:
    """Select K timesteps out of T, always including T itself."""
    T = schedule.T
    if not 1 <= K <= T:
        raise ValueError(f"K={K} outside [1, T={T}]")
    if mode == "uniform":
        tau = [(k * T) // K for k in range(1, K + 1)]
    elif mode == "quadratic":
        raw = [max(1, round(T * (k / K) ** 2)) for k in range(1, K + 1)]
        raw[-1] = T
        # repair collisions from rounding while keeping the endpoint fixed
        for k in range(K - 2, -1, -1):
            raw[k] = min(raw[k], raw[k + 1] - 1)
        for k in range(K):
            raw[k] = max(raw[k], k + 1)
        tau = raw
    else:
        raise ValueError(f"unknown respacing mode {mode!r}")
    return replace(schedule, tau=tuple(tau))
