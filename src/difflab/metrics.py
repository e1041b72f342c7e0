"""Sample-quality metrics for toy distributions, and the (t, x) heatmap grid.

Wasserstein-1 plays the role a feature-space metric would play at image
scale: exact in 1D against the data mixture, sliced in higher dimensions.

scipy is imported only inside the one function that uses it (scipy.special's
normal CDF for smooth-mixture quantiles), so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .files import FLOAT, write_csv
from .model import GaussianMixtureModel

__all__ = [
    "HeatmapGrid",
    "wasserstein1_1d",
    "mixture_quantile",
    "sliced_w1",
    "heatmap_grid",
    "bin_trajectory_points",
    "mode_statistics",
]


def mixture_quantile(gmm: GaussianMixtureModel, u) -> np.ndarray:
    """Inverse CDF of a 1D mixture; exact for pure point mixtures, bisection otherwise."""
    if gmm.D != 1:
        raise ValueError("mixture quantiles are 1D only")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    mus = gmm.means[:, 0]
    sigs = np.sqrt(gmm.variances)
    if np.all(sigs == 0.0):
        order = np.argsort(mus)
        cum = np.cumsum(gmm.weights[order])
        idx = np.searchsorted(cum, u, side="left")
        return mus[order][np.minimum(idx, mus.size - 1)]

    from scipy.special import ndtr

    def cdf(x):
        x = np.asarray(x, dtype=float)
        terms = np.where(
            sigs > 0.0,
            ndtr((x[..., None] - mus) / np.where(sigs > 0.0, sigs, 1.0)),
            (x[..., None] >= mus).astype(float),
        )
        return terms @ gmm.weights

    span = np.max(np.abs(mus)) + 12.0 * max(np.max(sigs), 1.0)
    lo = np.full(u.shape, -span)
    hi = np.full(u.shape, span)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def wasserstein1_1d(samples, mixture: GaussianMixtureModel) -> float:
    """Exact 1D W1 between an empirical sample set and a 1D mixture: matches the
    sorted samples with the mixture's quantiles at levels (i - 0.5) / n."""
    a = np.sort(np.asarray(samples, dtype=float).ravel())
    if a.size == 0:
        raise ValueError("empty sample set")
    n = a.size
    q = mixture_quantile(mixture, (np.arange(1, n + 1) - 0.5) / n)
    return float(np.mean(np.abs(a - q)))


def sliced_w1(samples_a, samples_b, n_projections: int, rng) -> float:
    """Mean 1D W1 over random unit-direction projections of two equal-size
    clouds (D >= 2); each is the mean gap between sorted projections."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError("expected point clouds of equal size and dimension")
    if a.shape[1] < 2:
        raise ValueError("sliced W1 is for D >= 2; use wasserstein1_1d in 1D")
    dirs = rng.standard_normal((n_projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(a @ dirs.T, axis=0)
    pb = np.sort(b @ dirs.T, axis=0)
    return float(np.mean(np.abs(pa - pb)))


@dataclass(frozen=True)
class HeatmapGrid:
    """Occupancy counts of recorded 1D trajectories over (t, x) bins."""

    t_edges: np.ndarray
    x_edges: np.ndarray
    counts: np.ndarray  # (len(t_edges)-1, len(x_edges)-1), int64

    def to_csv(self, path) -> None:
        """Write one row per cell; each edge pair is formatted once."""
        pair = f"{FLOAT},{FLOAT}"
        t_pairs = [pair % p for p in zip(self.t_edges[:-1].tolist(), self.t_edges[1:].tolist())]
        x_pairs = [pair % p for p in zip(self.x_edges[:-1].tolist(), self.x_edges[1:].tolist())]
        write_csv(path, ["t_lo", "t_hi", "x_lo", "x_hi", "count"],
                  (f"{tp},{xp},{c}" for tp, row in zip(t_pairs, self.counts.tolist())
                   for xp, c in zip(x_pairs, row)))


def _uniform_bin(values, edges):
    """Bin index of each value on evenly spaced increasing edges, as
    clip(digitize(values, edges) - 1, 0, len(edges) - 2) gives it.

    The arithmetic guess is off by at most one bin while every edge lies
    within a quarter bin of its evenly spaced position; one comparison on
    each side corrects it. NaN and +inf land in the last bin, -inf in the
    first, as with digitize.
    """
    last = len(edges) - 2
    lo, hi = float(edges[0]), float(edges[-1])
    width = (hi - lo) / (last + 1)
    drift = np.abs(edges - (lo + width * np.arange(last + 2)))
    if not (width > 0.0 and np.max(drift) <= 0.25 * width):
        raise ValueError("bin edges must be evenly spaced and increasing")
    # fmin sends NaN to the last bin; fmax clamps -inf and values below range to 0
    idx = np.fmax(np.fmin((values - lo) / width, last), 0.0).astype(np.intp)
    # outer edges set to NaN: no comparison moves a value out of the end bins
    inner = np.array(edges, dtype=float)
    inner[[0, -1]] = np.nan
    idx -= values < inner[idx]
    idx += values >= inner[1:][idx]
    return idx


def bin_trajectory_points(t, xs, t_edges, x_edges, counts) -> None:
    """Add points xs, which all share the time t, into counts' row for t, in place.

    Edges must be evenly spaced, as np.linspace builds them; values outside
    the edges clip into the first or last bin.
    """
    ti = _uniform_bin(np.float64(t), t_edges)
    xi = _uniform_bin(np.asarray(xs, dtype=float).ravel(), x_edges)
    counts[ti] += np.bincount(xi, minlength=counts.shape[1])


def heatmap_grid(heatmap: dict, t_max: float, D: int) -> HeatmapGrid:
    """The empty grid of a run's heatmap setting {"t_bins", "x_bins", "x_min" = -6,
    "x_max" = 6}, with t over [0, t_max]. The spec reader has checked the types
    and the keys; this raises ValueError naming the field whose value does not fit."""
    t_bins, x_bins, x_min, x_max = {"t_bins": 0, "x_bins": 0, "x_min": -6.0, "x_max": 6.0,
                                    **heatmap}.values()
    for key, bins in (("t_bins", t_bins), ("x_bins", x_bins)):
        if bins < 1:
            raise ValueError(f"heatmap.{key}: must be a positive integer")
    if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
        raise ValueError("heatmap.x_min, heatmap.x_max: need finite x_min < x_max")
    if D != 1:
        raise ValueError(f"heatmap: heatmaps are for 1D runs, not D={D}")
    return HeatmapGrid(t_edges=np.linspace(0.0, float(t_max), t_bins + 1),
                       x_edges=np.linspace(x_min, x_max, x_bins + 1),
                       counts=np.zeros((t_bins, x_bins), dtype=np.int64))


def mode_statistics(samples, modes) -> list[dict]:
    """Nearest-mode assignment fractions and mean absolute deviations."""
    s = np.asarray(samples, dtype=float).ravel()
    m = np.asarray(modes, dtype=float).ravel()
    if m.size == 0:
        raise ValueError("at least one mode required")
    if s.size == 0:
        raise ValueError("empty sample set")
    nearest = np.argmin(np.abs(s[:, None] - m), axis=1)
    out = []
    for k, mode in enumerate(m):
        mask = nearest == k
        n_k = int(mask.sum())
        dev = float(np.mean(np.abs(s[mask] - mode))) if n_k else float("nan")
        out.append({"mode": float(mode), "fraction": n_k / s.size,
                    "count": n_k, "mean_abs_dev": dev})
    return out
