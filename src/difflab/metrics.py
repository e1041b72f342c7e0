"""Sample-quality metrics for toy distributions, and the (t, x) heatmap grid.

Wasserstein-1 plays the role a feature-space metric would play at image
scale: in 1D against the data mixture by the midpoint-quantile rule, which
is not the exact W1 (see wasserstein1_1d), sliced in higher dimensions.

The normal CDF under the smooth-mixture quantiles is the C library's erfc, through
Python's math module, so no metric needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import FLOAT, write_csv
from .model import GaussianMixtureModel

__all__ = [
    "HeatmapGrid",
    "wasserstein1_1d",
    "w1_quantiles",
    "mixture_quantile",
    "sliced_w1",
    "heatmap_grid",
    "bin_trajectory_points",
    "mode_statistics",
]


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF, elementwise, as 0.5 * erfc(-a / sqrt(2)) with the
    C library's erfc; NaN stays NaN, -inf and inf give 0 and 1."""
    z = np.multiply(a, -math.sqrt(0.5))
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def mixture_quantile(gmm: GaussianMixtureModel, u) -> np.ndarray:
    """Inverse CDF of a 1D mixture; exact for pure point mixtures, bisection otherwise.

    The bisection halves [lo, hi] at most 200 times and stops at the first
    halving that leaves both unchanged, where mid already equals the end it
    would replace: each halving is a fixed function of (lo, hi, u), so no later
    one could move them.
    """
    if gmm.D != 1:
        raise ValueError("mixture quantiles are 1D only")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((u > 0.0) & (u < 1.0)):     # NaN too
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    mus = gmm.means[:, 0]
    sigs = np.sqrt(gmm.variances)
    if np.all(sigs == 0.0):
        order = np.argsort(mus)
        cum = np.cumsum(gmm.weights[order])
        idx = np.searchsorted(cum, u, side="left")
        return mus[order][np.minimum(idx, mus.size - 1)]

    # x - mus and its scaling run in (K, n) order, each a length-n inner loop
    # where (n, K) order would broadcast over K; the terms go back to (n, K)
    # order for the product with the weights, whose BLAS rounding depends on it
    smooth = sigs > 0.0
    mus_k = mus[:, None]
    scale = np.where(smooth, sigs, 1.0)[:, None]

    def cdf(x):
        terms = np.where(smooth[:, None], _ndtr((x - mus_k) / scale), x >= mus_k)
        return np.ascontiguousarray(terms.T) @ gmm.weights

    span = np.max(np.abs(mus)) + 12.0 * max(np.max(sigs), 1.0)
    lo = np.full(u.shape, -span)
    hi = np.full(u.shape, span)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        if (mid == np.where(below, lo, hi)).all():
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def w1_quantiles(mixture: GaussianMixtureModel, n: int) -> np.ndarray:
    """The 1D mixture's quantiles at levels (i - 0.5) / n, i = 1..n: what
    wasserstein1_1d matches n sorted samples with."""
    return mixture_quantile(mixture, (np.arange(1, n + 1) - 0.5) / n)


def wasserstein1_1d(samples, mixture: GaussianMixtureModel, quantiles=None) -> float:
    """Midpoint-quantile 1D W1 between an empirical sample set and a 1D
    mixture: the mean of |a_(i) - Q((i - 0.5) / n)| over the sorted samples
    a_(i), Q the mixture's quantile function, or with the given quantiles,
    w1_quantiles(mixture, n) computed once for many sets. The exact W1 is the
    integral of |F_n - F|; on three sets of 512 draws from a smooth
    two-component mixture this rule read 0.2-1.7% below it."""
    a = np.sort(np.asarray(samples, dtype=float).ravel())
    if a.size == 0:
        raise ValueError("empty sample set")
    q = w1_quantiles(mixture, a.size) if quantiles is None else quantiles
    if q.shape != a.shape:
        raise ValueError(f"{q.size} quantiles for {a.size} samples")
    return float(np.mean(np.abs(a - q)))


# rows per projection product: at D <= 16 a block of up to 255 rows stays under
# the 2**19 multiply-adds at which numpy's OpenBLAS wakes a helper thread
_BLOCK_ROWS = 128


def sliced_w1(samples_a, samples_b, n_projections: int, rng) -> float:
    """Mean 1D W1 over random unit-direction projections of two equal-size
    clouds (D >= 2); each is the mean gap between sorted projections.

    The n_projections directions are normal draws from rng scaled to unit
    length. Each cloud is projected in blocks of 128 rows, the last block
    taking the remainder (128-255 rows), and each block's product is written
    transposed into a (P, n) array whose rows, one projection each, are
    sorted in place. The float is that of one (n, D) @ (D, P) product sorted
    down its columns: blocks of at least 128 rows give its bytes, where a
    separate short tail block would not.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError("expected point clouds of equal size and dimension")
    if a.shape[1] < 2:
        raise ValueError("sliced W1 is for D >= 2; use wasserstein1_1d in 1D")
    dirs = rng.standard_normal((n_projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n = a.shape[0]
    starts = [*range(0, max(n // _BLOCK_ROWS, 1) * _BLOCK_ROWS, _BLOCK_ROWS)]
    blocks = list(zip(starts, starts[1:] + [n]))
    pa, pb = np.empty((n_projections, n)), np.empty((n_projections, n))
    for x, p in ((a, pa), (b, pb)):
        for lo, hi in blocks:
            p[:, lo:hi] = np.matmul(x[lo:hi], dirs.T).T
        p.sort(axis=-1)
    gaps = np.abs(np.subtract(pa, pb, out=pa), out=pa)
    # the mean sums the gaps in (n, P) C order, as it did over the column sort;
    # pb's buffer is free to hold them
    by_row = pb.reshape(n, n_projections)
    for lo, hi in blocks:
        by_row[lo:hi] = gaps[:, lo:hi].T
    return float(np.mean(by_row))


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

    def rows(self, ts) -> np.ndarray:
        """The counts row of each time in ts; times outside the t edges clip to the end rows."""
        return _uniform_bin(np.asarray(ts, dtype=float), self.t_edges)


def _uniform_bin(values, edges):
    """Bin index of each value on strictly increasing np.linspace edges, as
    clip(digitize(values, edges) - 1, 0, len(edges) - 2) gives it.

    On such edges the arithmetic guess is off by at most one bin; one
    comparison on each side corrects it. NaN and +inf land in the last bin,
    -inf in the first, as with digitize.
    """
    last = len(edges) - 2
    lo = edges[0]
    width = (edges[-1] - lo) / (last + 1)
    # fmin sends NaN to the last bin; fmax clamps -inf and values below range to 0
    idx = np.fmax(np.fmin((values - lo) / width, last), 0.0).astype(np.intp)
    idx -= values < edges[idx]
    idx += values >= edges[idx + 1]
    np.minimum(idx, last, out=idx)
    return np.maximum(idx, 0, out=idx)


def bin_trajectory_points(grid: HeatmapGrid, row: int, xs, counts) -> None:
    """Add points xs into the given row of counts, shaped as grid.counts, in place;
    x outside the edges, NaN and +-inf clip into the first or last bin."""
    xi = _uniform_bin(np.asarray(xs, dtype=float).ravel(), grid.x_edges)
    counts[row] += np.bincount(xi, minlength=counts.shape[1])


def heatmap_grid(heatmap: dict, t_max: float, D: int) -> HeatmapGrid:
    """The empty grid of a run's heatmap setting {"t_bins", "x_bins", "x_min" = -6,
    "x_max" = 6}, with t over [0, t_max]. The spec reader has checked the types
    and the keys; this raises ValueError naming the field whose value does not fit."""
    t_bins, x_bins, x_min, x_max = {"t_bins": 0, "x_bins": 0, "x_min": -6.0, "x_max": 6.0,
                                    **heatmap}.values()
    for key, bins in (("t_bins", t_bins), ("x_bins", x_bins)):
        if bins < 1:
            raise ValueError(f"heatmap.{key}: must be a positive integer")
    if not (x_min < x_max and np.isfinite(x_max - x_min)):
        raise ValueError("heatmap.x_min, heatmap.x_max: need x_min < x_max at a finite distance")
    if D != 1:
        raise ValueError(f"heatmap: heatmaps are for 1D runs, not D={D}")
    x_edges = np.linspace(x_min, x_max, x_bins + 1)
    # _uniform_bin needs increasing edges; t's over [0, t_max >= 1] increase up to 4e15 bins
    if not np.all(np.diff(x_edges) > 0.0):
        raise ValueError(f"heatmap.x_min, heatmap.x_max: {x_bins} bins finer than float spacing")
    return HeatmapGrid(t_edges=np.linspace(0.0, float(t_max), t_bins + 1),
                       x_edges=x_edges, counts=np.zeros((t_bins, x_bins), dtype=np.int64))


def mode_statistics(samples, modes) -> list[dict]:
    """Nearest-mode assignment fractions and mean absolute deviations; a mode
    no sample is nearest to has mean_abs_dev None, which JSON writes as null."""
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
        dev = float(np.mean(np.abs(s[mask] - mode))) if n_k else None
        out.append({"mode": float(mode), "fraction": n_k / s.size,
                    "count": n_k, "mean_abs_dev": dev})
    return out
