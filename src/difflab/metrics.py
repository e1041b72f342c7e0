"""Sample-quality and trajectory-smoothness metrics for toy distributions.

Wasserstein-1 plays the role a feature-space metric would play at image
scale: exact in 1D, sliced in higher dimensions. Trajectory total variation
operationalizes "trembling" as the summed step-to-step distance.

scipy is imported only inside the functions that still use it (normal CDFs for
smooth-mixture quantiles, and W1 between empirical sets of unequal size), so
importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GaussianMixtureModel
from .samplers import Trajectory

__all__ = [
    "HeatmapGrid",
    "wasserstein1_1d",
    "mixture_quantile",
    "sliced_w1",
    "trajectory_total_variation",
    "heatmap_grid",
    "build_heatmap",
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

    from scipy.stats import norm

    def cdf(x):
        x = np.asarray(x, dtype=float)
        terms = np.where(
            sigs > 0.0,
            norm.cdf((x[..., None] - mus) / np.where(sigs > 0.0, sigs, 1.0)),
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


def wasserstein1_1d(samples_a, samples_b) -> float:
    """Exact 1D W1: empirical vs empirical, or empirical vs an exact mixture.

    Against a mixture, matches empirical quantiles at levels (i - 0.5) / n.
    """
    a = np.asarray(samples_a, dtype=float).ravel()
    if a.size == 0:
        raise ValueError("empty sample set")
    if isinstance(samples_b, GaussianMixtureModel):
        n = a.size
        u = (np.arange(1, n + 1) - 0.5) / n
        q = mixture_quantile(samples_b, u)
        return float(np.mean(np.abs(np.sort(a) - q)))
    b = np.asarray(samples_b, dtype=float).ravel()
    if b.size == 0:
        raise ValueError("empty sample set")
    from scipy.stats import wasserstein_distance

    return float(wasserstein_distance(a, b))


def sliced_w1(samples_a, samples_b, n_projections: int, rng) -> float:
    """Mean 1D W1 over random unit-direction projections (D >= 2)."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("expected point clouds of matching dimension")
    if a.shape[1] < 2:
        raise ValueError("sliced W1 is for D >= 2; use wasserstein1_1d in 1D")
    dirs = rng.standard_normal((n_projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if a.shape[0] == b.shape[0]:
        # equal sizes: 1D W1 is the mean gap between sorted projections
        pa = np.sort(a @ dirs.T, axis=0)
        pb = np.sort(b @ dirs.T, axis=0)
        return float(np.mean(np.abs(pa - pb)))
    from scipy.stats import wasserstein_distance

    vals = [wasserstein_distance(a @ d, b @ d) for d in dirs]
    return float(np.mean(vals))


def trajectory_total_variation(traj: Trajectory, space: str = "x",
                               schedule=None) -> np.ndarray:
    """Per-chain sum of step-to-step distances along recorded trajectories, (n_rec,).

    Step lengths are added in step order, as the runner adds them. space "x"
    measures in data space; "x_bar" rescales each point by 1/sqrt(alpha_t)
    first (requires the schedule used for the run).
    """
    pts = np.asarray(traj.xs, dtype=float)
    if pts.size == 0:
        raise ValueError("empty trajectory")
    if space == "x_bar":
        if schedule is None:
            raise ValueError("x_bar total variation requires the schedule")
        alphas = np.array([schedule.alpha(int(t)) for t in traj.ts])
        pts = pts / np.sqrt(alphas)[:, None]
    elif space != "x":
        raise ValueError(f"unknown space {space!r}")
    tv = np.zeros(pts.shape[0])
    for k in range(1, pts.shape[1]):
        tv += np.linalg.norm(pts[:, k] - pts[:, k - 1], axis=-1)
    return tv


@dataclass(frozen=True)
class HeatmapGrid:
    """Occupancy counts of recorded 1D trajectories over (t, x) bins."""

    t_edges: np.ndarray
    x_edges: np.ndarray
    counts: np.ndarray  # (len(t_edges)-1, len(x_edges)-1), int64

    def to_csv(self, path) -> None:
        """Write one row per cell; bytes match csv.writer with ".17g" floats."""
        t = self.t_edges.tolist()
        x_pairs = ["%.17g,%.17g" % pair
                   for pair in zip(self.x_edges[:-1].tolist(), self.x_edges[1:].tolist())]
        with open(path, "w", newline="") as fh:
            fh.write("t_lo,t_hi,x_lo,x_hi,count\r\n")
            for i, row in enumerate(self.counts.tolist()):
                t_pair = "%.17g,%.17g," % (t[i], t[i + 1])
                fh.write("".join([f"{t_pair}{xp},{c}\r\n" for xp, c in zip(x_pairs, row)]))


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


def bin_trajectory_points(ts, xs, t_edges, x_edges, counts) -> None:
    """Accumulate (t, x) points into an existing counts matrix in place; ts is
    one t per point, or a scalar t that every point shares.

    Edges must be evenly spaced, as np.linspace builds them; values outside
    the edges clip into the first or last bin.
    """
    ti = _uniform_bin(np.asarray(ts, dtype=float), t_edges)
    xi = _uniform_bin(np.asarray(xs, dtype=float).ravel(), x_edges)
    flat = ti * counts.shape[1] + xi
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)


def heatmap_grid(heatmap: dict, t_max: float, D: int) -> HeatmapGrid:
    """The empty grid of a run's heatmap setting {"t_bins", "x_bins", "x_min" = -6,
    "x_max" = 6}, with t over [0, t_max]; raises ValueError naming the field at fault."""
    value = {"t_bins": 0, "x_bins": 0, "x_min": -6.0, "x_max": 6.0}   # type and default
    for key, raw in heatmap.items():
        if key not in value:
            raise ValueError(f"heatmap.{key}: unknown field")
        try:
            value[key] = type(value[key])(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"heatmap.{key}: {exc}") from exc
    t_bins, x_bins, x_min, x_max = value.values()
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


def build_heatmap(traj: Trajectory, t_bins: int, x_bins: int,
                  x_range: tuple[float, float] = (-6.0, 6.0),
                  t_range: tuple[float, float] | None = None) -> HeatmapGrid:
    """Histogram recorded 1D trajectories over (t, x); out-of-range x clips into edge bins."""
    if traj.xs.shape[0] == 0:
        raise ValueError("no trajectories given")
    if traj.xs.shape[-1] != 1:
        raise ValueError("heatmaps are for 1D trajectories")
    if t_range is None:
        t_range = (0.0, float(np.max(traj.ts)) + 1.0)
    t_edges = np.linspace(t_range[0], t_range[1], t_bins + 1)
    x_edges = np.linspace(x_range[0], x_range[1], x_bins + 1)
    counts = np.zeros((t_bins, x_bins), dtype=np.int64)
    bin_trajectory_points(np.broadcast_to(traj.ts, traj.xs.shape[:2]).ravel(), traj.xs,
                          t_edges, x_edges, counts)
    return HeatmapGrid(t_edges=t_edges, x_edges=x_edges, counts=counts)


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
