"""Independent references for what a run accumulates in its step loop, for
the metrics' mixture quantiles and for the predictor.

The runner adds each step's total-variation increment and heatmap counts as it
goes; these recompute both from the recorded trajectories after the fact, by a
different route (one norm per recorded step; digitize + np.add.at binning), so
the tests can compare the two bit for bit. The quantile reference bisects a
fixed 200 times, with no early stop. The predictor's terms are written out
at one scalar alpha, the way a call computed them before a run built them over
a whole plan at once, and the predictor itself is written out in its
general-D form: einsum and matmul for the squared distances at every D, and
np.max and np.sum for the softmax. Sliced W1 is written out as it first was,
sorting its projections down strided columns.
"""

import numpy as np
from scipy.special import ndtr

from difflab.metrics import HeatmapGrid
from difflab.model import GaussianMixtureModel
from difflab.samplers import Trajectory

_LOG_2PI = float(np.log(2.0 * np.pi))


def eps_terms_at(gmm: GaussianMixtureModel, alpha: float) -> dict:
    """model.EpsTerms' fields at one alpha, as scalar-alpha expressions."""
    sa = np.sqrt(alpha)
    s2 = alpha * gmm.variances + (1.0 - alpha)
    gain = sa * gmm.variances / s2
    return {"sa": sa, "two_sa": 2.0 * sa, "sa2_mu_sq": (sa * sa) * gmm.mean_sq_norms,
            "log_norm": gmm.log_weights - 0.5 * gmm.D * (np.log(s2) + _LOG_2PI),
            "s2": s2, "gain": gain, "gain_mu": (1.0 - sa * gain)[:, None] * gmm.means,
            "sqrt_1ma": np.sqrt(1.0 - alpha)}


def analytic_eps_general(gmm: GaussianMixtureModel, x, alpha: float) -> tuple:
    """(eps_hat, x0_hat) of model.analytic_eps at one alpha, by the einsum,
    matmul, np.max and np.sum route at every D, operation for operation."""
    t = eps_terms_at(gmm, alpha)
    x = np.asarray(x, dtype=float)
    xf = x.reshape(-1, gmm.D)
    nb, kn = np.empty(xf.shape[0]), np.empty((gmm.n_components, xf.shape[0]))
    np.einsum("nd,nd->n", xf, xf, out=nb)
    np.matmul(gmm.means, xf.T, out=kn)
    np.multiply(t["two_sa"], kn, out=kn)
    np.subtract(nb, kn, out=kn)
    np.add(kn, t["sa2_mu_sq"][:, None], out=kn)
    np.multiply(0.5, kn, out=kn)
    np.divide(kn, t["s2"][:, None], out=kn)
    np.subtract(t["log_norm"][:, None], kn, out=kn)
    np.subtract(kn, np.max(kn, axis=0, out=nb), out=kn)
    np.exp(kn, out=kn)
    np.divide(kn, np.sum(kn, axis=0, out=nb), out=kn)
    x0_hat, eps_hat = np.empty(xf.shape), np.empty(xf.shape)
    np.matmul(kn.T, t["gain_mu"], out=x0_hat)
    gain_r = np.matmul(t["gain"], kn, out=nb)
    np.add(x0_hat, np.multiply(gain_r[:, None], xf, out=eps_hat), out=x0_hat)
    np.multiply(t["sa"], x0_hat, out=eps_hat)
    np.subtract(xf, eps_hat, out=eps_hat)
    np.divide(eps_hat, t["sqrt_1ma"], out=eps_hat)
    return eps_hat.reshape(x.shape), x0_hat.reshape(x.shape)


def sliced_w1_strided(samples_a, samples_b, n_projections: int, rng) -> float:
    """metrics.sliced_w1 as it was first written: both (n, P) projection
    arrays sorted down their columns, and the mean of their gaps."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    dirs = rng.standard_normal((n_projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(a @ dirs.T, axis=0)
    pb = np.sort(b @ dirs.T, axis=0)
    return float(np.mean(np.abs(pa - pb)))


def quantile_200_halvings(gmm: GaussianMixtureModel, u) -> np.ndarray:
    """Inverse CDF of a 1D mixture at levels u: exact for pure point mixtures,
    otherwise 200 halvings of [-span, span] whatever they reach."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    mus = gmm.means[:, 0]
    sigs = np.sqrt(gmm.variances)
    if np.all(sigs == 0.0):
        order = np.argsort(mus)
        idx = np.searchsorted(np.cumsum(gmm.weights[order]), u, side="left")
        return mus[order][np.minimum(idx, mus.size - 1)]

    def cdf(x):
        terms = np.where(sigs > 0.0,
                         ndtr((x[..., None] - mus) / np.where(sigs > 0.0, sigs, 1.0)),
                         (x[..., None] >= mus).astype(float))
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


def trajectory_total_variation(traj: Trajectory) -> np.ndarray:
    """Per-chain sum of step-to-step distances in data space along recorded
    trajectories, (n_rec,). Step lengths are added in step order, as the runner
    adds them.
    """
    pts = np.asarray(traj.xs, dtype=float)
    if pts.size == 0:
        raise ValueError("empty trajectory")
    tv = np.zeros(pts.shape[0])
    for k in range(1, pts.shape[1]):
        tv += np.linalg.norm(pts[:, k] - pts[:, k - 1], axis=-1)
    return tv


def reference_bin(ts, xs, t_edges, x_edges, counts) -> None:
    """Add (t, x) points into counts in place: clipped digitize + np.add.at."""
    def clipped(values, edges):
        return np.clip(np.digitize(values, edges) - 1, 0, len(edges) - 2)
    np.add.at(counts, (clipped(ts, t_edges), clipped(xs, x_edges)), 1)


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
    reference_bin(np.broadcast_to(traj.ts, traj.xs.shape[:2]).ravel(), traj.xs.ravel(),
                  t_edges, x_edges, counts)
    return HeatmapGrid(t_edges=t_edges, x_edges=x_edges, counts=counts)
