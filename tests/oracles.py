"""Independent references for what a run accumulates in its step loop, for
the metrics' mixture quantiles and for the predictor.

The runner adds each step's total-variation increment and heatmap counts as it
goes; these recompute both from the recorded trajectories after the fact, by a
different route (one norm per recorded step; digitize + np.add.at binning), so
the tests can compare the two bit for bit. The quantile reference bisects a
fixed 200 times, with no early stop, on difflab's normal CDF, the C library's
erfc, which test_metrics holds to scipy's ndtr. The predictor's terms are
written out at one scalar alpha, the way a call computed them before a run
built them over a whole plan at once, and the predictor itself is written out
in its general-D form: einsum and matmul for the squared distances at every D, and
np.max and np.sum for the softmax. Sliced W1 is written out as it first was,
sorting its projections down strided columns. The reference sampler steps one
chain at a time in Python floats, from the paper's update and the mixture
posterior, sharing no code with the run's plans, rows, kernel or predictor.
"""

import math

import numpy as np
from difflab.metrics import HeatmapGrid, _ndtr
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
            "two_s2": 2.0 * s2, "gain": gain, "gain_mu": (1.0 - sa * gain)[:, None] * gmm.means,
            "sqrt_1ma": np.sqrt(1.0 - alpha)}


def analytic_eps_general(gmm: GaussianMixtureModel, x, alpha: float) -> tuple:
    """(eps_hat, x0_hat) of model.analytic_eps at one alpha, by the einsum,
    matmul, np.max and np.sum route at every D, operation for operation, but
    for the log joint's 0.5 sq / s2, which it halves and divides unfused."""
    t = eps_terms_at(gmm, alpha)
    s2 = alpha * gmm.variances + (1.0 - alpha)
    x = np.asarray(x, dtype=float)
    xf = x.reshape(-1, gmm.D)
    nb, kn = np.empty(xf.shape[0]), np.empty((gmm.n_components, xf.shape[0]))
    np.einsum("nd,nd->n", xf, xf, out=nb)
    np.matmul(gmm.means, xf.T, out=kn)
    np.multiply(t["two_sa"], kn, out=kn)
    np.subtract(nb, kn, out=kn)
    np.add(kn, t["sa2_mu_sq"][:, None], out=kn)
    np.multiply(0.5, kn, out=kn)
    np.divide(kn, s2[:, None], out=kn)
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
                         _ndtr((x[..., None] - mus) / np.where(sigs > 0.0, sigs, 1.0)),
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


def _posterior(gmm: GaussianMixtureModel, x: list, alpha: float) -> tuple:
    """(eps_hat, x0_hat) of one point x in data space at signal level alpha, as
    the exact posterior means under the mixture, in Python floats."""
    sa, D = math.sqrt(alpha), len(x)
    logs, parts = [], []
    for w, mu, s2 in zip(gmm.weights.tolist(), gmm.means.tolist(), gmm.variances.tolist()):
        var = alpha * s2 + (1.0 - alpha)         # x | k ~ N(sqrt(alpha) mu_k, var I)
        diff = [xd - sa * md for xd, md in zip(x, mu)]
        logs.append(math.log(w) - 0.5 * D * math.log(2.0 * math.pi * var)
                    - sum(d * d for d in diff) / (2.0 * var))
        parts.append(([math.sqrt(1.0 - alpha) * d / var for d in diff],
                      [md + sa * s2 / var * d for md, d in zip(mu, diff)]))
    top = max(logs)
    weights = [math.exp(lg - top) for lg in logs]
    total = sum(weights)
    return tuple([sum(r * part[j][d] for r, part in zip(weights, parts)) / total
                  for d in range(D)] for j in (0, 1))


def reference_chains(gmm: GaussianMixtureModel, schedule, config, seed: int, n: int) -> tuple:
    """(samples (n, D), tv (n,), xs (n, K, D), x0_hats (n, K, D)) of chains
    0..n-1, each stepped alone in Python floats. Chain i's noise is
    np.random.default_rng([seed, i]): x_T, then one row per step.

    A step from t to t_prev, with a = alpha(t) and p = alpha(t_prev), moves
    x_bar = x / sqrt(a) by d = mu eps_hat + sigma / sqrt(p) z, where
    mu = sqrt(1 - p - sigma^2) / sqrt(p) - sqrt((1 - a) / a); vanilla steps,
    and every method's last step, add d, and the others update
    v <- (1 - c) v + c |d|^2 / v_div, m <- a_k m + b_k d and add
    m / (sqrt(v) + zeta). The chain then sits at x_{t-1} = sqrt(p) x_bar, and
    tv adds up its distance from the step before."""
    D = gmm.means.shape[1]
    ts = list(schedule.tau)[::-1]
    K = len(ts)
    samples, tvs, xs, x0_hats = [], [], [], []
    for i in range(n):
        noise = np.random.default_rng([seed, i]).standard_normal((K + 1, D)).tolist()
        x_bar = [z / math.sqrt(schedule.alpha(ts[0])) for z in noise[0]]
        m, v, tv, path, preds = [0.0] * D, 1.0, 0.0, [], []
        for k, t in enumerate(ts):
            last = k == K - 1
            a, p = schedule.alpha(t), schedule.alpha(0 if last else ts[k + 1])
            if config.eta_mode == "deterministic" or last:
                sig = 0.0
            elif config.eta_mode == "ddpm_unit":
                sig = math.sqrt((1.0 - p) / (1.0 - a) * (1.0 - a / p))
            else:   # ddpm_hat: its eta cancels to sqrt(1 - a/p), and 0 at p = 1
                sig = math.sqrt(1.0 - a / p) if p < 1.0 else 0.0
            mu = math.sqrt(max(1.0 - p - sig * sig, 0.0)) / math.sqrt(p) \
                - math.sqrt((1.0 - a) / a)
            eps_hat, x0_hat = _posterior(gmm, [math.sqrt(a) * xb for xb in x_bar], a)
            d = [mu * e + sig / math.sqrt(p) * z for e, z in zip(eps_hat, noise[k + 1])]
            if config.method == "vanilla" or last:
                x_bar = [xb + dd for xb, dd in zip(x_bar, d)]
            else:
                b = config.b * k / (K - 1) if config.b_schedule == "linear_ramp" and K > 1 \
                    else config.b
                a_k = math.sqrt(1.0 - b * b) if config.a_rule == "spherical" else 1.0 - b
                if config.a_override is not None:
                    a_k = config.a_override
                v_div = D if config.v_norm == "mean_sq" else 1
                v = (1.0 - config.c) * v + config.c * sum(dd * dd for dd in d) / v_div
                m = [a_k * md + b * dd for md, dd in zip(m, d)]
                x_bar = [xb + md / (math.sqrt(v) + config.zeta) for xb, md in zip(x_bar, m)]
            x = [math.sqrt(p) * xb for xb in x_bar]
            if path:
                tv += math.sqrt(sum((u - w) ** 2 for u, w in zip(x, path[-1])))
            path.append(x)
            preds.append(x0_hat)
        samples.append(path[-1])
        tvs.append(tv)
        xs.append(path)
        x0_hats.append(preds)
    shape = (n, K, D)
    return (np.array(samples).reshape(n, D), np.array(tvs), np.array(xs).reshape(shape),
            np.array(x0_hats).reshape(shape))
