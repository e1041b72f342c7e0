"""Gaussian-mixture toy data with a closed-form optimal noise predictor.

A mixture with per-component isotropic variances admits exact posterior
algebra under the forward noising x_t = sqrt(alpha_t) x_0 + sqrt(1-alpha_t) eps,
so the Bayes-optimal noise prediction (the limit of a perfectly trained
denoiser) is available in closed form. Zero variances are allowed and give
point masses. Every function takes the cumulative signal level alpha; which
alpha a timestep has is the schedule's business, not the model's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GaussianMixtureModel",
    "EpsTerms",
    "EpsWork",
    "NoisePrediction",
    "analytic_eps",
    "log_density_t",
    "sample_marginal",
    "score_x",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianMixtureModel:
    weights: np.ndarray     # (K,), non-negative, sums to 1
    means: np.ndarray       # (K, D)
    variances: np.ndarray   # (K,), isotropic per component, >= 0
    # derived once for the predictor: log weights (-inf where 0), |mu_k|^2, 2 mu_k, skip rules
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    mean_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    two_means: np.ndarray = field(init=False, repr=False, compare=False)
    one_variance: bool = field(init=False, repr=False, compare=False)
    point_masses: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.asarray(self.means, dtype=float)
        if mu.ndim == 1:
            mu = mu[:, None]
        var = np.atleast_1d(np.asarray(self.variances, dtype=float))
        if mu.ndim != 2 or mu.shape[0] != w.size or var.shape != w.shape:
            raise ValueError("weights, means and variances must agree on the component count")
        for arr, name in ((w, "weights"), (mu, "means"), (var, "variances")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite (no NaN or inf)")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.any(var < 0.0):
            raise ValueError("variances must be non-negative")
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        stored = ((w, "weights"), (mu, "means"), (var, "variances"), (log_w, "log_weights"),
                  (np.sum(mu * mu, axis=1), "mean_sq_norms"), (2.0 * mu, "two_means"))
        for arr, name in stored:
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "one_variance", bool(np.all(var == var[0])))
        object.__setattr__(self, "point_masses", not np.any(var))

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def D(self) -> int:
        return int(self.means.shape[1])


class NoisePrediction(NamedTuple):
    """Predicted noise and the clean sample it implies."""

    eps_hat: np.ndarray
    x0_hat: np.ndarray


def _marginal_params(gmm: GaussianMixtureModel, alpha: float):
    """Mixture parameters of x_t: the mean scale sqrt(alpha) (means sqrt(alpha) mu_k)
    and the variances alpha var_k + 1 - alpha."""
    sa = np.sqrt(alpha)
    s2 = alpha * gmm.variances + (1.0 - alpha)
    return sa, s2


def _log_norm(gmm, s2):
    """log w_k - (D/2)(log s2_k + log 2 pi): the x-free part of log_joint's terms."""
    return gmm.log_weights - 0.5 * gmm.D * (np.log(s2) + _LOG_2PI)


def _log_joint(gmm, sq, s2):
    """log w_k + log N(x_n; sqrt(alpha) mu_k, s2_k I), shape (K, N), from the
    squared distances sq[k, n] = |x_n - sqrt(alpha) mu_k|^2.

    Components run along axis 0, so reductions over them are contiguous.
    """
    return _log_norm(gmm, s2)[:, None] - 0.5 * sq / s2[:, None]


def _logsumexp(log_p):
    """log(sum_k exp(log_p[k])) over axis 0, with max subtraction."""
    top = np.max(log_p, axis=0)
    return top + np.log(np.sum(np.exp(log_p - top), axis=0))


def _check_alpha(alpha, what: str, clean: bool = False) -> None:
    """Raise ValueError unless 0 < alpha < 1, or alpha = 1 where clean; NaN fails."""
    if not (0.0 < alpha < 1.0 or (clean and alpha == 1.0)):
        raise ValueError(f"{what} needs 0 < alpha {'<=' if clean else '<'} 1, not {alpha!r}")


class EpsTerms:
    """``analytic_eps``'s alpha-only terms at each of alphas (each 0 < alpha < 1),
    one row per alpha: everything a call computes before it looks at x. One
    vectorized pass builds them, so a run builds them once per plan row, not
    once per call; each term is the same operations on the same operands as
    at one alpha. Each of ``names`` is an attribute over the rows, which a
    call at row i reads at [i]; a stack's ``StepRows`` holds the same names,
    where a row of a term its slices differ on is a per-slice column.

    They fold the predictor's per-row constants in x_bar = x / sqrt(alpha). With
    s2_k = alpha var_k + 1 - alpha, log w_k + log N(x; sqrt(alpha) mu_k, s2_k I) is
    c0_k + lin_k . x_bar - h_k |x_bar|^2, where h_k = alpha / (2 s2_k),
    c0_k = log w_k - (D/2) log(2 pi s2_k) - h_k |mu_k|^2 and lin_k = alpha mu_k / s2_k;
    component k's posterior mean is m_k + q_k x_bar, with q_k = alpha var_k / s2_k
    and m_k = (1 - q_k) mu_k; and kappa = sqrt(alpha) / sqrt(1 - alpha)."""

    names = ("sa", "c0", "lin", "h", "m", "q", "kappa")

    def __init__(self, gmm: GaussianMixtureModel, alphas):
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        bad = alphas[~((alphas > 0.0) & (alphas < 1.0))]
        if bad.size:
            _check_alpha(float(bad[0]), "analytic_eps")
        a = alphas[:, None]
        sa, s2 = _marginal_params(gmm, a)                         # (R, 1), (R, K)
        h = a / (2.0 * s2)
        q = a * gmm.variances / s2
        # a row of a stack's per-slice column has the shape given after the ";"
        self.sa = sa[:, 0]                                        # sqrt(alpha); (S, 1, 1)
        # (R, K, 1): a row's (K, 1) broadcasts over the points; (S, K, 1)
        self.c0 = (_log_norm(gmm, s2) - h * gmm.mean_sq_norms)[:, :, None]
        self.h = h[:, :, None]
        self.lin = (a / s2)[:, :, None] * gmm.means               # (R, K, D); (S, K, D)
        self.m = (1.0 - q)[:, :, None] * gmm.means
        self.q = q[:, None, :]                                    # (R, 1, K); (S, 1, K)
        self.kappa = self.sa / np.sqrt(1.0 - alphas)              # (S, 1, 1)


class EpsWork:
    """The arrays that predictions for points of shape ``points`` (n, or a
    stack (S, n) of S sets of n) write into; each call overwrites the previous
    call's eps_hat and x0_hat. A stack's ``slices`` are views of its arrays,
    so calls on runs of its slices fill one set of buffers.

    Components sit on axis -2 of the (..., K, n) buffer, just before the
    points, so one reduction over them serves a stack as it serves one set."""

    def __init__(self, gmm: GaussianMixtureModel, points):
        points = (points if isinstance(points, tuple) else (points,)) or (1,)  # () is one point
        self._views(np.empty(points),           # |x_bar|^2, then column max, sum, q @ r
                    np.empty(points[:-1] + (gmm.n_components, points[-1])),   # log p, r
                    np.empty(points + (gmm.D,)), np.empty(points + (gmm.D,)))

    def _views(self, n_buf, kn_buf, x0_hat, eps_hat) -> None:
        self.n_buf, self.kn_buf, self.x0_hat, self.eps_hat = n_buf, kn_buf, x0_hat, eps_hat
        # n_buf's views against the (..., K, n) buffer and the (..., n, D) points
        self.n_col, self.n_row = n_buf[..., None, :], n_buf[..., None]

    def slices(self, lo: int, hi: int) -> "EpsWork":
        """The work of slices lo..hi-1 of a stack: views of this one's arrays."""
        part = object.__new__(EpsWork)
        part._views(self.n_buf[lo:hi], self.kn_buf[lo:hi], self.x0_hat[lo:hi],
                    self.eps_hat[lo:hi])
        return part


def analytic_eps(gmm: GaussianMixtureModel, x, alpha: float,
                 work: EpsWork | None = None, terms: EpsTerms | None = None,
                 i: int = 0) -> NoisePrediction:
    """Bayes-optimal noise prediction for the noised mixture marginal at
    cumulative signal level alpha (0 < alpha < 1), at data-space points x.

    Equals -sqrt(1 - alpha) times the score of log p_alpha, which is the target a
    perfectly trained eps-predictor converges to. It runs in x_bar = x / sqrt(alpha)
    on ``EpsTerms``' folded terms: with responsibilities r_k, x0_hat is
    sum_k r_k m_k + (sum_k r_k q_k) x_bar and eps_hat = kappa (x_bar - x0_hat). The
    model alone decides two skips: of the quadratic term where every component has
    one variance (``gmm.one_variance``: one h_k cancels in the softmax), and of x0_hat's
    x_bar term where every component is a point mass (``gmm.point_masses``: q = 0).

    With work, x holds work's points in x_bar, (n, D) or a stack (S, n, D), row
    i of terms holds the terms at alpha (alpha itself is unused), and the call
    writes into work's arrays, allocating none. terms is an ``EpsTerms`` or a
    stack's ``StepRows``, whose row may hold per-slice columns, so that each
    slice has its own alpha. Every (n, D) slice gets the bytes it would get
    alone: the products are stacked matmuls, which run BLAS on each slice, and
    the reductions run over the component axis.
    """
    if work is None:
        _check_alpha(alpha, "analytic_eps")
        work, terms, i = EpsWork(gmm, np.size(x) // gmm.D), EpsTerms(gmm, [alpha]), 0
        x = np.divide(x, terms.sa[0], dtype=float)     # also converts x to an array
    x0_hat, eps_hat = work.x0_hat, work.eps_hat
    shape = x0_hat.shape                                            # (..., n, D)
    xf = x if x.shape == shape else x.reshape(shape)
    nb, kn = work.n_buf, work.kn_buf
    # single products at D = 1 give matmul's bits, up to a zero's sign, which the next call drops
    product = np.multiply if shape[-1] == 1 else np.matmul
    if gmm.one_variance:                                            # log p = c0 + lin . x_bar
        product(terms.lin[i], xf.mT, out=kn)
        np.add(kn, terms.c0[i], out=kn)
    else:                               # c0 - h (|x_bar|^2 - 2 mu . x_bar): no (K, n) temporary
        product(gmm.two_means, xf.mT, out=kn)
        np.einsum("...d,...d->...", xf, xf, out=nb)
        np.subtract(work.n_col, kn, out=kn)
        np.multiply(terms.h[i], kn, out=kn)
        np.subtract(terms.c0[i], kn, out=kn)                        # (..., K, n)
    # responsibilities: softmax with max subtraction, stable at small alpha;
    # the ufunc reductions are np.max and np.sum without their wrappers
    np.maximum.reduce(kn, axis=-2, out=nb)
    np.subtract(kn, work.n_col, out=kn)
    np.exp(kn, out=kn)
    np.add.reduce(kn, axis=-2, out=nb)
    np.divide(kn, work.n_col, out=kn)
    np.matmul(kn.mT, terms.m[i], out=x0_hat)
    if not gmm.point_masses:
        np.matmul(terms.q[i], kn, out=work.n_col)                   # q @ r
        np.add(x0_hat, np.multiply(work.n_row, xf, out=eps_hat), out=x0_hat)
    np.subtract(xf, x0_hat, out=eps_hat)
    np.multiply(terms.kappa[i], eps_hat, out=eps_hat)
    if x.shape != shape:
        return NoisePrediction(eps_hat.reshape(x.shape), x0_hat.reshape(x.shape))
    return NoisePrediction(eps_hat, x0_hat)


def log_density_t(gmm: GaussianMixtureModel, x, alpha: float) -> np.ndarray:
    """Exact log density of the noised marginal at cumulative signal level
    alpha (0 < alpha <= 1; alpha = 1 is the clean density)."""
    _check_alpha(alpha, "log_density_t", clean=True)
    sa, s2 = _marginal_params(gmm, alpha)
    if np.any(s2 <= 0.0):
        raise ValueError("density undefined: zero-variance component with no noise added")
    x = np.asarray(x, dtype=float)
    # direct differences: the expanded square of analytic_eps cancels digits
    # where s2 is small, and this function is off the per-step path
    diff = x.reshape(-1, gmm.D) - sa * gmm.means[:, None, :]       # (K, N, D)
    log_p = _log_joint(gmm, np.sum(diff * diff, axis=-1), s2)
    return _logsumexp(log_p).reshape(x.shape[:-1])[()]


def sample_marginal(gmm: GaussianMixtureModel, alpha: float, n: int, rng) -> np.ndarray:
    """n exact draws of x_t at cumulative alpha, shape (n, D); alpha = 1 draws
    clean data. Each draw picks a component, then adds its scaled Gaussian noise."""
    comps = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    sa, s2 = _marginal_params(gmm, alpha)
    # scale before gathering: no (n, D) array beyond what the unscaled draw needs
    return (sa * gmm.means)[comps] + np.sqrt(s2)[comps, None] * rng.standard_normal((n, gmm.D))


def score_x(gmm: GaussianMixtureModel, x, alpha: float) -> np.ndarray:
    """Gradient of log p_alpha with respect to x (data space), 0 < alpha < 1."""
    return -analytic_eps(gmm, x, alpha).eps_hat / np.sqrt(1.0 - alpha)
