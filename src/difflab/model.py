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

import numpy as np

__all__ = [
    "GaussianMixtureModel",
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
    # derived once for the predictor: log weights (-inf where 0) and |mu_k|^2
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    mean_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

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
        stored = ((w, "weights"), (mu, "means"), (var, "variances"),
                  (log_w, "log_weights"), (np.sum(mu * mu, axis=1), "mean_sq_norms"))
        for arr, name in stored:
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def D(self) -> int:
        return int(self.means.shape[1])


@dataclass(frozen=True)
class NoisePrediction:
    """Predicted noise and the clean sample it implies."""

    eps_hat: np.ndarray
    x0_hat: np.ndarray


def _marginal_params(gmm: GaussianMixtureModel, alpha: float):
    """Mixture parameters of x_t: the mean scale sqrt(alpha) (means sqrt(alpha) mu_k)
    and the variances alpha var_k + 1 - alpha."""
    sa = np.sqrt(alpha)
    s2 = alpha * gmm.variances + (1.0 - alpha)
    return sa, s2


def _log_joint(gmm, sq, s2):
    """log w_k + log N(x_n; sqrt(alpha) mu_k, s2_k I), shape (K, N), from the
    squared distances sq[k, n] = |x_n - sqrt(alpha) mu_k|^2.

    Components run along axis 0, so reductions over them are contiguous.
    """
    return (gmm.log_weights - 0.5 * gmm.D * (np.log(s2) + _LOG_2PI))[:, None] \
        - 0.5 * sq / s2[:, None]


def _logsumexp(log_p):
    """log(sum_k exp(log_p[k])) over axis 0, with max subtraction."""
    top = np.max(log_p, axis=0)
    return top + np.log(np.sum(np.exp(log_p - top), axis=0))


def _check_alpha(alpha, what: str, clean: bool = False) -> None:
    """Raise ValueError unless 0 < alpha < 1, or alpha = 1 where clean; NaN fails."""
    if not (0.0 < alpha < 1.0 or (clean and alpha == 1.0)):
        raise ValueError(f"{what} needs 0 < alpha {'<=' if clean else '<'} 1, not {alpha!r}")


def analytic_eps(gmm: GaussianMixtureModel, x, alpha: float) -> NoisePrediction:
    """Bayes-optimal noise prediction for the noised mixture marginal at
    cumulative signal level alpha (0 < alpha < 1).

    Equals -sqrt(1 - alpha) times the score of log p_alpha, which is the target a
    perfectly trained eps-predictor converges to. With responsibilities r_k and
    posterior gains g_k = sqrt(alpha) var_k / s2_k, the posterior mean is
    x0_hat = sum_k r_k ((1 - sqrt(alpha) g_k) mu_k + g_k x); point masses are
    the g_k = 0 case.
    """
    _check_alpha(alpha, "analytic_eps")
    x = np.asarray(x, dtype=float)
    sa, s2 = _marginal_params(gmm, alpha)
    xf = x.reshape(-1, gmm.D)                                       # (N, D)
    # |x - sa mu_k|^2 expanded: one matmul, no (K, N, D) difference array
    sq = (np.einsum("nd,nd->n", xf, xf) - (2.0 * sa) * (gmm.means @ xf.T)
          + ((sa * sa) * gmm.mean_sq_norms)[:, None])               # (K, N)
    log_p = _log_joint(gmm, sq, s2)
    # responsibilities: softmax with max subtraction, stable at small alpha
    r = np.exp(log_p - np.max(log_p, axis=0))
    r /= np.sum(r, axis=0)
    gain = sa * gmm.variances / s2                                  # (K,)
    x0_hat = r.T @ ((1.0 - sa * gain)[:, None] * gmm.means) + (gain @ r)[:, None] * xf
    x0_hat = x0_hat.reshape(x.shape)
    eps_hat = (x - sa * x0_hat) / np.sqrt(1.0 - alpha)
    return NoisePrediction(eps_hat=eps_hat, x0_hat=x0_hat)


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
