"""Analytic mixture model: forward noising, exact densities, and the
closed-form optimal noise predictor."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

from difflab.model import EpsTerms, EpsWork, GaussianMixtureModel, analytic_eps, log_density_t
from difflab.schedule import linear_beta_schedule
from oracles import exact_posterior


def two_point():
    return GaussianMixtureModel(weights=np.array([0.5, 0.5]),
                                means=np.array([[-2.0], [4.0]]),
                                variances=np.array([0.0, 0.0]))


def smooth_mix(d=1):
    return GaussianMixtureModel(weights=np.array([0.3, 0.7]),
                                means=np.array([[-1.5] * d, [2.0] * d]),
                                variances=np.array([0.25, 0.5]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        GaussianMixtureModel(weights=[0.4, 0.4], means=[[0.0], [1.0]],
                             variances=[1.0, 1.0])        # weights don't sum to 1
    with pytest.raises(ValueError):
        GaussianMixtureModel(weights=[-0.5, 1.5], means=[[0.0], [1.0]],
                             variances=[1.0, 1.0])        # negative weight
    with pytest.raises(ValueError):
        GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[-1.0])
    with pytest.raises(ValueError):
        GaussianMixtureModel(weights=[0.5, 0.5], means=[[0.0]], variances=[1.0, 1.0])
    nan, inf = float("nan"), float("inf")
    # non-finite parameters: a NaN weight passes both the sign and the sum check
    for weights, means, variances in (
            ([nan, 1.0], [[0.0], [1.0]], [1.0, 1.0]),
            ([0.5, 0.5], [[0.0], [1e400]], [1.0, 1.0]),
            ([0.5, 0.5], [[0.0], [-inf]], [1.0, 1.0]),
            ([0.5, 0.5], [[0.0], [nan]], [1.0, 1.0]),
            ([0.5, 0.5], [[0.0], [1.0]], [inf, 1.0]),
            ([0.5, 0.5], [[0.0], [1.0]], [1.0, nan])):
        with pytest.raises(ValueError, match="finite"):
            GaussianMixtureModel(weights=weights, means=means, variances=variances)


def test_1d_means_promoted_to_column():
    gmm = GaussianMixtureModel(weights=[1.0], means=[3.0], variances=[0.5])
    assert gmm.means.shape == (1, 1)
    assert gmm.D == 1
    assert gmm.n_components == 1


def test_noised_mixture_parameters():
    # x_t is the mixture with the same weights, means sqrt(a) mu_k and
    # variances a var_k + 1 - a: its clean (alpha=1) density is the alpha density
    gmm = smooth_mix()
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    t = 60
    a = sched.alpha(t)
    noised = GaussianMixtureModel(weights=gmm.weights, means=np.sqrt(a) * gmm.means,
                                  variances=a * gmm.variances + (1 - a))
    x = np.linspace(-5.0, 5.0, 41)[:, None]
    assert np.allclose(log_density_t(noised, x, 1.0),
                       log_density_t(gmm, x, a), rtol=1e-14, atol=0.0)


def test_log_density_single_gaussian_exact():
    gmm = GaussianMixtureModel(weights=[1.0], means=[[1.0]], variances=[0.25])
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    t = 30
    a = sched.alpha(t)
    var = a * 0.25 + (1 - a)
    x = np.array([0.7])
    expected = -0.5 * (x[0] - np.sqrt(a)) ** 2 / var - 0.5 * np.log(2 * np.pi * var)
    assert log_density_t(gmm, x, a) == pytest.approx(expected, rel=1e-12)


def test_log_density_normalizes(seed=0):
    # trapezoid integral of exp(log p_t) over a wide grid is ~1
    gmm = smooth_mix()
    sched = linear_beta_schedule(200, 5e-4, 0.1)
    xs = np.linspace(-15, 15, 20001)[:, None]
    for t in (1, 50, 200):
        dens = np.exp(log_density_t(gmm, xs, sched.alpha(t)))
        assert np.trapezoid(dens.ravel(), xs.ravel()) == pytest.approx(1.0, abs=1e-6)


def test_analytic_eps_single_gaussian_closed_form():
    # one Gaussian component: eps_hat = sqrt(1-a) (x - sqrt(a) mu) / (a v + 1 - a)
    mu, v = 1.0, 0.25
    gmm = GaussianMixtureModel(weights=[1.0], means=[[mu]], variances=[v])
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    rng = np.random.default_rng(1)
    for t in (1, 25, 100):
        a = sched.alpha(t)
        x = rng.uniform(-5, 5, (8, 1))
        pred = analytic_eps(gmm, x, a)
        expected = np.sqrt(1 - a) * (x - np.sqrt(a) * mu) / (a * v + (1 - a))
        assert np.allclose(pred.eps_hat, expected, rtol=1e-12, atol=1e-14)
        # x0_hat and eps_hat satisfy the forward identity
        recon = np.sqrt(a) * pred.x0_hat + np.sqrt(1 - a) * pred.eps_hat
        assert np.allclose(recon, x, rtol=0, atol=1e-12)


def test_analytic_eps_matches_finite_difference_score():
    # eps_hat = -sqrt(1-a) * d/dx log p_t, checked by central differences
    gmm = smooth_mix(d=2)
    sched = linear_beta_schedule(100, 1e-3, 0.05)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        t = int(rng.integers(1, 101))
        a = sched.alpha(t)
        x = rng.uniform(-4, 4, 2)
        grad = np.zeros(2)
        for d in range(2):
            xp, xm = x.copy(), x.copy()
            xp[d] += h
            xm[d] -= h
            grad[d] = (log_density_t(gmm, xp, a)
                       - log_density_t(gmm, xm, a)) / (2 * h)
        eps_hat = analytic_eps(gmm, x, a).eps_hat
        target = -np.sqrt(1 - a) * grad
        assert np.linalg.norm(eps_hat - target) < 1e-5 * max(np.linalg.norm(target), 1e-8)


def test_analytic_eps_point_masses_stable_at_extreme_t():
    gmm = two_point()
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    x = np.array([[-300.0], [300.0], [0.5]])
    pred = analytic_eps(gmm, x, sched.alpha(1000))
    assert np.all(np.isfinite(pred.eps_hat))
    assert np.all(np.isfinite(pred.x0_hat))
    # far in a basin the posterior mean collapses onto that point mass
    assert pred.x0_hat[0, 0] == pytest.approx(-2.0, abs=1e-4)
    assert pred.x0_hat[1, 0] == pytest.approx(4.0, abs=1e-4)


def test_analytic_eps_rejects_alpha_one():
    # the predictor needs some noise and some signal: 0 < alpha < 1, NaN refused
    gmm = two_point()
    for alpha in (1.0, 0.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="analytic_eps needs 0 < alpha < 1"):
            analytic_eps(gmm, np.array([0.0]), alpha)


@pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
def test_log_density_rejects_alpha_outside_0_1(alpha):
    with pytest.raises(ValueError, match="log_density_t needs 0 < alpha <= 1"):
        log_density_t(smooth_mix(), np.array([0.0]), alpha)


def test_log_density_at_alpha_one_is_the_clean_density():
    gmm = smooth_mix()
    x = np.linspace(-4.0, 4.0, 9)[:, None]
    var = gmm.variances
    dens = gmm.weights * np.exp(-0.5 * (x - gmm.means[:, 0]) ** 2 / var) \
        / np.sqrt(2 * np.pi * var)
    assert np.allclose(log_density_t(gmm, x, 1.0), np.log(dens.sum(axis=1)),
                       rtol=1e-13, atol=0.0)


def test_batched_inputs_broadcast():
    gmm = smooth_mix(d=3)
    sched = linear_beta_schedule(50, 1e-3, 0.05)
    x = np.random.default_rng(5).uniform(-3, 3, (4, 7, 3))
    pred = analytic_eps(gmm, x, sched.alpha(20))
    assert pred.eps_hat.shape == (4, 7, 3)
    single = analytic_eps(gmm, x[2, 3], sched.alpha(20))
    assert np.allclose(pred.eps_hat[2, 3], single.eps_hat)


def _reference_eps(gmm, x, a):
    """The broadcast formula: (..., K, D) differences and scipy's logsumexp."""
    sa, s2 = np.sqrt(a), a * gmm.variances + (1.0 - a)
    diff = x[..., None, :] - sa * gmm.means
    sq = np.sum(diff * diff, axis=-1)
    log_w = np.where(gmm.weights > 0.0,
                     np.log(np.where(gmm.weights > 0.0, gmm.weights, 1.0)), -np.inf)
    log_p = log_w - 0.5 * sq / s2 - 0.5 * gmm.D * (np.log(s2) + np.log(2.0 * np.pi))
    r = np.exp(log_p - logsumexp(log_p, axis=-1, keepdims=True))
    gain = sa * gmm.variances / s2
    x0_hat = np.sum(r[..., None] * (gmm.means + gain[:, None] * diff), axis=-2)
    return (x - sa * x0_hat) / np.sqrt(1.0 - a), x0_hat, logsumexp(log_p, axis=-1)


@pytest.mark.parametrize("D", [1, 16])
@pytest.mark.parametrize("K", [1, 2, 8])
@pytest.mark.parametrize("point_masses", [False, True])
def test_analytic_eps_matches_broadcast_reference(D, K, point_masses):
    rng = np.random.default_rng(100 * D + 10 * K + point_masses)
    sched = linear_beta_schedule(100, 1e-4, 0.05)
    for trial in range(4):
        w = rng.uniform(0.1, 1.0, K)
        if K > 1 and trial % 2:
            w[0] = 0.0                                   # a zero-weight component
        dirs = rng.standard_normal((K, D))
        means = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) \
            * rng.uniform(0.0, 100.0, (K, 1))            # |mu| up to 100
        variances = np.zeros(K) if point_masses else rng.uniform(0.0, 4.0, K)
        if not point_masses and K > 1:
            variances[-1] = 0.0                          # one point mass in the mix
        gmm = GaussianMixtureModel(weights=w / w.sum(), means=means, variances=variances)
        for t in range(1, sched.T + 1):
            a = sched.alpha(t)
            comp = rng.integers(0, K, 64)
            x = np.sqrt(a) * means[comp] + np.sqrt(1.0 - a) * rng.standard_normal((64, D))
            # points between two components, where the responsibilities split
            lam = rng.uniform(0.0, 1.0, (8, 1))
            x[:8] = np.sqrt(a) * (lam * means[comp[:8]] + (1.0 - lam) * means[comp[8:16]])
            pred = analytic_eps(gmm, x, a)
            eps_ref, x0_ref, log_dens_ref = _reference_eps(gmm, x, a)
            assert np.max(np.abs(pred.eps_hat - eps_ref)) <= 1e-9
            assert np.max(np.abs(pred.x0_hat - x0_ref)) <= 1e-9
            if not point_masses:
                got = log_density_t(gmm, x, a)
                assert np.allclose(got, log_dens_ref, rtol=1e-9, atol=1e-9)


_ALPHAS = np.array([1e-5, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6])


def _variances(kind: str, K: int, rng) -> np.ndarray:
    """All 0, all one value, the first two 0 (so one variance differs whenever
    K > 2) or all drawn apart."""
    spread = rng.uniform(0.1, 2.0, K)
    return {"zero": np.zeros(K), "equal": np.full(K, spread[0]),
            "mixed": np.where(np.arange(K) < 2, 0.0, spread), "apart": spread}[kind]


@pytest.mark.parametrize("D", [1, 2, 16])
@pytest.mark.parametrize("K", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["zero", "equal", "mixed", "apart"])
def test_predictor_is_within_1e_11_of_the_exact_posterior(D, K, kind):
    # the public call, the work path from x_bar row by row, and one stack whose
    # rows are per-slice columns, one slice per alpha, against the posterior in
    # 40-digit decimals. The error of each point's eps_hat and x0_hat is taken
    # relative to the exact vector's largest coordinate, or to 1 where that is
    # smaller: near alpha = 1 a smooth component's eps_hat is about
    # sqrt(1 - alpha) in size, and kappa (x_bar - x0_hat) is a difference of
    # nearly equal terms, so eps_hat's error relative to itself reaches 1e-6
    # there (it did before the terms were folded too). Measured worst: 2.8e-12
    # for eps_hat at alpha = 1 - 1e-6 and 3e-14 for x0_hat, over 50 points a
    # case; the bound is 1e-11
    rng = np.random.default_rng([D, K, len(kind)])
    w = rng.uniform(0.1, 1.0, K)
    means = rng.uniform(-5.0, 5.0, (K, D))
    means[0, 0] = -0.0
    gmm = GaussianMixtureModel(weights=w / w.sum(), means=means,
                               variances=_variances(kind, K, rng))
    sa = np.sqrt(_ALPHAS)[:, None, None]
    comp = rng.integers(0, K, (_ALPHAS.size, 6))
    x = sa * means[comp] + np.sqrt(1.0 - _ALPHAS)[:, None, None] \
        * rng.standard_normal((_ALPHAS.size, 6, D))
    x = np.concatenate([x, np.zeros((_ALPHAS.size, 1, D)), np.full((_ALPHAS.size, 1, D), -0.0),
                        rng.normal(0.0, 3.0, (_ALPHAS.size, 2, D))], axis=1)
    terms, work = EpsTerms(gmm, _ALPHAS), EpsWork(gmm, x.shape[1])
    columns = SimpleNamespace(**{name: [value[:, None, None] if value.ndim == 1 else value]
                                 for name, value in vars(terms).items()})
    stacked = analytic_eps(gmm, x / sa, None, EpsWork(gmm, x.shape[:2]), columns, 0)
    for row, alpha in enumerate(_ALPHAS.tolist()):
        want = exact_posterior(gmm, x[row], alpha)
        for pred in (analytic_eps(gmm, x[row], alpha),
                     analytic_eps(gmm, x[row] / terms.sa[row], None, work, terms, row),
                     (stacked.eps_hat[row], stacked.x0_hat[row])):
            for got, exact in zip(pred, want):
                scale = np.maximum(np.max(np.abs(exact), axis=-1), 1.0)
                assert np.all(np.max(np.abs(got - exact), axis=-1) <= 1e-11 * scale), alpha
