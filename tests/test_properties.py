"""Property tests on random schedules, mixtures and sampler settings."""

import copy
import json
import math
from dataclasses import fields, replace
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, event, example, given, settings
from hypothesis import strategies as st

import difflab.runner as runner
from difflab.config import RunSpec, SpecError
from difflab.metrics import bin_trajectory_points, heatmap_grid, mixture_quantile, sliced_w1
from difflab.model import EpsTerms, EpsWork, GaussianMixtureModel, analytic_eps
from difflab.runner import _block_noise, run_chains
from difflab.samplers import StepPlan, SamplerConfig, StepRows
from difflab.schedule import NoiseSchedule, linear_beta_schedule, respace

from conftest import run_one, unit_gaussian
from oracles import (analytic_eps_general, eps_terms_at, quantile_200_halvings, reference_bin,
                     reference_chains, sliced_w1_strided)

ETA_MODES = ("deterministic", "ddpm_unit", "ddpm_hat")
# few examples, the same ones on every run, and nothing written to disk
_FEW = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@st.composite
def full_schedules(draw, max_T=60, flat=False):
    """A linear-beta schedule; with flat, sometimes with constant betas and
    alpha_zero below 1 (ddpm_hat fits only such schedules or coarsely
    respaced ones)."""
    T = draw(st.integers(1, max_T))
    beta_start = draw(st.floats(1e-4, 0.2))
    beta_end = beta_start if flat and draw(st.booleans()) else draw(st.floats(beta_start, 0.3))
    alpha_zero = 1.0
    if flat and draw(st.booleans()):
        alpha_zero = draw(st.floats(np.sqrt(1.0 - beta_start), 1.0))
    return linear_beta_schedule(T, beta_start, beta_end, alpha_zero)


@st.composite
def schedules(draw, max_T=60, flat=False):
    """A full_schedules schedule, sometimes respaced."""
    sched = draw(full_schedules(max_T, flat))
    if draw(st.booleans()):
        sched = respace(sched, draw(st.integers(1, sched.T)),
                        draw(st.sampled_from(("uniform", "quadratic"))))
    return sched


@st.composite
def configs(draw, eta_modes=ETA_MODES):
    return SamplerConfig(method=draw(st.sampled_from(("vanilla", "adaptive"))),
                         eta_mode=draw(st.sampled_from(eta_modes)),
                         b=draw(st.floats(0.0, 1.0)),
                         b_schedule=draw(st.sampled_from(("constant", "linear_ramp"))),
                         c=draw(st.floats(0.0, 0.5)))


@st.composite
def mixtures(draw, D=None):
    """A mixture of 1-3 components in D dimensions, 1 or 2 unless given."""
    D = draw(st.integers(1, 2)) if D is None else D
    k = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    means = draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=D, max_size=D),
                          min_size=k, max_size=k))
    variances = draw(st.lists(st.sampled_from((0.0, 0.1, 0.5, 1.0)),
                              min_size=k, max_size=k))
    return GaussianMixtureModel(weights=w, means=means, variances=variances)


def _fitting(sched, config):
    try:
        StepPlan.build(sched, config, unit_gaussian())
    except ValueError:
        return False
    return True


@_FEW
@given(st.integers(1, 80), st.floats(1e-4, 0.2), st.floats(0.0, 0.1),
       st.sampled_from(("uniform", "quadratic")), st.integers(1, 80),
       configs(eta_modes=("deterministic", "ddpm_unit")))
def test_plan_of_respace_to_T_equals_full_plan(T, beta_start, spread, mode, K, config):
    full = linear_beta_schedule(T, beta_start, beta_start + spread)
    want = StepPlan.build(full, config, unit_gaussian())
    got = StepPlan.build(respace(full, T, mode), config, unit_gaussian())
    for name in ("t", "t_prev", "sqrt_alpha_prev", "mu", "noise", "a", "b", "plain"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in EpsTerms.names:
        assert getattr(got.terms, name).tobytes() == getattr(want.terms, name).tobytes(), name
    # a shorter subsequence reads its alphas straight from the full arrays
    sub = respace(full, min(K, T), mode)
    plan = StepPlan.build(sub, config, unit_gaussian())
    assert plan.t.tolist() == list(sub.tau[::-1])
    assert plan.terms.sa.tobytes() == np.sqrt(full.alphas_cum[plan.t - 1]).tobytes()


def _sigma_closed_form(eta_mode, a_t, a_p):
    """The generalized step's noise scale by its formula in each eta mode."""
    step = 1.0 - a_t / a_p
    if eta_mode == "deterministic":
        return 0.0
    if eta_mode == "ddpm_unit":
        return math.sqrt((1.0 - a_p) / (1.0 - a_t) * step)
    return math.sqrt(step) if a_p < 1.0 else 0.0    # ddpm_hat: eta_hat is 0 at alpha_prev = 1


@pytest.mark.parametrize("eta", ETA_MODES)
@settings(_FEW, max_examples=60)   # cheap: no chains run
@given(schedules(flat=True), st.data())
def test_plan_rows_match_their_closed_forms(eta, sched, data):
    # only the golden digests would see a plan row off by a relative 1e-12
    # otherwise; every row's coefficients must equal their formulas here
    config = data.draw(configs(eta_modes=(eta,)))
    assume(_fitting(sched, config))
    plan = StepPlan.build(sched, config, unit_gaussian())
    assert plan.t.tolist() == list(sched.tau[::-1])
    assert plan.t_prev.tolist() == [0, *sched.tau[:-1]][::-1]
    for k, (t, t_prev) in enumerate(zip(plan.t.tolist(), plan.t_prev.tolist())):
        a_t, a_p = sched.alpha(t), sched.alpha(t_prev)
        last = k == plan.K - 1
        sig = 0.0 if last else _sigma_closed_form(config.eta_mode, a_t, a_p)
        drift = math.sqrt(max(1.0 - a_p - sig * sig, 0.0)) / math.sqrt(a_p)
        slope = math.sqrt((1.0 - a_t) / a_t)
        # (formula, the scale its rounding error is relative to)
        want = {"alpha": (a_t, a_t),
                "sa": (math.sqrt(a_t), math.sqrt(a_t)),
                "sqrt_alpha_prev": (math.sqrt(a_p), math.sqrt(a_p)),
                "noise": (sig / math.sqrt(a_p), sig / math.sqrt(a_p)),
                "mu": (drift - slope, drift + slope)}
        for name, (value, scale) in want.items():
            got = float(getattr(plan.terms if name == "sa" else plan, name)[k])
            assert abs(got - value) <= 1e-14 * scale, (name, k, got, value)
        assert bool(plan.plain[k]) == (config.method == "vanilla" or last), k


@settings(_FEW, max_examples=60)   # cheap: no chains run
@given(st.integers(1, 60), st.floats(1e-4, 0.2), st.floats(0.0, 0.1),
       st.floats(0.99, 1.0), st.one_of(st.none(), st.integers(1, 60)),
       st.sampled_from(("uniform", "quadratic")), configs())
def test_plan_build_fails_only_with_value_error_and_validate_names_it(
        T, beta_start, spread, alpha_zero, respace_k, mode, config):
    spec = RunSpec(weights=(1.0,), means=((0.0,),), variances=(0.0,), T=T,
                   beta_start=beta_start, beta_end=beta_start + spread,
                   alpha_zero=alpha_zero,
                   respace_k=None if respace_k is None else min(respace_k, T),
                   respace_mode=mode,
                   sampler={"method": config.method, "eta_mode": config.eta_mode,
                            "b": config.b, "b_schedule": config.b_schedule, "c": config.c})
    try:
        schedule = spec.build_schedule()
    except SpecError:
        assume(False)     # alpha_zero not above alpha_1
    try:
        StepPlan.build(schedule, config, spec.build_model())
    except ValueError as exc:
        event("the eta mode does not fit")
        assert "at t=" in str(exc)
        with pytest.raises(SpecError, match="sampler.eta_mode"):
            spec.validate()
    else:
        spec.validate()


@st.composite
def x_ranges(draw):
    """(x_min, x_max, x_bins): x_min is 0 or +-10^U(-12, 17), and the span runs
    log-uniformly from a few float spacings per bin up to 1e6."""
    x_bins = draw(st.integers(1, 300))
    x_min = draw(st.sampled_from((0.0, 1.0, -1.0))) * 10.0 ** draw(st.floats(-12.0, 17.0))
    ulp = max(np.spacing(abs(x_min)), np.finfo(float).tiny)   # the smallest normal at 0
    narrowest = np.log10(x_bins * ulp * draw(st.floats(0.5, 4.0)))
    span = 10.0 ** (narrowest + draw(st.floats(0.0, 1.0)) * (6.0 - narrowest))
    return x_min, x_min + span, x_bins


@settings(_FEW, max_examples=300)   # cheap: no chains run
@given(x_ranges())
@example((1e15, 1e15 + 1, 120))
@example((-6.0, 6.0, 120))
@example((-1e308, 1e308, 120))     # x_max - x_min overflows
def test_heatmap_grid_rejects_x_edges_that_do_not_increase_and_bins_like_digitize(x_range):
    # binning guesses each bin by arithmetic and corrects it by one comparison
    # on each side, which is exact only when the guess is off by at most one:
    # heatmap_grid must reject every x range whose edges would break that
    x_min, x_max, x_bins = x_range
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(x_min, x_max, x_bins + 1)
        increasing = np.all(np.diff(edges) > 0.0)
    setting = {"t_bins": 3, "x_bins": x_bins, "x_min": x_min, "x_max": x_max}
    if not increasing:
        event("x edges do not increase")
        with pytest.raises(ValueError, match=r"^heatmap\.x_min, heatmap\.x_max: "):
            heatmap_grid(setting, 30.0, 1)
        return
    grid = heatmap_grid(setting, 30.0, 1)
    assert np.array_equal(grid.x_edges, edges)
    span = x_max - x_min
    xs = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                         [np.nan, np.inf, -np.inf],
                         np.random.default_rng(x_bins).uniform(x_min - span, x_max + span, 500)])
    got = np.zeros_like(grid.counts)
    ref = np.zeros_like(grid.counts)
    bin_trajectory_points(grid, 1, xs, got)
    reference_bin(np.full(xs.size, 15.0), xs, grid.t_edges, grid.x_edges, ref)
    assert np.array_equal(got, ref)


@settings(_FEW, max_examples=50)   # cheap: a few chains of a few rows
@given(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96 - 1),
                 st.integers(2**96, 2**160)),
       st.integers(1, 2**21 - 1), st.integers(0, 3), st.integers(1, 3),
       st.integers(1, 12), st.integers(1, 4), st.sampled_from(ETA_MODES))
@example(0, 1, 3, 3, 200, 1, "ddpm_unit")     # fig4's rows across the first block edge
@example(2**96, 2**21 - 1, 2, 3, 4, 2, "ddpm_hat")   # five hash words, the last block edge
def test_block_noise_is_each_chains_default_rng_stream(seed, edge, before, after, K, D, eta):
    # chain i's noise is the start of default_rng([seed, i])'s stream, byte for
    # byte, across a 2048-chain block edge: a numpy release that seeds
    # differently fails here. A K-step plan uses x_T and, unless deterministic,
    # every step's row but the noiseless last one's. A flat beta fits ddpm_hat.
    plan = StepPlan.build(linear_beta_schedule(K, 0.02, 0.02), SamplerConfig.vanilla(eta),
                          unit_gaussian(D))
    rows = 1 if eta == "deterministic" else K
    lo, hi = 2048 * edge - before, 2048 * edge + after
    noise = _block_noise(seed, lo, hi, plan, D)
    assert noise.shape == (hi - lo, rows, D)
    for i, got in zip(range(lo, hi), noise):
        want = np.random.default_rng([seed, i]).standard_normal((rows, D))
        assert got.tobytes() == want.tobytes(), i


@st.composite
def mixtures_1d(draw):
    """Smooth, point-mass and mixed 1D mixtures; means at 0 and +-1 are common."""
    k = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    mean = st.one_of(st.sampled_from((0.0, -1.0, 1.0)), st.floats(-8.0, 8.0))
    means = draw(st.lists(mean.map(lambda m: [m]), min_size=k, max_size=k))
    variance = st.one_of(st.just(0.0), st.sampled_from((0.25, 1.0)), st.floats(1e-6, 9.0))
    return GaussianMixtureModel(weights=w, means=means,
                                variances=draw(st.lists(variance, min_size=k, max_size=k)))


# a point mass at 0 next to a smooth component: its levels in (0, 0.5] have quantile 0
_MASS_AT_0 = GaussianMixtureModel(weights=[0.5, 0.5], means=[[0.0], [3.0]],
                                  variances=[0.0, 1.0])


@settings(_FEW, max_examples=60)
@given(mixtures_1d(), st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                               min_size=1, max_size=30))
@example(_MASS_AT_0, [0.25, 0.6])      # at 0.25 the halvings never settle
def test_mixture_quantile_stops_where_200_halvings_would_end(gmm, levels):
    # the early stop leaves bytes unchanged, including where the cap is reached
    got = mixture_quantile(gmm, levels)
    assert got.tobytes() == quantile_200_halvings(gmm, levels).tobytes()


@settings(_FEW, max_examples=4)
@given(st.integers(0, 2**32), st.floats(0.0, 3.0))
def test_sliced_w1_has_the_bytes_of_its_strided_sort(seed, shift):
    # projecting in row blocks, sorting each projection as a contiguous row and
    # averaging the gaps in their (n, P) order must give the float the single
    # product's column sort gave, at every dimension and at cloud sizes around
    # the 128-row blocks, the last of which takes the remainder
    rng = np.random.default_rng(seed)
    for D in (2, 3, 16, 33):
        for n in (1, 2, 7, 127, 128, 129, 255, 256, 257, 8192, 8193):
            a = rng.normal(0.0, 1.0, (n, D))
            b = rng.normal(shift, 2.0, (n, D))
            got = sliced_w1(a, b, 128, np.random.default_rng([seed, n, D]))
            want = sliced_w1_strided(a, b, 128, np.random.default_rng([seed, n, D]))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (D, n)


@pytest.mark.parametrize("n", [8192, 300])
def test_sliced_w1_projects_in_blocks_below_the_blas_helper_size(n, monkeypatch):
    # numpy's OpenBLAS wakes a helper thread, which then spins, for a product of
    # 2**19 multiply-adds or more; no block may reach that at D = 16
    shapes = []
    matmul = np.matmul

    def recording(x, y, *args, **kwargs):
        shapes.append((np.shape(x), np.shape(y)))
        return matmul(x, y, *args, **kwargs)

    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(n, 16)), rng.normal(size=(n, 16))
    monkeypatch.setattr(np, "matmul", recording)
    sliced_w1(a, b, 128, np.random.default_rng(1))
    assert sum(rows for (rows, _), _ in shapes) == 2 * n
    for (rows, d), (d2, p) in shapes:
        assert d == d2 == 16 and p == 128
        assert rows * d * p < 2**19 and min(128, n) <= rows


def test_mixture_quantile_near_zero_reaches_the_cap():
    # the first halving sets hi = 0; then lo climbs toward 0 through ever smaller
    # floats, so only the 200 cap stops it, at -span / 2**200 with span 3 + 12
    assert mixture_quantile(_MASS_AT_0, 0.25)[0] == -15.0 * 2.0**-200


@_FEW
@given(mixtures(), schedules(max_T=30), st.sampled_from(ETA_MODES), st.integers(0, 2**32))
def test_degenerate_adaptive_equals_vanilla(gmm, sched, eta, seed):
    vanilla = SamplerConfig.vanilla(eta)
    assume(_fitting(sched, vanilla))
    degen = SamplerConfig(method="adaptive", eta_mode=eta, b=1.0, a_rule="spherical",
                          c=0.0, zeta=0.0)
    van = run_one(gmm, sched, vanilla, 8, seed).samples
    ada = run_one(gmm, sched, degen, 8, seed).samples
    assert np.max(np.abs(van - ada)) <= 1e-12


@st.composite
def predictor_cases(draw):
    """A mixture with D in {1, 2, 16} and K in {1, 2, 3, 8}, point masses among
    its components, the signal levels of a plan and points to predict at."""
    D = draw(st.sampled_from((1, 2, 16)))
    K = draw(st.sampled_from((1, 2, 3, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    w = rng.uniform(0.1, 1.0, K)
    variances = rng.uniform(0.0, 2.0, K) * (rng.uniform(size=K) < 0.6)   # some are 0
    gmm = GaussianMixtureModel(weights=w / w.sum(), means=rng.uniform(-5.0, 5.0, (K, D)),
                               variances=variances)
    alphas = np.array(draw(st.lists(st.floats(1e-5, 1.0 - 1e-6), min_size=1, max_size=40)))
    x = rng.normal(0.0, 3.0, (draw(st.integers(1, 70)), D))
    return gmm, alphas, x


@settings(_FEW, max_examples=40)
@given(predictor_cases())
@example((GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]], variances=[0.0, 0.0]),
          np.array([1e-5, 0.3, 1.0 - 1e-6]), np.array([[0.0], [1.0], [-7.0]])))
def test_plan_terms_give_the_bytes_of_a_single_call(case):
    # a plan computes the predictor's alpha-only terms once over its rows, and
    # a run predicts in reused arrays; both must give each call's own bytes.
    # The plan's schedule steps through the drawn signal levels, each as the
    # cumulative product of its betas rounds it, less those within a relative
    # 1e-12 of the next higher one, which the product could round onto it
    gmm, alphas, x = case
    levels = np.unique(alphas)[::-1]
    levels = levels[np.concatenate(([True], levels[1:] < levels[:-1] * (1.0 - 1e-12)))]
    sched = NoiseSchedule(betas=1.0 - levels / np.concatenate(([1.0], levels[:-1])))
    plan = StepPlan.build(sched, SamplerConfig.vanilla("deterministic"), gmm)
    terms = plan.terms
    work = EpsWork(gmm, x.shape[0])     # one set of arrays for every row
    for row, alpha in enumerate(plan.alpha.tolist()):
        # numpy's SIMD log/exp could round by array length: one alpha is the reference
        for name, value in eps_terms_at(gmm, alpha).items():
            got = getattr(terms, name)[row]
            assert got.tobytes() == np.asarray(value).tobytes(), (name, row)
        fresh = analytic_eps(gmm, x, alpha)
        reused = analytic_eps(gmm, x, alpha, work, terms, row)
        assert reused.eps_hat.tobytes() == fresh.eps_hat.tobytes(), row
        assert reused.x0_hat.tobytes() == fresh.x0_hat.tobytes(), row
    assert set(vars(terms)) == set(EpsTerms.names) == set(eps_terms_at(gmm, 0.5))


@st.composite
def signed_zero_cases(draw):
    """predictor_cases with some mean and point coordinates set to 0.0 or -0.0."""
    gmm, alphas, x = draw(predictor_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    means, x = np.array(gmm.means), x.copy()
    for arr in (means, x):
        pick = rng.uniform(size=arr.shape)
        arr[pick < 0.2] = 0.0
        arr[pick > 0.8] = -0.0
    return GaussianMixtureModel(weights=gmm.weights, means=means,
                                variances=gmm.variances), alphas, x


@settings(_FEW, max_examples=60)
@given(signed_zero_cases())
@example((GaussianMixtureModel(weights=[0.25, 0.25, 0.5], means=[[0.0], [-0.0], [-3.0]],
                               variances=[0.0, 0.5, 0.0]),
          np.array([1e-5, 0.3, 1.0 - 1e-6]), np.array([[0.0], [-0.0], [-7.0], [2.5]])))
def test_predictor_has_the_bytes_of_its_general_form(case):
    # D = 1 computes |x|^2 and mu_k x as single products and every D reduces
    # with the ufuncs themselves; fresh or in reused arrays, each call must
    # give the einsum / matmul / np.max / np.sum form's bytes
    gmm, alphas, x = case
    work, terms = EpsWork(gmm, x.shape[0]), EpsTerms(gmm, alphas)
    for row, alpha in enumerate(alphas.tolist()):
        eps_hat, x0_hat = analytic_eps_general(gmm, x, alpha)
        for pred in (analytic_eps(gmm, x, alpha),
                     analytic_eps(gmm, x, alpha, work, terms, row)):
            assert pred.eps_hat.tobytes() == eps_hat.tobytes(), row
            assert pred.x0_hat.tobytes() == x0_hat.tobytes(), row


@st.composite
def sweep_cells(draw, min_values=1):
    """2-4 cells a sweep could stack: min_values-3 values of one axis (K, b, c or
    eta_mode) times 1-4 seeds, each value with its own step count too, so the
    cells end at different steps. The values' schedules are one full
    schedule, as schedules(flat=True) draws it, sometimes respaced by one
    mode; their base config sometimes overrides a, and draws v_norm and zeta.
    A value's cells share its schedule and config; the first 4 cells are
    taken seed by seed, and put in step-count order, largest first."""
    full = draw(full_schedules(max_T=12, flat=True))
    mode = draw(st.sampled_from(("uniform", "quadratic")))
    base = replace(draw(configs()), v_norm=draw(st.sampled_from(("mean_sq", "raw_l2sq"))),
                   a_override=draw(st.none() | st.floats(0.0, 1.0)),
                   zeta=draw(st.sampled_from((0.0, 1e-8)) | st.floats(1e-3, 1.0)))
    axis = draw(st.sampled_from(("K", "b", "c", "eta_mode")))
    values = []
    for _ in range(draw(st.integers(min_values, 3))):
        K = draw(st.integers(1, full.T))
        sched = full if K == full.T and draw(st.booleans()) else respace(full, K, mode)
        config = base
        if axis != "K":
            value = {"b": st.floats(0.0, 1.0), "c": st.floats(0.0, 0.5),
                     "eta_mode": st.sampled_from(ETA_MODES)}[axis]
            config = replace(base, **{axis: draw(value)})
        values.append((sched, config))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True))
    cells = [(sched, config, seed) for seed in seeds for sched, config in values][:4]
    assume(len(cells) >= 2 and all(_fitting(sched, config) for sched, config, _ in cells))
    return sorted(cells, key=lambda cell: -len(cell[0].tau))


@pytest.mark.parametrize("D", [1, 2, 16])
@settings(_FEW, max_examples=25)
@given(st.sampled_from((1, 2, 8)), st.sampled_from((1, 7, 300, 1024)), sweep_cells(),
       st.integers(0, 2**32))
def test_stacked_seeds_give_each_seeds_own_bytes(D, K, n, cells, draw):
    # a tuple of cells steps its blocks as stacks, each slice on its own plan's
    # rows; each cell's samples and tv must be the bytes of its own
    # single-seed run, whether its x_T is drawn or read from another slice, and
    # whether the stacks hold every slice or one each
    rng = np.random.default_rng(draw)
    w = rng.uniform(0.1, 1.0, K)
    gmm = GaussianMixtureModel(weights=w / w.sum(), means=rng.uniform(-4.0, 4.0, (K, D)),
                               variances=rng.uniform(0.0, 1.0, K) * (rng.uniform(size=K) < 0.7))
    schedules, configs_, seeds = map(tuple, zip(*cells))
    stacked = run_chains(gmm, schedules, configs_, n, seeds)
    with mock.patch.object(runner, "_STACK_FLOATS", 0):
        alone_each = run_chains(gmm, schedules, configs_, n, seeds)
    assert len(stacked) == len(alone_each) == len(cells)
    for (sched, config, seed), *runs in zip(cells, stacked, alone_each):
        alone = run_one(gmm, sched, config, n, seed)
        for got in runs:
            assert got.samples.tobytes() == alone.samples.tobytes(), seed
            assert got.tv.tobytes() == alone.tv.tobytes(), seed


@pytest.mark.parametrize("layout", ["one_per_stack", "two_per_stack", "one_stack"])
@pytest.mark.parametrize("method", ["vanilla", "adaptive"])
@pytest.mark.parametrize("eta", ETA_MODES)
@settings(_FEW, max_examples=10)
@given(mixtures(), schedules(max_T=20, flat=True), st.floats(0.0, 1.0),
       st.sampled_from(("constant", "linear_ramp")), st.sampled_from(("spherical", "affine")),
       st.floats(1e-3, 0.5), st.integers(0, 2**32), st.integers(5, 13))
def test_run_chains_matches_the_reference_sampler(layout, method, eta, gmm, sched, b,
                                                  b_schedule, a_rule, c, seed, n_rec):
    # what the kernel computes, checked against chains stepped one at a time
    # in Python floats from the paper's update (oracles.reference_chains).
    # 13 chains in blocks of 4 (4, 4, 4 and 1), stacked one or two slices at a
    # time or all full blocks together, record from 5 chains up, so a slice's
    # block start must reach its noise, its rows and its trajectory rows.
    config = SamplerConfig(method=method, eta_mode=eta, b=b, b_schedule=b_schedule,
                           a_rule=a_rule, c=c)
    assume(_fitting(sched, config))
    _assert_matches_the_reference_sampler(gmm, sched, config, layout, seed, n_rec)


def _assert_matches_the_reference_sampler(gmm, sched, config, layout, seed, n_rec):
    rows = runner._noise_rows(StepPlan.build(sched, config, gmm))
    budget = {"one_per_stack": 0, "two_per_stack": 2 * 4 * rows * gmm.D, "one_stack": 1 << 20}
    with mock.patch.multiple(runner, _BLOCK=4, _STACK_FLOATS=budget[layout]):
        res = run_one(gmm, sched, config, 13, seed, trajectory_chains=n_rec)
    samples, tv, xs, x0_hats = reference_chains(gmm, sched, config, seed, 13)
    for name, got, want in (("samples", res.samples, samples), ("tv", res.tv, tv),
                            ("xs", res.trajectories.xs, xs[:n_rec]),
                            ("x0_hats", res.trajectories.x0_hats, x0_hats[:n_rec])):
        assert got.shape == want.shape, name
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(np.abs(want), 1.0)), name


@pytest.mark.parametrize("method, v_norm", [("vanilla", "mean_sq"), ("adaptive", "mean_sq"),
                                            ("adaptive", "raw_l2sq")])
@settings(_FEW, max_examples=8)
@given(mixtures(D=16), schedules(max_T=20, flat=True), st.sampled_from(ETA_MODES),
       st.floats(0.0, 1.0), st.sampled_from(("constant", "linear_ramp")),
       st.sampled_from(("spherical", "affine")), st.floats(1e-3, 0.5),
       st.sampled_from(("one_per_stack", "two_per_stack", "one_stack")),
       st.integers(0, 2**32), st.integers(5, 13))
def test_run_chains_matches_the_reference_sampler_at_d16(method, v_norm, gmm, sched, eta, b,
                                                         b_schedule, a_rule, c, layout, seed,
                                                         n_rec):
    # the kernel's D > 1 paths, |d x_bar|^2 summed over D and divided by
    # v_div, against the same reference at D = 16
    config = SamplerConfig(method=method, eta_mode=eta, b=b, b_schedule=b_schedule,
                           a_rule=a_rule, c=c, v_norm=v_norm)
    assume(_fitting(sched, config))
    _assert_matches_the_reference_sampler(gmm, sched, config, layout, seed, n_rec)


@settings(_FEW, max_examples=60)
@given(mixtures(), sweep_cells(min_values=2))
def test_stacked_cells_of_different_plans_match_the_reference_sampler(gmm, cells):
    # a tuple of cells of different plans, each held to chains stepped one at a
    # time in Python floats: a coefficient that one slice reads off another's
    # plan, or a row of the wrong step, moves some cell off its reference.
    # 13 chains a cell in blocks of 4, stacked one slice at a time, two at a
    # time, or every slice of a chain count together
    schedules, configs_, seeds = map(tuple, zip(*cells))
    rows = max(runner._noise_rows(StepPlan.build(sched, config, gmm))
               for sched, config in zip(schedules, configs_))
    refs = [reference_chains(gmm, *cell, 13)[:2] for cell in cells]
    for budget in (0, 2 * 4 * rows * gmm.D, 1 << 20):
        with mock.patch.multiple(runner, _BLOCK=4, _STACK_FLOATS=budget):
            results = run_chains(gmm, schedules, configs_, 13, seeds)
        for res, (samples, tv) in zip(results, refs):
            for name, got, want in (("samples", res.samples, samples), ("tv", res.tv, tv)):
                assert got.shape == want.shape, name
                assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(np.abs(want), 1.0)), \
                    (name, budget)


_PLAN_COEFFS = ("sqrt_alpha_prev", "mu", "noise", "a", "b", "c", "zeta", "v_div")


def _rows_coefficients(plans):
    """(name, each slice's array over its plan's rows, the trailing axes of a
    per-slice scalar column) of every coefficient of a row."""
    for name in _PLAN_COEFFS:
        axes = 1 if name in ("c", "zeta", "v_div") else 2
        yield name, [getattr(p, name) for p in plans], axes
    for name in EpsTerms.names:
        yield name, [getattr(p.terms, name) for p in plans], 2


_TWO_MODES = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-1.0], [2.0]],
                                 variances=[0.1, 0.0])
_FLAT = linear_beta_schedule(8, 0.02, 0.02)
_RAMP = SamplerConfig(b_schedule="linear_ramp")


@settings(_FEW, max_examples=40)   # cheap: no chains run
@given(mixtures(), sweep_cells(), st.integers(0, 8), st.integers(0, 8))
# slices that agree at row k0 and differ after it: a K sweep's cells all start
# at t = T, and a linear ramp's b values all start at b = 0
@example(_TWO_MODES, [(_FLAT, _RAMP, 1), (respace(_FLAT, 4), _RAMP, 1)], 0, 2)
@example(_TWO_MODES, [(_FLAT, _RAMP, 1), (_FLAT, replace(_RAMP, b=0.3), 1)], 0, 3)
def test_plan_rows_hold_the_plans_arrays(gmm, cells, lo, span):
    # a row is every coefficient the kernel and the predictor read at one step,
    # each slice at its own plan's row k. Where every slice's values over the
    # rows agree byte for byte, the row holds the first slice's value: a
    # Python float for a scalar, the terms' row array otherwise. Where they
    # differ, it holds a per-slice column.
    built = {}      # a value's cells share its plan, as in a run
    for sched, config, _ in cells:
        if (id(sched), id(config)) not in built:
            built[id(sched), id(config)] = StepPlan.build(sched, config, gmm)
    plans = [built[id(sched), id(config)] for sched, config, _ in cells]
    K = plans[-1].K
    k0 = min(lo, K - 1)
    k1 = min(k0 + 1 + span, K)
    for stack in ([plans[0]], plans):
        rows = StepRows(stack, k0, k1)
        assert list(rows.k) == list(range(k0, k1))
        assert not hasattr(rows, "alpha") and not hasattr(rows, "sqrt_alpha")  # sa holds it
        for name in ("t", "t_prev", "plain", "noisy"):
            assert len(getattr(rows, name)) == k1 - k0, name
        first = stack[0]
        for i, k in enumerate(rows.k):
            assert (rows.t[i], rows.t_prev[i], rows.plain[i], rows.noisy[i]) == (
                int(first.t[k]), int(first.t_prev[k]), bool(first.plain[k]),
                bool(first.noise[k] != 0.0))
        for name, arrays, axes in _rows_coefficients(stack):
            agree = len({a[k0:k1].tobytes() for a in arrays}) == 1
            event(f"{name} is {'one value' if agree else 'a column'}")
            column = getattr(rows, name)
            assert len(column) == k1 - k0, name
            for i, k in enumerate(rows.k):
                got, want = column[i], np.stack([a[k] for a in arrays])
                if agree:
                    want = want[0]
                    assert (type(got) is float) == (want.ndim == 0), name
                    assert np.asarray(got).tobytes() == want.tobytes(), name
                else:
                    shape = want.shape + (1,) * axes if want.ndim == 1 else want.shape
                    assert got.shape == shape and got.tobytes() == want.tobytes(), name
    # c, zeta and the v divisor are the config's, and D only for mean_sq
    for plan, (_, config, _) in zip(plans, cells):
        assert plan.c.tolist() == [float(config.c)] * plan.K
        assert plan.zeta.tolist() == [float(config.zeta)] * plan.K
        div = gmm.D if config.v_norm == "mean_sq" else 1
        assert plan.v_div.tolist() == [float(div)] * plan.K


@pytest.mark.parametrize("axis, values, columns", [
    ("b", (0.1, 0.3), {"a", "b"}),
    ("c", (0.01, 0.2), {"c"}),
    ("eta_mode", ("ddpm_unit", "ddpm_hat"), {"mu", "noise"}),
])
def test_a_sweeps_rows_hold_columns_only_where_its_values_differ(axis, values, columns):
    # the cells of a b, c or eta-mode sweep have plans of their own, with equal
    # alphas: their rows stack what the axis moves and hold every other
    # coefficient once, the predictor's terms included
    plans = [StepPlan.build(_FLAT, SamplerConfig(**{axis: value}), _TWO_MODES)
             for value in values]
    rows = StepRows(plans, 0, 7)     # the momentum rows, as a run's call holds them
    for i in range(len(rows.k)):
        stacked = {name for name in _PLAN_COEFFS
                   if isinstance(getattr(rows, name)[i], np.ndarray)}
        assert stacked == columns, i
        # a scalar term is a float, and each other one a row of the terms: (K, 1),
        # (1, K) or (K, D), with no slice axis
        assert all(type(value) is float or value.ndim == 2
                   for value in (getattr(rows, name)[i] for name in EpsTerms.names)), i


@pytest.mark.xfail(strict=True, reason=(
    "analytic_eps sums over components with BLAS (r.T @ means, gain @ r), whose "
    "rounding depends on the batch size, so chains of a partial block can move by "
    "a few ulps when chains are added; see CHANGES.md"))
@settings(_FEW, phases=[Phase.generate])
@given(mixtures(), schedules(max_T=30), configs(), st.integers(0, 2**32),
       st.integers(0, 20), st.integers(0, 20))
def test_chain_prefix_is_stable(gmm, sched, config, seed, m, extra):
    assume(_fitting(sched, config))
    small = run_one(gmm, sched, config, m, seed).samples
    big = run_one(gmm, sched, config, m + extra, seed).samples
    assert np.array_equal(big[:m], small)


_TOY_FIG4 = json.loads(resources.files("difflab").joinpath("specs", "toy_fig4.json").read_text())
# (section, key) of every field a run spec sets; section None is the top level
_SPEC_FIELDS = [(None, key) for key in _TOY_FIG4] + [
    ("model", "weights"), ("model", "means"), ("model", "variances"),
    *(("schedule", key) for key in ("T", "beta_start", "beta_end", "alpha_zero",
                                    "respace_k", "respace_mode")),
    *(("sampler", f.name) for f in fields(SamplerConfig)),
    *(("heatmap", key) for key in ("t_bins", "x_bins", "x_min", "x_max")),
]
# JSON values; numbers are bounded so that a T, chain count or bin count
# stays small, and valid choice names make more draws reach the later checks
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300)
    | st.floats(-10.0, 300.0, allow_nan=False, allow_infinity=False) | st.text(max_size=3)
    | st.sampled_from(("vanilla", "adaptive", "ddpm_hat", "deterministic", "linear_ramp",
                       "affine", "raw_l2sq", "quadratic")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value):
    return isinstance(value, list) and all(map(_number, value))


# the JSON type of each value a spec dict may hold; any field not named is a number
_JSON_TYPE = {
    ("model", "weights"): _numbers,
    ("model", "means"): lambda v: isinstance(v, list) and all(map(_numbers, v)),
    ("model", "variances"): _numbers,
    ("schedule", "respace_k"): lambda v: v is None or _number(v),
    ("schedule", "respace_mode"): lambda v: isinstance(v, str),
    **{(None, key): lambda v: isinstance(v, dict) for key in ("model", "schedule", "sampler")},
    (None, "trajectories"): lambda v: isinstance(v, bool),
    (None, "trajectory_chains"): lambda v: v is None or _number(v),
    (None, "heatmap"): lambda v: v is None or isinstance(v, dict),
    (None, "metrics"): lambda v: isinstance(v, bool),
    ("sampler", "a_override"): lambda v: v is None or _number(v),
    **{("sampler", f.name): lambda v: isinstance(v, str)
       for f in fields(SamplerConfig) if f.type == "str"},
}


def _assert_json_types(d):
    for section, key in _SPEC_FIELDS:
        part = d if section is None else d.get(section) or {}
        if key in part:
            assert _JSON_TYPE.get((section, key), _number)(part[key]), (section, key)


@settings(_FEW, max_examples=300)   # cheap: no chains run
@given(st.sampled_from(_SPEC_FIELDS), _JSON)
@example(("sampler", "a_override"), {})
@example(("model", "weights"), [{}, 0.5])
@example(("schedule", "beta_start"), "0.0005")
@example(("schedule", "alpha_zero"), True)
@example(("heatmap", "x_min"), "-6")
@example(("model", "weights"), ["0.5", "0.5"])
@example(("model", "variances"), [True, False])
@example(("model", "means"), [["-2"], ["4"]])
@example((None, "heatmap"), False)
@example((None, "heatmap"), 0)
@example((None, "heatmap"), [])
@example(("schedule", "respace_mode"), {})
@example(("sampler", "zeta"), True)
def test_spec_dict_validates_or_raises_spec_error(field, value):
    # an accepted spec holds every value in its field's JSON type, as given and
    # as written back, and round-trips through to_dict/from_dict
    section, key = field
    d = copy.deepcopy(_TOY_FIG4)
    (d if section is None else d[section])[key] = value
    try:
        spec = RunSpec.from_dict(d)
    except SpecError:
        event("SpecError")
        return
    _assert_json_types(d)
    written = spec.to_dict()
    _assert_json_types(written)
    assert RunSpec.from_dict(json.loads(json.dumps(written))) == spec
