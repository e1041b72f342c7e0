"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with the observed values and its runtime
before asserting, so a failing run still reports every measured quantity.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np

from difflab.config import RunSpec
from difflab.model import GaussianMixtureModel
from difflab.runner import execute_run
from difflab.samplers import SamplerConfig
from difflab.schedule import linear_beta_schedule, respace
from difflab.verification import (check_midpoint_equivalence,
                                  check_score_consistency, degenerate_config)

from conftest import run_one


def _report(label, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{status} {label}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget"
    assert passed, f"{label}: {detail}"


def two_point(d=1):
    if d == 1:
        means = [[-2.0], [4.0]]
    else:
        means = [[-2.0, 1.0], [4.0, -1.0]]
    return GaussianMixtureModel(weights=[0.5, 0.5], means=means,
                                variances=[0.0, 0.0])


def smooth_two_gauss():
    return GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                variances=[0.25, 0.25])


def test_degenerate_adaptive_matches_vanilla_everywhere():
    # adaptive with (a=0, b=1, c=0, zeta=0) must equal vanilla element-wise
    # within 1e-12 on shared noise streams, across eta modes, T and D.
    # eta_hat validity requires a non-expanding per-step rate, so its cases
    # run on a constant-rate schedule; the others use the usual linear ramp.
    start = time.perf_counter()
    worst = 0.0
    n_chains = 16
    for T in (10, 50, 200):
        ramp = linear_beta_schedule(T, 1e-3, 0.05)
        flat = linear_beta_schedule(T, 0.03, 0.03)
        cases = [("deterministic", ramp), ("ddpm_unit", ramp), ("ddpm_hat", flat)]
        for d in (1, 2):
            gmm = two_point(d)
            for eta, sched in cases:
                van = run_one(gmm, sched, SamplerConfig.vanilla(eta),
                              n_chains, seed=5)
                ada = run_one(gmm, sched, degenerate_config(eta),
                              n_chains, seed=5)
                worst = max(worst, float(np.max(np.abs(van.samples - ada.samples))))
    elapsed = time.perf_counter() - start
    _report("degeneracy-equivalence", worst <= 1e-12,
            f"max |vanilla - degenerate adaptive| = {worst:.3e} (tol 1e-12)",
            elapsed, 5.0)


def test_noise_predictor_matches_finite_difference_score():
    # analytic predictor vs -sqrt(1-a) * central-difference log-density
    # gradient on 100 random (mixture, x, t) triples, rel. error < 1e-5
    start = time.perf_counter()
    check = check_score_consistency(n_triples=100, seed=7, tol=1e-5)
    elapsed = time.perf_counter() - start
    _report("score-oracle", check["passed"],
            f"worst rel. error = {check['observed']:.3e} (tol 1e-5)",
            elapsed, 5.0)


def _two_mode_runs(seed):
    gmm = two_point()
    sched = linear_beta_schedule(200, 5e-4, 0.1)
    van = run_one(gmm, sched, SamplerConfig.vanilla("ddpm_unit"),
                  10000, seed=seed)
    ada = run_one(gmm, sched,
                  SamplerConfig(method="adaptive", eta_mode="ddpm_unit",
                                b=0.4, c=0.003),
                  10000, seed=seed)
    return van, ada


def _nearest_mode_dev(samples):
    return float(np.mean(np.min(np.abs(samples - np.array([-2.0, 4.0])), axis=1)))


def _mode_fraction(samples):
    return float(np.mean(np.abs(samples[:, 0] + 2.0) < np.abs(samples[:, 0] - 4.0)))


_TWO_MODE_CACHE = {}


def _two_mode_stats():
    if not _TWO_MODE_CACHE:
        start = time.perf_counter()
        rows = []
        for seed in range(10):
            van, ada = _two_mode_runs(seed)
            rows.append({
                "frac_van": _mode_fraction(van.samples),
                "frac_ada": _mode_fraction(ada.samples),
                "dev_van": _nearest_mode_dev(van.samples),
                "dev_ada": _nearest_mode_dev(ada.samples),
                "tv_van": float(np.mean(van.tv)),
                "tv_ada": float(np.mean(ada.tv)),
            })
        _TWO_MODE_CACHE["rows"] = rows
        _TWO_MODE_CACHE["elapsed"] = time.perf_counter() - start
    return _TWO_MODE_CACHE["rows"], _TWO_MODE_CACHE["elapsed"]


def test_two_mode_fractions_within_binomial_noise():
    # both samplers' mode-assignment fractions within 3 sigma of 1/2
    # (binomial: 3 * sqrt(0.25 / 10000) = 0.015)
    rows, elapsed = _two_mode_stats()
    bound = 3.0 * math.sqrt(0.25 / 10000)
    worst = max(max(abs(r["frac_van"] - 0.5), abs(r["frac_ada"] - 0.5))
                for r in rows)
    _report("two-mode-fractions", worst < bound,
            f"worst |fraction - 0.5| = {worst:.4f} (3-sigma bound {bound:.4f})",
            elapsed, 120.0)


def test_two_mode_final_accuracy_adaptive_vs_vanilla():
    # adaptive mean nearest-mode deviation <= vanilla (+ 1e-12) in >= 8 of
    # 10 seeds. With the exact analytic predictor both samplers' final step
    # lands on the predicted clean sample, so on point-mass data both
    # deviations are float round-off (~4e-17); the 1e-12 allowance, the
    # suite's tolerance for exact identities, keeps the order of float
    # operations from deciding a seed.
    rows, elapsed = _two_mode_stats()
    tol = 1e-12
    wins = sum(r["dev_ada"] <= r["dev_van"] + tol for r in rows)
    dev_a = np.mean([r["dev_ada"] for r in rows])
    dev_v = np.mean([r["dev_van"] for r in rows])
    _report("two-mode-final-accuracy", wins >= 8,
            f"adaptive wins {wins}/10 within {tol:g} (mean dev adaptive "
            f"{dev_a:.3g}, vanilla {dev_v:.3g}; need >= 8)",
            elapsed, 120.0)


def test_two_mode_trajectory_smoothness_adaptive_vs_vanilla():
    # adaptive mean trajectory total variation strictly below vanilla
    # in >= 8 of 10 seeds
    rows, elapsed = _two_mode_stats()
    wins = sum(r["tv_ada"] < r["tv_van"] for r in rows)
    tv_a = np.mean([r["tv_ada"] for r in rows])
    tv_v = np.mean([r["tv_van"] for r in rows])
    _report("two-mode-smoothness", wins >= 8,
            f"adaptive wins {wins}/10 (mean TV adaptive {tv_a:.2f}, "
            f"vanilla {tv_v:.2f}; need >= 8)",
            elapsed, 120.0)


def test_single_gaussian_deterministic_convergence():
    # exact predictor + deterministic sampler on N(1, 0.25), T=1000:
    # W1 to the true marginal < 0.02 at 10,000 samples (~1.1/sqrt(n) oracle)
    start = time.perf_counter()
    gmm = GaussianMixtureModel(weights=[1.0], means=[[1.0]], variances=[0.25])
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    res = run_one(gmm, sched, SamplerConfig.vanilla("deterministic"),
                  10000, seed=0)
    from difflab.metrics import wasserstein1_1d
    w1 = wasserstein1_1d(res.samples[:, 0], gmm)
    elapsed = time.perf_counter() - start
    _report("single-gaussian-convergence", w1 < 0.02,
            f"W1 = {w1:.4f} (tol 0.02)", elapsed, 60.0)


def test_unit_eta_step_consistent_with_reverse_sde():
    # drift identity to 1e-10 at every t; closed-form vs exact noise scale
    # within 2% wherever the per-step rate is below 0.02
    start = time.perf_counter()
    from difflab.verification import drift_consistency
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    report = drift_consistency(sched, two_point(), n_points=8,
                               rng=np.random.default_rng(11))
    drift_worst = float(np.max(report["drift_rel_mismatch"]))
    mask = (report["beta"] < 0.02) & ~np.isnan(report["diffusion_ratio"])
    diff_worst = float(np.max(np.abs(report["diffusion_ratio"][mask] - 1.0)))
    elapsed = time.perf_counter() - start
    _report("reverse-sde-consistency",
            drift_worst < 1e-10 and diff_worst < 0.02,
            f"drift mismatch {drift_worst:.3e} (tol 1e-10), "
            f"diffusion-scale dev {diff_worst:.4f} (tol 0.02)",
            elapsed, 30.0)


def test_momentum_recursion_matches_midpoint_recursion():
    # friction mapping a=(2-lam)/(2+lam), b=-2/(2+lam) vs the direct
    # midpoint recursion: < 1e-12 over 1000 steps for lam in {0, .5, 1, 2}
    start = time.perf_counter()
    check = check_midpoint_equivalence(tol=1e-12, n_steps=1000)
    elapsed = time.perf_counter() - start
    _report("midpoint-equivalence", check["passed"],
            f"max deviation = {check['observed']:.3e} (tol 1e-12)",
            elapsed, 5.0)


def test_history_coefficient_sweep_has_interior_optimum():
    # W1 over b in {0.05, 0.1, 0.15, 0.2} for the momentum sampler on a
    # coarse 25-step subsequence of the standard schedule: quality improves
    # then degrades, i.e. the argmin is not at either boundary
    start = time.perf_counter()
    gmm = smooth_two_gauss()
    sched = respace(linear_beta_schedule(1000, 1e-4, 0.02), 25, "uniform")
    bs = (0.05, 0.1, 0.15, 0.2)
    from difflab.metrics import wasserstein1_1d
    means = []
    for b in bs:
        vals = []
        for seed in range(3):
            res = run_one(gmm, sched, SamplerConfig(b=b, c=0.0, zeta=0.0),
                          4000, seed=seed)
            vals.append(wasserstein1_1d(res.samples[:, 0], gmm))
        means.append(float(np.mean(vals)))
    argmin = int(np.argmin(means))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"b={b}: W1={m:.2f}" for b, m in zip(bs, means))
    _report("history-coefficient-sweep", argmin in (1, 2),
            f"{detail} (argmin at b={bs[argmin]}, must be interior)",
            elapsed, 300.0)


def test_respacing_identity_and_degradation():
    # K=T subsequence reproduces the full run exactly; W1 degrades
    # monotonically as K shrinks through {50, 25} for the vanilla sampler
    start = time.perf_counter()
    gmm = smooth_two_gauss()
    full = linear_beta_schedule(1000, 1e-4, 0.02)
    cfg = SamplerConfig.vanilla("ddpm_unit")
    a = run_one(gmm, full, cfg, 2000, seed=4).samples
    b = run_one(gmm, respace(full, 1000), cfg, 2000, seed=4).samples
    identical = np.array_equal(a, b)

    from difflab.metrics import wasserstein1_1d
    w1 = {}
    for K in (25, 50):
        res = run_one(gmm, respace(full, K), cfg, 10000, seed=4)
        w1[K] = wasserstein1_1d(res.samples[:, 0], gmm)
    elapsed = time.perf_counter() - start
    _report("respacing-sanity", identical and w1[25] > w1[50],
            f"K=T identical: {identical}; W1 K=25: {w1[25]:.4f} > "
            f"K=50: {w1[50]:.4f}",
            elapsed, 120.0)


def test_samples_file_byte_identical_across_threads(tmp_path):
    # repeated runs of one spec under 1, 2 and 8 worker threads emit a
    # byte-identical samples.csv
    start = time.perf_counter()
    spec = RunSpec.from_dict({
        "model": {"weights": [0.5, 0.5], "means": [[-2.0], [4.0]],
                  "variances": [0.0, 0.0]},
        "schedule": {"T": 200, "beta_start": 5e-4, "beta_end": 0.1},
        "sampler": {"method": "adaptive", "eta_mode": "ddpm_unit",
                    "b": 0.4, "c": 0.003},
        "n_chains": 3000,
        "seed": 11,
        "trajectory_chains": 0,
        "trajectories": False,
    })
    digests = []
    for k in (1, 2, 8):
        out = tmp_path / f"threads{k}"
        execute_run(replace(spec, threads=k), out)
        digests.append(hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest())
    elapsed = time.perf_counter() - start
    _report("thread-reproducibility", len(set(digests)) == 1,
            f"sha256 digests across 1/2/8 threads: "
            f"{'all equal' if len(set(digests)) == 1 else digests}",
            elapsed, 60.0)
