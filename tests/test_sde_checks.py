"""Consistency between the discrete steps and their continuous-time limits."""

import math

import numpy as np
import pytest

from difflab import verification
from difflab.model import GaussianMixtureModel
from difflab.schedule import linear_beta_schedule
from difflab.verification import (FrictionMapping, check_score_consistency, drift_consistency,
                                  midpoint_equivalence, run_all_checks)


def two_point():
    return GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                variances=[0.0, 0.0])


def test_friction_mapping_values():
    fm = FrictionMapping(lam=0.0)
    assert (fm.a, fm.b) == (1.0, -1.0)
    fm = FrictionMapping(lam=2.0)
    assert (fm.a, fm.b) == (0.0, -0.5)
    fm = FrictionMapping(lam=0.5)
    assert fm.a == pytest.approx(1.5 / 2.5)
    assert fm.b == pytest.approx(-2.0 / 2.5)
    with pytest.raises(ValueError):
        FrictionMapping(lam=-2.0)


def test_midpoint_equivalence_machine_precision():
    rng = np.random.default_rng(3)
    noise = 0.05 * rng.standard_normal(1000)
    for lam in (0.0, 0.5, 1.0, 2.0):
        dev = midpoint_equivalence(lam, 1000,
                                   drift=lambda k: 0.1 * math.sin(0.01 * k),
                                   noise_seq=noise)
        assert dev < 1e-12


def test_midpoint_equivalence_rejects_short_noise():
    with pytest.raises(ValueError):
        midpoint_equivalence(0.5, 10, drift=lambda k: 0.0, noise_seq=np.zeros(5))


def test_drift_identity_exact_all_timesteps():
    # the unit-eta drift mu * eps_hat equals (beta/alpha) * score exactly
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    report = drift_consistency(sched, two_point(), n_points=8,
                               rng=np.random.default_rng(11))
    assert report["t"].size == 1000
    assert float(np.max(report["drift_rel_mismatch"])) < 1e-10


def test_diffusion_scale_near_one_in_small_beta_regime():
    # closed-form unit-eta noise scale vs the exact sqrt(1 - beta) factor:
    # agreement within 2% wherever the per-step beta is below 0.02
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    report = drift_consistency(sched, two_point(), n_points=2,
                               rng=np.random.default_rng(0))
    mask = (report["beta"] < 0.02) & ~np.isnan(report["diffusion_ratio"])
    assert mask.sum() > 900
    assert float(np.max(np.abs(report["diffusion_ratio"][mask] - 1.0))) < 0.02


def test_diffusion_ratio_closed_form():
    # the reported ratio equals sqrt(1 - beta_t) analytically
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    report = drift_consistency(sched, two_point(), n_points=2,
                               rng=np.random.default_rng(1))
    betas = report["beta"][1:]      # t=1 entry is NaN (both scales vanish)
    ratio = report["diffusion_ratio"][1:]
    assert np.allclose(ratio, np.sqrt(1.0 - betas), rtol=1e-10)
    assert np.isnan(report["diffusion_ratio"][0])


def test_sde_scale_ratio_approaches_one_late():
    # once accumulated noise dominates, the exact step scale matches the
    # Euler-Maruyama diffusion sqrt(beta/alpha)
    sched = linear_beta_schedule(1000, 1e-4, 0.02)
    report = drift_consistency(sched, two_point(), n_points=2,
                               rng=np.random.default_rng(2))
    late = report["sde_scale_ratio"][-100:]
    assert np.all(np.abs(late - 1.0) < 0.02)


def test_run_all_checks_holds_each_check_to_its_documented_tolerance():
    # exact identities to 1e-12 (1e-10 for the drift's relative mismatch), the
    # finite-difference score to 1e-5, and the noise scale to 2%
    report = run_all_checks()
    assert {c["name"]: c["expected"] for c in report["checks"]} == {
        "score-consistency": "< 1e-05", "drift-identity": "< 1e-10",
        "diffusion-scale": "< 0.02", "midpoint-equivalence": "< 1e-12",
        "degeneracy-equivalence": "<= 1e-12"}
    assert report["passed"] and all(c["passed"] for c in report["checks"])


def test_score_consistency_draws_each_kind_of_variances(monkeypatch):
    # the predictor skips its quadratic term where every variance is equal,
    # and its x_bar term where every one is 0: the check's mixtures must hold
    # each kind, and some of 3 components where only one variance differs
    seen, fd_score_error = [], verification.fd_score_error

    def recorded(gmm, x, a):
        seen.append(gmm.variances)
        return fd_score_error(gmm, x, a)
    monkeypatch.setattr(verification, "fd_score_error", recorded)
    check_score_consistency()
    assert len(seen) == 100
    kinds = {("zero" if not v.any() else "equal" if np.all(v == v[0]) else
              "mixed" if not v.all() else "apart") for v in seen if v.size == 3}
    assert kinds == {"zero", "equal", "mixed", "apart"}
    assert any(v.size == 3 and not v[:2].any() and v[2] for v in seen)
    spread = np.concatenate(seen)
    assert spread.max() < 2.0 and 0.0 < spread[spread > 0.0].min() < 0.1
