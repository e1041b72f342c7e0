"""Distributional and trajectory metrics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr
from scipy.stats import wasserstein_distance

from difflab.metrics import (HeatmapGrid, _ndtr, bin_trajectory_points, heatmap_grid,
                             mixture_quantile, mode_statistics, sliced_w1, wasserstein1_1d)
from difflab.model import GaussianMixtureModel
from difflab.samplers import Trajectory

from oracles import build_heatmap, reference_bin, trajectory_total_variation


def test_w1_identity_and_shift():
    gmm = GaussianMixtureModel(weights=[0.3, 0.7], means=[[-1.0], [2.0]],
                               variances=[0.5, 0.0])
    n = 500
    q = mixture_quantile(gmm, (np.arange(1, n + 1) - 0.5) / n)
    # samples on the mixture's quantile levels, in any order: distance 0
    assert wasserstein1_1d(np.random.default_rng(0).permutation(q), gmm) == 0.0
    # shifting the sample set by delta moves W1 by exactly delta
    assert wasserstein1_1d(q + 0.7, gmm) == pytest.approx(0.7, rel=1e-12)


def test_w1_against_point_mixture_exact():
    gmm = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-1.0], [1.0]],
                               variances=[0.0, 0.0])
    # samples exactly on the modes in the right proportions: distance 0
    s = np.array([-1.0] * 50 + [1.0] * 50)
    assert wasserstein1_1d(s, gmm) == pytest.approx(0.0, abs=1e-15)
    # all mass on one mode: half must travel distance 2
    assert wasserstein1_1d(np.full(100, -1.0), gmm) == pytest.approx(1.0, rel=1e-12)


def test_w1_standard_normal_mean_abs_constant():
    # E|Z| = sqrt(2/pi) for Z ~ N(0,1): W1 between N(0,1) samples and a point
    # mass at 0 converges to it
    rng = np.random.default_rng(3)
    s = rng.standard_normal(200000)
    point = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])
    got = wasserstein1_1d(s, point)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=5e-3)
    assert math.sqrt(2.0 / math.pi) == pytest.approx(
        math.sqrt(0.63661977236758134), rel=1e-15)


def test_mixture_quantile_gaussian():
    gmm = GaussianMixtureModel(weights=[1.0], means=[[2.0]], variances=[4.0])
    assert mixture_quantile(gmm, 0.5)[0] == pytest.approx(2.0, abs=1e-9)
    # 84.13% quantile of N(2, 4) is ~ 2 + 2
    assert mixture_quantile(gmm, 0.8413447460685429)[0] == pytest.approx(4.0, abs=1e-6)


def test_mixture_quantile_point_mixture():
    gmm = GaussianMixtureModel(weights=[0.25, 0.75], means=[[3.0], [-1.0]],
                               variances=[0.0, 0.0])
    q = mixture_quantile(gmm, [0.1, 0.5, 0.74, 0.76, 0.9])
    assert list(q) == [-1.0, -1.0, -1.0, 3.0, 3.0]
    with pytest.raises(ValueError):
        mixture_quantile(gmm, [0.0])


def test_mixture_quantile_at_a_cumulative_weight_is_the_lower_mode():
    # Q(u) = inf{x : F(x) >= u}, so at a level equal to the weight below a jump,
    # Q is the lower mode, and just above it the next one. The W1 levels
    # (i - 0.5) / n reach 0.5 for odd n, where two equal weights jump
    for weights, means in (([0.5, 0.5], [1.0, -1.0]),
                           ([0.25, 0.25, 0.5], [2.0, -3.0, 0.5])):
        gmm = GaussianMixtureModel(weights=weights, means=[[m] for m in means],
                                   variances=[0.0] * len(means))
        order = np.argsort(means)
        cum = np.cumsum(np.asarray(weights)[order])[:-1]
        lower = np.asarray(means)[order]
        assert mixture_quantile(gmm, cum).tolist() == lower[:-1].tolist()
        assert mixture_quantile(gmm, np.nextafter(cum, 1.0)).tolist() == lower[1:].tolist()
    gmm = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-1.0], [1.0]], variances=[0.0, 0.0])
    assert mixture_quantile(gmm, (np.arange(1, 4) - 0.5) / 3).tolist() == [-1.0, -1.0, 1.0]


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf],
                         ids=["zero", "one", "below", "above", "nan", "inf"])
def test_mixture_quantile_refuses_levels_outside_the_open_unit_interval(level):
    # a NaN level fails every comparison; it must not fall to the search span's low end
    gmm = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-1.0], [1.0]],
                               variances=[0.25, 0.25])
    with pytest.raises(ValueError, match="strictly inside"):
        mixture_quantile(gmm, [0.3, level])


def _assert_ndtr_is_libm_erfc(a):
    """_ndtr against the scalar 0.5 * erfc(-a / sqrt(2)) bit for bit, shape and
    NaN kept; and within 2e-13 relative of scipy's ndtr wherever scipy's value is
    a normal float. What is left there is Cephes' rounding of z^2 in exp(-z^2)."""
    a = np.asarray(a, dtype=float)
    got = _ndtr(a)
    want = np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in a.ravel().tolist()])
    assert got.shape == a.shape
    assert np.array_equal(got, want.reshape(a.shape), equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(a))
    ref = ndtr(a)
    normal = ref >= np.finfo(float).tiny        # NaN fails the comparison
    rel = np.abs(got - ref)[normal] / ref[normal]
    assert rel.max(initial=0.0) <= 2e-13, a[normal][rel > 2e-13]


def test_ndtr_is_libm_erfc_on_non_finite_inputs_shapes_and_a_dense_sample():
    rng = np.random.default_rng(2308)
    dense = np.concatenate([rng.uniform(-40.0, 40.0, 100_000), rng.uniform(-1.5, 1.5, 100_000)])
    special = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
    for a in (dense, dense[:30].reshape(3, 10), np.float64(-1.7), special):
        _assert_ndtr_is_libm_erfc(a)
    got = _ndtr(special)
    assert got[:4].tolist() == [1.0, 0.0, 0.5, 0.5] and np.isnan(got[4])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(-40.0, 40.0),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=64))
def test_ndtr_is_libm_erfc_on_finite_floats(values):
    _assert_ndtr_is_libm_erfc(values)


def test_empty_samples_rejected():
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[1.0])
    with pytest.raises(ValueError):
        wasserstein1_1d(np.array([]), gmm)


def test_sliced_w1_properties():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((400, 3))
    assert sliced_w1(a, a.copy(), 32, np.random.default_rng(5)) == pytest.approx(0.0)
    shifted = a + np.array([1.0, 0.0, 0.0])
    d = sliced_w1(a, shifted, 256, np.random.default_rng(5))
    # projection of a unit shift onto random directions averages E|u_0| > 0
    assert 0.1 < d < 1.0
    with pytest.raises(ValueError):
        sliced_w1(a[:, :1], a[:, :1], 8, rng)
    with pytest.raises(ValueError):     # equal-size clouds only
        sliced_w1(a, a[:200], 8, rng)


def _record(ts, *chains):
    """A batched record of the given (K, D) trajectories."""
    xs = np.stack([np.asarray(c, dtype=float) for c in chains])
    return Trajectory(ts=np.asarray(ts), xs=xs, x0_hats=np.zeros_like(xs))


def test_trajectory_total_variation_straight_line():
    # K equal steps of length h: TV = K * h regardless of direction
    xs = np.linspace(0, 3, 7)[:, None]
    tv = trajectory_total_variation(_record(np.arange(6, -1, -1), xs, -xs))
    assert tv.shape == (2,)
    assert tv == pytest.approx([3.0, 3.0], rel=1e-12)


def test_trajectory_total_variation_zigzag_exceeds_displacement():
    xs = np.array([[0.0], [1.0], [0.0], [1.0]])
    tv = trajectory_total_variation(_record([3, 2, 1, 0], xs))
    assert tv.shape == (1,)
    assert tv[0] == pytest.approx(3.0)


def test_heatmap_conserves_points_and_clips():
    xs = np.array([[0.0], [2.0], [100.0], [-100.0]])
    grid = build_heatmap(_record([3, 2, 1, 0], xs, xs), t_bins=4, x_bins=10, x_range=(-6, 6))
    assert grid.counts.sum() == 8          # every point lands in some bin
    assert grid.counts.shape == (4, 10)
    # out-of-range x clipped into the edge bins
    col_totals = grid.counts.sum(axis=0)
    assert col_totals[0] >= 2 and col_totals[-1] >= 2


def test_heatmap_csv(tmp_path):
    grid = build_heatmap(_record([1, 0], [[0.0], [1.0]]), t_bins=2, x_bins=3)
    path = tmp_path / "heatmap.csv"
    grid.to_csv(path)
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert sum(int(r["count"]) for r in rows) == 2


def test_mode_statistics():
    s = np.array([-2.1, -1.9, -2.0, 3.9, 4.05])
    stats = mode_statistics(s, [-2.0, 4.0])
    assert stats[0]["fraction"] == pytest.approx(0.6)
    assert stats[1]["fraction"] == pytest.approx(0.4)
    assert stats[0]["count"] == 3
    assert stats[0]["mean_abs_dev"] == pytest.approx(0.2 / 3)
    assert stats[1]["mean_abs_dev"] == pytest.approx(0.075)
    with pytest.raises(ValueError):
        mode_statistics(np.array([]), [-2.0])
    # a mode no sample is nearest to: no deviation to average, None rather than NaN
    empty = mode_statistics(s, [-2.0, 4.0, 40.0])[2]
    assert empty == {"mode": 40.0, "fraction": 0.0, "count": 0, "mean_abs_dev": None}


@pytest.mark.parametrize("x_range,x_bins", [((-6.0, 6.0), 120), ((-2.0, 4.0), 3),
                                             ((0.1, 0.7), 1), ((-1e-3, 2e-3), 7)])
def test_bin_trajectory_points_matches_digitize_reference(x_range, x_bins):
    rng = np.random.default_rng(x_bins)
    grid = heatmap_grid({"t_bins": 100, "x_bins": x_bins, "x_min": x_range[0],
                         "x_max": x_range[1]}, 200.0, 1)
    t_edges, x_edges = grid.t_edges, grid.x_edges
    span = x_range[1] - x_range[0]
    specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]
    xs = np.concatenate([
        rng.uniform(x_range[0] - span, x_range[1] + span, 5000),
        x_edges, np.nextafter(x_edges, np.inf), np.nextafter(x_edges, -np.inf), specials])
    ts = np.concatenate([specials, t_edges, np.nextafter(t_edges, -np.inf),
                         rng.integers(-10, 211, 20)])
    got = np.zeros((100, x_bins), dtype=np.int64)
    ref = np.zeros_like(got)
    for t, row in zip(ts, grid.rows(ts)):    # got accumulates in place across calls
        bin_trajectory_points(grid, row, xs[:, None], got)
        reference_bin(np.full(xs.size, t), xs, t_edges, x_edges, ref)
        assert np.array_equal(got, ref), t


def test_heatmap_csv_bytes_match_csv_writer_reference(tmp_path):
    t_edges = np.array([0.0, 1e-320, 0.1, 200.0])
    x_edges = np.array([-6.0, -0.0, 1.0 / 3.0, 6.0])
    counts = np.arange(9, dtype=np.int64).reshape(3, 3) * 12345
    path = tmp_path / "heatmap.csv"
    HeatmapGrid(t_edges=t_edges, x_edges=x_edges, counts=counts).to_csv(path)
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_lo", "t_hi", "x_lo", "x_hi", "count"])
        for i in range(3):
            for j in range(3):
                writer.writerow([format(t_edges[i], ".17g"), format(t_edges[i + 1], ".17g"),
                                 format(x_edges[j], ".17g"), format(x_edges[j + 1], ".17g"),
                                 int(counts[i, j])])
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("D", [2, 16])
def test_sliced_w1_matches_per_projection_scipy(D):
    rng = np.random.default_rng(D)
    a = rng.standard_normal((300, D))
    b = rng.standard_normal((300, D)) * 1.5 + 0.3
    got = sliced_w1(a, b, 32, np.random.default_rng(9))
    dirs = np.random.default_rng(9).standard_normal((32, D))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ref = np.mean([wasserstein_distance(a @ d, b @ d) for d in dirs])
    assert got == pytest.approx(ref, rel=1e-12)
