"""Distributional and trajectory metrics."""

import csv
import math

import numpy as np
import pytest

from scipy.stats import wasserstein_distance

from difflab.metrics import (HeatmapGrid, bin_trajectory_points, build_heatmap,
                             mixture_quantile, mode_statistics, sliced_w1,
                             trajectory_total_variation, wasserstein1_1d)
from difflab.model import GaussianMixtureModel
from difflab.samplers import Trajectory
from difflab.schedule import linear_beta_schedule


def test_w1_identity_and_shift():
    a = np.random.default_rng(0).standard_normal(500)
    assert wasserstein1_1d(a, a) == 0.0
    # shifting one sample set by delta moves W1 by exactly delta
    assert wasserstein1_1d(a + 0.7, a) == pytest.approx(0.7, rel=1e-12)


def test_w1_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal(200)
        b = rng.standard_normal(200) + rng.uniform(-2, 2)
        c = rng.uniform(-3, 3, 200)
        assert wasserstein1_1d(a, c) <= (wasserstein1_1d(a, b)
                                         + wasserstein1_1d(b, c) + 1e-12)


def test_w1_symmetry():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(300)
    b = rng.uniform(-1, 2, 300)
    assert wasserstein1_1d(a, b) == pytest.approx(wasserstein1_1d(b, a), rel=1e-12)


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


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        wasserstein1_1d(np.array([]), np.array([1.0]))


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


def test_trajectory_total_variation_xbar_space():
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    traj = _record([2, 1], [[1.0], [1.0]], [[2.0], [2.0]])
    expected = abs(1 / math.sqrt(sched.alpha(1)) - 1 / math.sqrt(sched.alpha(2)))
    assert trajectory_total_variation(traj, space="x_bar",
                                      schedule=sched) == pytest.approx([expected, 2 * expected])
    with pytest.raises(ValueError):
        trajectory_total_variation(traj, space="x_bar")   # schedule required
    with pytest.raises(ValueError):
        trajectory_total_variation(traj, space="fourier")


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


def _reference_bin(ts, xs, t_edges, x_edges, counts):
    """The digitize + add.at binning the arithmetic path must reproduce."""
    def clipped(values, edges):
        return np.clip(np.digitize(values, edges) - 1, 0, len(edges) - 2)
    np.add.at(counts, (clipped(ts, t_edges), clipped(xs, x_edges)), 1)


@pytest.mark.parametrize("x_range,x_bins", [((-6.0, 6.0), 120), ((-2.0, 4.0), 3),
                                             ((0.1, 0.7), 1), ((-1e-3, 2e-3), 7)])
def test_bin_trajectory_points_matches_digitize_reference(x_range, x_bins):
    rng = np.random.default_rng(x_bins)
    t_edges = np.linspace(0.0, 200.0, 101)
    x_edges = np.linspace(x_range[0], x_range[1], x_bins + 1)
    span = x_range[1] - x_range[0]
    specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]
    xs = np.concatenate([
        rng.uniform(x_range[0] - span, x_range[1] + span, 5000),
        x_edges, np.nextafter(x_edges, np.inf), np.nextafter(x_edges, -np.inf), specials])
    ts = np.concatenate([rng.integers(0, 201, xs.size - t_edges.size),
                         t_edges]).astype(float)
    ts[:len(specials)] = specials
    got = np.zeros((100, x_bins), dtype=np.int64)
    ref = np.zeros_like(got)
    bin_trajectory_points(ts, xs[:, None], t_edges, x_edges, got)
    _reference_bin(ts, xs, t_edges, x_edges, ref)
    assert np.array_equal(got, ref)
    bin_trajectory_points(ts, xs, t_edges, x_edges, got)     # accumulates in place
    assert np.array_equal(got, 2 * ref)


def test_bin_trajectory_points_rejects_uneven_edges():
    counts = np.zeros((1, 3), dtype=np.int64)
    for x_edges in (np.array([0.0, 1.0, 2.5, 3.0]), np.linspace(1.0, 0.0, 4)):
        with pytest.raises(ValueError):
            bin_trajectory_points([0.5], [0.5], np.array([0.0, 1.0]), x_edges, counts)


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
    # unequal sizes take the scipy path
    assert sliced_w1(a, b[:200], 32, np.random.default_rng(9)) == pytest.approx(
        np.mean([wasserstein_distance(a @ d, b[:200] @ d) for d in dirs]), rel=1e-12)
