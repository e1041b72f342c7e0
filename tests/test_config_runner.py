"""Run/sweep specs, batch execution, reproducibility, and file emission."""

import csv
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from difflab.config import RunSpec, SpecError, SweepSpec
from difflab.model import GaussianMixtureModel
from difflab.runner import (_write_samples_csv, _write_trajectories_csv, compute_metrics,
                            execute_run, execute_sweep, run_chains)
from difflab.samplers import SamplerConfig, Trajectory
from difflab.schedule import linear_beta_schedule, respace

from oracles import build_heatmap, trajectory_total_variation


def base_spec_dict(**over):
    d = {
        "model": {"weights": [0.5, 0.5], "means": [[-2.0], [4.0]],
                  "variances": [0.0, 0.0]},
        "schedule": {"T": 50, "beta_start": 1e-3, "beta_end": 0.05},
        "sampler": {"method": "vanilla", "eta_mode": "ddpm_unit"},
        "n_chains": 64,
        "seed": 3,
        "trajectory_chains": 4,
    }
    d.update(over)
    return d


def two_point():
    return GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                variances=[0.0, 0.0])


# --- spec parsing ---------------------------------------------------------

def test_runspec_roundtrip(tmp_path):
    spec = RunSpec.from_dict(base_spec_dict())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict(), indent=2))
    again = RunSpec.from_json(path)
    assert again == spec


def test_runspec_missing_field_names_path():
    d = base_spec_dict()
    del d["schedule"]["T"]
    with pytest.raises(SpecError, match="schedule.T"):
        RunSpec.from_dict(d)
    with pytest.raises(SpecError, match="spec.model"):
        RunSpec.from_dict({"schedule": {"T": 10, "beta_start": 1e-3, "beta_end": 0.05}})


def test_runspec_invalid_values():
    with pytest.raises(SpecError):
        RunSpec.from_dict(base_spec_dict(n_chains=-1))
    with pytest.raises(SpecError, match="seed: must be non-negative"):
        RunSpec.from_dict(base_spec_dict(seed=-1))
    d = base_spec_dict()
    d["sampler"] = {"method": "vanilla", "b": 7.0}
    with pytest.raises(SpecError):
        RunSpec.from_dict(d)
    d = base_spec_dict()
    d["model"]["weights"] = [0.5, 0.6]
    with pytest.raises(SpecError):
        RunSpec.from_dict(d)
    for bad in ({"x_min": 6, "x_max": -6}, {"x_min": 1.0, "x_max": 1.0},
                {"x_min": float("-inf")}):
        with pytest.raises(SpecError, match="heatmap"):
            RunSpec.from_dict(base_spec_dict(heatmap={"t_bins": 4, "x_bins": 8, **bad}))


def test_runspec_builds_respaced_schedule():
    d = base_spec_dict()
    d["schedule"]["respace_k"] = 10
    spec = RunSpec.from_dict(d)
    sched = spec.build_schedule()
    assert len(sched.tau) == 10
    assert sched.tau[-1] == 50


def test_sweepspec_validation():
    base = base_spec_dict()
    sweep = SweepSpec.from_dict({"base": base, "axis": "b",
                                 "values": [0.1, 0.2], "seeds_per_cell": 2})
    cell = sweep.cell_spec(0.2, 1)
    assert cell.sampler["b"] == 0.2
    assert cell.seed == base["seed"] + 1
    with pytest.raises(SpecError):
        SweepSpec.from_dict({"base": base, "axis": "gamma", "values": [1]})
    with pytest.raises(SpecError):
        SweepSpec.from_dict({"base": base, "axis": "b", "values": []})
    with pytest.raises(SpecError, match="sweep.base.n_chains: must be positive"):
        SweepSpec.from_dict({"base": {**base, "n_chains": 0}, "axis": "b",
                             "values": [0.1]})
    # every cell is validated when the sweep is built, not when it runs
    with pytest.raises(SpecError, match="sampler"):
        SweepSpec.from_dict({"base": base, "axis": "c", "values": [0.1, 2.0]})


def test_sweepspec_k_axis():
    sweep = SweepSpec.from_dict({"base": base_spec_dict(), "axis": "K",
                                 "values": [10, 25]})
    assert len(sweep.cell_spec(10, 0).build_schedule().tau) == 10


# --- batch runner ---------------------------------------------------------

def test_run_chains_matches_single_chain_loop(drive_chains):
    # the vectorized block runner reproduces each chain stepped on its own
    gmm = two_point()
    sched = linear_beta_schedule(30, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", b=0.3, c=0.01)
    seed = 17
    res = run_chains(gmm, sched, cfg, n_chains=5, seed=seed)
    for i in range(5):
        rng = np.random.default_rng([seed, i])
        noise = rng.standard_normal((len(sched.tau) + 1, 1))
        x0, _ = drive_chains(gmm, sched, cfg, noise[0], lambda k, shape: noise[k + 1])
        assert np.allclose(res.samples[i], x0, rtol=0, atol=1e-12)


def test_run_chains_thread_invariance():
    gmm = two_point()
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla()
    runs = [run_chains(gmm, sched, cfg, 4100, seed=1, threads=k).samples
            for k in (1, 2, 8)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_run_chains_extension_stability():
    # adding chains never perturbs earlier ones
    gmm = two_point()
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla()
    small = run_chains(gmm, sched, cfg, 50, seed=9).samples
    big = run_chains(gmm, sched, cfg, 200, seed=9).samples
    assert np.array_equal(big[:50], small)


def test_run_chains_zero_chains():
    gmm = two_point()
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    res = run_chains(gmm, sched, SamplerConfig.vanilla(), 0, seed=0)
    assert res.samples.shape == (0, 1)
    assert res.tv.shape == (0,)
    assert res.trajectories.xs.shape == (0, len(sched.tau), 1)


def test_run_chains_heatmap_counts_conserved():
    gmm = two_point()
    sched = linear_beta_schedule(15, 1e-3, 0.05)
    n = 40
    res = run_chains(gmm, sched, SamplerConfig.vanilla(), n, seed=2,
                     heatmap={"t_bins": 5, "x_bins": 12, "x_min": -6, "x_max": 6})
    assert res.heatmap.counts.sum() == n * len(sched.tau)


def test_run_chains_heatmap_matches_build_heatmap():
    # the in-run accumulation and build_heatmap over the recorded trajectories
    # must bin every point into the same cell
    gmm = two_point()
    sched = respace(linear_beta_schedule(100, 1e-3, 0.05), 30, "quadratic")
    n = 300
    heat = {"t_bins": 7, "x_bins": 24, "x_min": -3.0, "x_max": 5.0}
    res = run_chains(gmm, sched, SamplerConfig(), n, seed=4,
                     trajectory_chains=n, heatmap=heat)
    assert res.trajectories.xs.shape == (n, len(sched.tau), 1)
    grid = build_heatmap(res.trajectories, t_bins=7, x_bins=24, x_range=(-3.0, 5.0),
                         t_range=(0.0, float(sched.tau[-1])))
    assert np.array_equal(res.heatmap.t_edges, grid.t_edges)
    assert np.array_equal(res.heatmap.x_edges, grid.x_edges)
    assert np.array_equal(res.heatmap.counts, grid.counts)
    assert grid.counts.sum() == n * len(sched.tau)


@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("respaced", [False, True], ids=["full", "respaced"])
def test_run_chains_tv_matches_trajectory_total_variation(D, respaced):
    # the in-run total variation and trajectory_total_variation over the
    # recorded trajectories must agree bit for bit for every chain, in one
    # block and across two
    gmm = two_point() if D == 1 else GaussianMixtureModel(
        weights=[0.4, 0.6], means=[[-2.0, 1.0], [3.0, -1.0]], variances=[0.0, 0.3])
    sched = linear_beta_schedule(80, 1e-3, 0.05)
    if respaced:
        sched = respace(sched, 20, "quadratic")
    for n in (60, 2100):
        res = run_chains(gmm, sched, SamplerConfig(), n, seed=6, trajectory_chains=n)
        ref = trajectory_total_variation(res.trajectories)
        assert ref.shape == (n,)
        assert np.array_equal(res.tv, ref)


def test_respaced_k_equals_t_matches_full_schedule():
    gmm = two_point()
    full = linear_beta_schedule(100, 1e-3, 0.05)
    sub = respace(full, 100, "uniform")
    cfg = SamplerConfig.vanilla()
    a = run_chains(gmm, full, cfg, 32, seed=5).samples
    b = run_chains(gmm, sub, cfg, 32, seed=5).samples
    assert np.array_equal(a, b)


# --- file emission --------------------------------------------------------

_SPECIAL_VALUES = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-320, 0.1, -7.0]


def _reference_rows(path, header, rows):
    """csv.writer with format(v, ".17g") floats, as the writers once were."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ints, floats in rows:
            writer.writerow(list(ints) + [format(v, ".17g") for v in floats])


@pytest.mark.parametrize("D,n", [(1, 5000), (16, 5000), (1, 0), (16, 4096)],
                         ids=["1", "16", "1-no-rows", "16-one-chunk"])
def test_samples_csv_bytes_match_csv_writer_reference(tmp_path, D, n):
    rng = np.random.default_rng(D)
    samples = rng.standard_normal((n, D)) * 10.0 ** rng.integers(-300, 300, (n, D))
    samples.flat[:len(_SPECIAL_VALUES)] = _SPECIAL_VALUES[:samples.size]
    _write_samples_csv(tmp_path / "got.csv", samples)
    _reference_rows(tmp_path / "ref.csv", ["chain_id"] + [f"x{d}" for d in range(D)],
                    [((i,), row) for i, row in enumerate(samples)])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("D", [1, 16])
def test_trajectories_csv_bytes_match_csv_writer_reference(tmp_path, D):
    rng = np.random.default_rng(D)
    xs = rng.standard_normal((3, 20, D))
    x0 = rng.standard_normal((3, 20, D)) * 1e-310
    for i in range(3):
        xs[i].flat[:len(_SPECIAL_VALUES)] = _SPECIAL_VALUES
    traj = Trajectory(ts=np.arange(19, -1, -1), xs=xs, x0_hats=x0)
    _write_trajectories_csv(tmp_path / "got.csv", traj)
    header = (["chain_id", "step_index", "t"] + [f"x{d}" for d in range(D)]
              + [f"x0_hat{d}" for d in range(D)])
    _reference_rows(tmp_path / "ref.csv", header,
                    [((i, k, int(traj.ts[k])), list(xs[i, k]) + list(x0[i, k]))
                     for i in range(3) for k in range(20)])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_execute_run_outputs(tmp_path):
    spec = RunSpec.from_dict(base_spec_dict(
        heatmap={"t_bins": 4, "x_bins": 8, "x_min": -6, "x_max": 6}))
    result = execute_run(spec, tmp_path)
    for name in ("samples.csv", "trajectories.csv", "heatmap.csv",
                 "metrics.json", "manifest.json"):
        assert (tmp_path / name).exists(), name

    with open(tmp_path / "samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    assert list(rows[0]) == ["chain_id", "x0"]
    assert float(rows[5]["x0"]) == result.samples[5, 0]

    with open(tmp_path / "trajectories.csv", newline="") as fh:
        trows = list(csv.DictReader(fh))
    assert len(trows) == 4 * 50
    assert list(trows[0]) == ["chain_id", "step_index", "t", "x0", "x0_hat0"]

    with open(tmp_path / "metrics.json") as fh:
        met = json.load(fh)
    assert met["n_samples"] == 64
    assert met["w1"] is not None
    assert len(met["mode_stats"]) == 2

    with open(tmp_path / "manifest.json") as fh:
        man = json.load(fh)
    assert man["spec"] == spec.to_dict()
    assert RunSpec.from_dict(man["spec"]) == spec
    assert "version" in man


def test_execute_run_byte_identical_across_threads(tmp_path):
    spec = RunSpec.from_dict(base_spec_dict(n_chains=4100, trajectory_chains=2))
    digests = set()
    for k in (1, 2, 8):
        out = tmp_path / f"t{k}"
        execute_run(replace(spec, threads=k), out)
        digests.add(hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest())
    assert len(digests) == 1


def test_execute_run_zero_chains(tmp_path):
    spec = RunSpec.from_dict(base_spec_dict(n_chains=0, trajectory_chains=0))
    execute_run(spec, tmp_path)
    with open(tmp_path / "metrics.json") as fh:
        met = json.load(fh)
    assert met["n_samples"] == 0
    assert met["w1"] is None


def test_execute_sweep_outputs(tmp_path):
    base = base_spec_dict(n_chains=200, trajectory_chains=0)
    base["sampler"] = {"method": "adaptive", "b": 0.5, "c": 0.0, "zeta": 0.0}
    sweep = SweepSpec.from_dict({"base": base, "axis": "b",
                                 "values": [0.5, 1.0], "seeds_per_cell": 2})
    rows = execute_sweep(sweep, tmp_path)
    assert len(rows) == 4
    with open(tmp_path / "sweep.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 4
    assert sum(int(r["best"]) for r in table) == 2  # both seeds of the argmin value
    with open(tmp_path / "sweep_summary.json") as fh:
        summary = json.load(fh)
    assert summary["axis"] == "b"
    assert float(summary["best_value"]) in (0.5, 1.0)


_ADAPTIVE = {"method": "adaptive", "b": 0.1, "c": 0.0, "zeta": 0.0}
_MODEL_2D = {"weights": [0.5, 0.5], "means": [[-1.0, 0.5], [2.0, -0.5]],
             "variances": [0.3, 0.3]}


@pytest.mark.parametrize("axis,values,base_over", [
    ("K", [10, 25], {}),
    ("b", [0.1, 0.35, 0.7], {"sampler": _ADAPTIVE}),
    ("eta_mode", ["deterministic", "ddpm_unit"], {}),
    ("K", [10, 25], {"model": _MODEL_2D}),
], ids=["K-integers", "b-floats", "eta-mode-strings", "D2-no-w1"])
def test_sweep_csv_bytes_match_csv_writer_reference(tmp_path, axis, values, base_over):
    base = base_spec_dict(trajectory_chains=0, **base_over)
    sweep = SweepSpec.from_dict({"base": base, "axis": axis, "values": values,
                                 "seeds_per_cell": 2})
    execute_sweep(sweep, tmp_path)
    # the reference runs each cell itself and writes the table as csv.writer did
    cells = []
    for value in sweep.values:
        for s in range(2):
            spec = sweep.cell_spec(value, s)
            model = spec.build_model()
            result = run_chains(model, spec.build_schedule(), spec.build_sampler_config(),
                                spec.n_chains, spec.seed, threads=spec.threads)
            cells.append((value, spec.seed, compute_metrics(result, model, spec.seed)))
    key = "w1" if model.D == 1 else "sliced_w1"
    means = {v: np.mean([met[key] for value, _, met in cells if value == v])
             for v in sweep.values}
    best = min(means, key=means.get)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "seed", "w1", "sliced_w1", "tv_mean", "best"])
        for value, seed, met in cells:
            writer.writerow([axis, value, seed]
                            + ["" if met[m] is None else format(met[m], ".17g")
                               for m in ("w1", "sliced_w1", "tv_mean")]
                            + [int(value == best)])
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    with open(tmp_path / "sweep.csv", newline="") as fh:
        empty = {(row["w1"] == "", row["sliced_w1"] == "") for row in csv.DictReader(fh)}
    assert empty == {(model.D > 1, model.D == 1)}


def test_multid_metrics_use_sliced_w1(tmp_path):
    d = base_spec_dict(n_chains=300, trajectory_chains=0)
    d["model"] = {"weights": [1.0], "means": [[0.5, -0.5]], "variances": [0.3]}
    spec = RunSpec.from_dict(d)
    execute_run(spec, tmp_path)
    with open(tmp_path / "metrics.json") as fh:
        met = json.load(fh)
    assert met["w1"] is None
    assert met["sliced_w1"] is not None and met["sliced_w1"] < 0.5
