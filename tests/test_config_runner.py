"""Run/sweep specs, batch execution, reproducibility, and file emission."""

import concurrent.futures
import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import difflab.metrics as metrics
import difflab.runner as runner
import difflab.samplers as samplers
from difflab.config import RunSpec, SpecError, SweepSpec
from difflab.model import EpsTerms, GaussianMixtureModel
from difflab.runner import (_block_noise, _write_samples_csv, _write_trajectories_csv,
                            compute_metrics, execute_run, execute_sweep, run_chains)
from difflab.samplers import SamplerConfig, SecondMomentError, StepPlan, Trajectory
from difflab.schedule import linear_beta_schedule, respace

from conftest import run_one, unit_gaussian
from oracles import build_heatmap, chain_noise, trajectory_total_variation


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
    # the vectorized block runner, which draws only the noise rows its plan uses,
    # reproduces each chain stepped on its own with a row drawn for every step.
    # Point masses snap the last step onto a mode; the smooth mixture shows
    # every step's noise in the samples.
    smooth = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-2.0], [4.0]],
                                  variances=[0.3, 0.3])
    seed = 17
    for gmm, eta in itertools.product((two_point(), smooth),
                                      ("ddpm_unit", "deterministic", "ddpm_hat")):
        # ddpm_hat needs a non-expanding per-step rate, so a flat beta
        sched = linear_beta_schedule(30, 1e-3, 1e-3 if eta == "ddpm_hat" else 0.05)
        cfg = SamplerConfig(method="adaptive", eta_mode=eta, b=0.3, c=0.01)
        res = run_one(gmm, sched, cfg, n_chains=5, seed=seed)
        for i in range(5):
            noise = chain_noise(seed, i, len(sched.tau) + 1, 1)
            x0, _ = drive_chains(gmm, sched, cfg, noise[0], lambda k, shape: noise[k + 1])
            assert np.allclose(res.samples[i], x0, rtol=0, atol=1e-12), (eta, i)


def test_run_chains_thread_invariance():
    gmm = two_point()
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla()
    runs = [run_one(gmm, sched, cfg, 4100, seed=1, threads=k).samples
            for k in (1, 2, 8)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_workers_never_share_a_noise_buffer(monkeypatch):
    # pool threads take and return reused noise buffers; a buffer handed to two
    # blocks at once would mix their draws. More workers than cores, and
    # frequent thread switches, on 13 blocks of 3 steps.
    gmm = two_point()
    sched = linear_beta_schedule(3, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla()
    n = 12 * 2048 + 5
    serial = run_one(gmm, sched, cfg, n, seed=4).samples
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_one(gmm, sched, cfg, n, seed=4, threads=8).samples
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled, serial)


@pytest.mark.parametrize("threads,n_chains,n_stacks,n_buffers",
                         [(1, 3 * 2048 + 5, 4, 1), (2, 700, 1, 1), (2, 4 * 2048, 4, 2)],
                         ids=["serial", "one-stack", "pool"])
def test_noise_buffers_are_made_on_the_calling_thread(monkeypatch, threads, n_chains,
                                                      n_stacks, n_buffers):
    # one buffer per worker, made on run_chains' calling thread before any
    # stack runs, and every stack draws into one of them. The first stack of
    # each worker waits for the others' first, so that no worker can run
    # every stack before another starts
    events, empty, block = [], np.empty, runner._run_block
    started, first_stacks = threading.Barrier(n_buffers), itertools.count()

    def recorded_empty(*args, **kwargs):
        array = empty(*args, **kwargs)
        events.append(("empty", threading.get_ident(), array))
        return array

    def watched(model, stack, result, store):
        events.append(("block", threading.get_ident(), store))
        if next(first_stacks) < n_buffers:
            started.wait(timeout=60)
        return block(model, stack, result, store)
    monkeypatch.setattr(runner, "_run_block", watched)
    monkeypatch.setattr(runner, "_STACK_FLOATS", 0)     # one block a stack
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    gmm, sched, cfg = two_point(), linear_beta_schedule(3, 1e-3, 0.05), SamplerConfig.vanilla()
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", recorded_empty)
        run_one(gmm, sched, cfg, n_chains, seed=5, threads=threads)
    first = next(i for i, (kind, _, _) in enumerate(events) if kind == "block")
    stores = [store for kind, _, store in events if kind == "block"]
    buffers = [store for i, store in enumerate(stores)
               if not any(store is other for other in stores[:i])]
    assert len(stores) == n_stacks and len(buffers) == n_buffers
    made = [array for kind, thread, array in events[:first]
            if kind == "empty" and thread == threading.get_ident()]
    assert all(any(buffer is array for array in made) for buffer in buffers)


def test_a_stack_that_raises_in_the_pool_surfaces_its_own_error(monkeypatch):
    # four cells, a stack each, on a pool of two. On a mixture this wide an
    # increment squares to 0 and adds nothing to x_bar, so no step moves a
    # chain, and cell 2's v (c=1: the last squared increment) reaches 0. Its
    # error surfaces, not one from the buffer list, and the next run gives
    # the bytes of a fresh one.
    monkeypatch.setattr(runner, "_STACK_FLOATS", 0)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    gmm = GaussianMixtureModel(weights=[1.0], means=[[0.0]], variances=[1e300])
    sched = linear_beta_schedule(6, 1e-3, 0.05)
    cfgs = [SamplerConfig(method="adaptive", eta_mode="deterministic", c=c, zeta=zeta)
            for c, zeta in ((0.5, 1e-8), (0.0, 0.0), (1.0, 0.0), (0.5, 1e-8))]
    seeds, good = (1, 2, 3, 4), (*cfgs[:2], cfgs[0], cfgs[3])

    def run(configs):
        return run_chains(gmm, (sched,) * 4, configs, 700, seeds, threads=2)
    fresh = run(good)
    with pytest.raises(SecondMomentError, match=r"\(c=1\.0, zeta=0\.0\)"):
        run(tuple(cfgs))
    for got, want in zip(run(good), fresh):
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.tv.tobytes() == want.tv.tobytes()


_REPEATED_POOLED_RUNS = """
import os, resource, sys
import numpy as np
from difflab.config import RunSpec
from difflab.runner import execute_run
os.cpu_count = lambda: 2    # a pool of two workers on any machine
rng = np.random.default_rng([1, 16])
spec = RunSpec.from_dict({
    "model": {"weights": [0.125] * 8, "means": rng.normal(0.0, 1.5, (8, 16)).tolist(),
              "variances": rng.uniform(0.05, 0.5, 8).tolist()},
    "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02,
                 "respace_k": 50, "respace_mode": "quadratic"},
    "sampler": {"method": "vanilla", "eta_mode": "ddpm_unit"},
    "n_chains": 8192, "seed": 1, "threads": 2,
    "trajectories": False, "heatmap": None, "metrics": True})
peaks = []
for i in range(3):
    execute_run(spec, os.path.join(sys.argv[1], f"run{i}"))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(peaks[2] - peaks[0])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_repeated_pooled_runs_hold_no_second_set_of_noise_buffers(tmp_path):
    # three mix16d-shaped runs (8192 chains, D=16, K=50, a pool of two) in a
    # fresh interpreter: from the first to the third, the peak RSS grows by
    # less than one worker's noise buffer, 2048 chains x 50 rows x 16 floats.
    # Buffers made on pool threads stayed in those threads' malloc arenas
    # once freed, and later runs grew the main heap past them.
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _REPEATED_POOLED_RUNS, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 < 2048 * 50 * 16 * 8


def test_run_chains_extension_stability():
    # adding chains never perturbs earlier ones
    gmm = two_point()
    sched = linear_beta_schedule(20, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla()
    small = run_one(gmm, sched, cfg, 50, seed=9).samples
    big = run_one(gmm, sched, cfg, 200, seed=9).samples
    assert np.array_equal(big[:50], small)


@pytest.mark.parametrize("block", [4, 100, 2048])
def test_chains_keep_their_bytes_across_group_and_block_edges(monkeypatch, block):
    # chain counts at a noise group's edge (63, 64, 65) and past a block's
    # (2049), with blocks that start inside groups (4, 100) or on their edges:
    # each chain's samples and tv are the same at 1 and 2 threads, and the
    # same when chains are added. ddpm_unit steps put noise into tv
    monkeypatch.setattr(runner, "_BLOCK", block)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    gmm, sched = two_point(), linear_beta_schedule(12, 1e-3, 0.05)
    cfg = SamplerConfig.vanilla("ddpm_unit")
    full = run_one(gmm, sched, cfg, 2100, seed=6)
    for n in (63, 64, 65, 2049):
        for threads in (1, 2):
            got = run_one(gmm, sched, cfg, n, seed=6, threads=threads)
            assert got.samples.tobytes() == full.samples[:n].tobytes(), (n, threads)
            assert got.tv.tobytes() == full.tv[:n].tobytes(), (n, threads)


def test_block_noise_draws_into_the_head_of_a_reused_store():
    # a worker's noise buffer is sized for a whole block and reused by each of
    # its blocks; a partial block draws into its head, over the last block's rows
    plan = StepPlan.build(linear_beta_schedule(5, 1e-3, 0.05), SamplerConfig.vanilla(),
                          unit_gaussian(2))
    store = np.full(7 * 5 * 2, np.nan)
    noise = _block_noise(5, 62, 65, plan, 2, store[:30].reshape(5, 3, 2))
    assert noise.shape == (5, 3, 2) and np.shares_memory(noise, store[:30])
    assert noise.tobytes() == _block_noise(5, 62, 65, plan, 2).tobytes()


@pytest.mark.parametrize("eta", ["deterministic", "ddpm_unit", "ddpm_hat"])
def test_block_noise_draws_the_prefix_its_plan_uses(eta):
    # x_T and one row per step up to the last noisy step, the prefix of each
    # chain's full stream; no noisy step is left without its row
    sched = respace(linear_beta_schedule(40, 0.02, 0.02), 12, "quadratic")   # fits ddpm_hat
    plan = StepPlan.build(sched, SamplerConfig.vanilla(eta), unit_gaussian(2))
    noise = _block_noise(8, 60, 70, plan, 2)
    rows = noise.shape[0]
    assert rows == {"deterministic": 1, "ddpm_unit": 12, "ddpm_hat": 12}[eta]
    assert all(k + 1 < rows for k in np.flatnonzero(plan.noise))
    for i, got in zip(range(60, 70), noise.transpose(1, 0, 2)):
        assert got.tobytes() == chain_noise(8, i, plan.K + 1, 2)[:rows].tobytes()


def test_run_chains_steps_a_tuple_of_seeds_in_stacks_under_a_noise_budget(monkeypatch):
    # 5 seeds x 700 chains, each slice's noise store 700 x 6 rows: a budget of
    # two slices gives stacks of 2, 2 and 1 seeds, shared out to a pool; each
    # seed's result is the bytes of its own run
    gmm = two_point()
    sched = linear_beta_schedule(6, 1e-3, 0.05)
    cfg = SamplerConfig(method="adaptive", b=0.3, c=0.05)
    stacks, block = [], runner._run_block

    def watched(*args):
        stacks.append((args[1].seeds, args[1].cells, args[1].los))
        return block(*args)
    monkeypatch.setattr(runner, "_run_block", watched)
    monkeypatch.setattr(runner, "_STACK_FLOATS", 2 * 700 * 6)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    seeds = (9, 2, 30, 4, 5)
    stacked = run_chains(gmm, (sched,) * 5, (cfg,) * 5, 700, seeds, threads=4)
    # pool threads may run the stacks in any order
    assert sorted(stacks) == sorted([((9, 2), (0, 1), (0, 0)), ((30, 4), (2, 3), (0, 0)),
                                     ((5,), (4,), (0,))])
    assert isinstance(stacked, list) and len(stacked) == 5
    for seed, got in zip(seeds, stacked):
        alone = run_one(gmm, sched, cfg, 700, seed)
        assert got.samples.tobytes() == alone.samples.tobytes()
        assert got.tv.tobytes() == alone.tv.tobytes()


@pytest.mark.parametrize("kwargs", [{"trajectory_chains": 1},
                                    {"heatmap": {"t_bins": 2, "x_bins": 4,
                                                 "x_min": -1.0, "x_max": 1.0}}])
def test_a_run_of_two_cells_records_no_trajectories_or_heatmap(kwargs):
    # one trajectory array or heatmap could hold only one cell's chains; a
    # run of one cell records them
    sched, config = linear_beta_schedule(5, 1e-3, 0.05), SamplerConfig.vanilla()
    with pytest.raises(ValueError, match="more than one cell"):
        run_chains(two_point(), (sched, sched), (config, config), 10, (1, 2), **kwargs)
    assert len(run_chains(two_point(), (sched,), (config,), 10, (1,), **kwargs)) == 1


@pytest.mark.parametrize("lengths", [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 3)])
def test_run_chains_needs_as_many_schedules_and_configs_as_seeds(lengths):
    sched, config = linear_beta_schedule(5, 1e-3, 0.05), SamplerConfig.vanilla()
    n_scheds, n_configs, n_seeds = lengths
    with pytest.raises(ValueError, match="as many schedules and as many configs as seeds"):
        run_chains(two_point(), (sched,) * n_scheds, (config,) * n_configs, 10,
                   tuple(range(n_seeds)))


def test_run_chains_zero_chains():
    gmm = two_point()
    sched = linear_beta_schedule(10, 1e-3, 0.05)
    res = run_one(gmm, sched, SamplerConfig.vanilla(), 0, seed=0)
    assert res.samples.shape == (0, 1)
    assert res.tv.shape == (0,)
    assert res.trajectories.xs.shape == (0, len(sched.tau), 1)


def test_run_chains_heatmap_counts_conserved():
    gmm = two_point()
    sched = linear_beta_schedule(15, 1e-3, 0.05)
    n = 40
    res = run_one(gmm, sched, SamplerConfig.vanilla(), n, seed=2,
                  heatmap={"t_bins": 5, "x_bins": 12, "x_min": -6, "x_max": 6})
    assert res.heatmap.counts.sum() == n * len(sched.tau)


def test_run_chains_heatmap_matches_build_heatmap():
    # the in-run accumulation and build_heatmap over the recorded trajectories
    # must bin every point into the same cell, in one block and merged from two
    gmm = two_point()
    sched = respace(linear_beta_schedule(100, 1e-3, 0.05), 30, "quadratic")
    heat = {"t_bins": 7, "x_bins": 24, "x_min": -3.0, "x_max": 5.0}
    for n, threads in ((300, 1), (2100, 2)):
        res = run_one(gmm, sched, SamplerConfig(), n, seed=4, threads=threads,
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
        res = run_one(gmm, sched, SamplerConfig(), n, seed=6, trajectory_chains=n)
        ref = trajectory_total_variation(res.trajectories)
        assert ref.shape == (n,)
        assert np.array_equal(res.tv, ref)


def test_respaced_k_equals_t_matches_full_schedule():
    gmm = two_point()
    full = linear_beta_schedule(100, 1e-3, 0.05)
    sub = respace(full, 100, "uniform")
    cfg = SamplerConfig.vanilla()
    a = run_one(gmm, full, cfg, 32, seed=5).samples
    b = run_one(gmm, sub, cfg, 32, seed=5).samples
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
    # three blocks, so the heatmap merges counts from several blocks; the
    # manifest records the thread count and is left out
    spec = RunSpec.from_dict(base_spec_dict(
        n_chains=4100, trajectory_chains=2,
        heatmap={"t_bins": 7, "x_bins": 24, "x_min": -3.0, "x_max": 5.0}))
    digests = set()
    for k in (1, 2, 8):
        out = tmp_path / f"t{k}"
        execute_run(replace(spec, threads=k), out)
        digests.add(tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                          for name in ("samples.csv", "trajectories.csv", "heatmap.csv",
                                       "metrics.json")))
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
_MODEL_1D_SMOOTH = {"weights": [0.3, 0.7], "means": [[-1.0], [2.0]],
                    "variances": [0.25, 0.0]}    # W1 by bisection


@pytest.mark.parametrize("axis,values,base_over", [
    ("K", [10, 25], {}),
    ("b", [0.1, 0.35, 0.7], {"sampler": _ADAPTIVE}),
    ("eta_mode", ["deterministic", "ddpm_unit"], {}),
    ("K", [10, 25], {"model": _MODEL_2D}),
    ("K", [10, 25], {"model": _MODEL_1D_SMOOTH}),
    ("K", [10, 25, 40], {"sampler": {"method": "vanilla", "eta_mode": "deterministic"},
                         "n_chains": 2100}),
    ("eta_mode", ["ddpm_unit", "deterministic"], {"model": _MODEL_2D}),
], ids=["K-integers", "b-floats", "eta-mode-strings", "D2-no-w1", "smooth-w1",
        "deterministic-two-blocks", "noisy-cell-first"])
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
            result = run_one(model, spec.build_schedule(), spec.build_sampler_config(),
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


@pytest.mark.parametrize("cpus,width", [(2, 2), (None, None)], ids=["two-cpus", "unknown"])
def test_run_chains_pool_is_never_wider_than_the_machine(monkeypatch, cpus, width):
    # three blocks and 100000 threads asked for: the pool gets one worker per cpu,
    # and with no cpu count known the blocks run on the calling thread
    widths = []
    pool = concurrent.futures.ThreadPoolExecutor

    def recorded(max_workers):
        widths.append(max_workers)
        return pool(max_workers=max_workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorded)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
    gmm, sched, cfg = two_point(), linear_beta_schedule(4, 1e-3, 0.05), SamplerConfig.vanilla()
    samples = run_one(gmm, sched, cfg, 4100, seed=1, threads=100000).samples
    assert widths == ([] if width is None else [width])
    assert np.array_equal(samples, run_one(gmm, sched, cfg, 4100, seed=1).samples)


def test_execute_sweep_builds_the_model_once(tmp_path, monkeypatch):
    builds = []
    build = RunSpec.build_model

    def counted(self):
        builds.append(self)
        return build(self)
    sweep = SweepSpec.from_dict({"base": base_spec_dict(trajectory_chains=0), "axis": "K",
                                 "values": [10, 25], "seeds_per_cell": 2})
    monkeypatch.setattr(RunSpec, "build_model", counted)
    execute_sweep(sweep, tmp_path)
    assert builds == [sweep.base]


def test_execute_sweep_computes_the_w1_reference_once(tmp_path, monkeypatch):
    # every cell has the base's model and chain count, so one set of quantiles
    # serves every cell's W1
    calls = []
    quantile = metrics.mixture_quantile

    def counted(gmm, u):
        calls.append(len(u))
        return quantile(gmm, u)
    sweep = SweepSpec.from_dict({"base": base_spec_dict(trajectory_chains=0,
                                                        model=_MODEL_1D_SMOOTH),
                                 "axis": "K", "values": [10, 25], "seeds_per_cell": 2})
    monkeypatch.setattr(metrics, "mixture_quantile", counted)
    execute_sweep(sweep, tmp_path)
    assert calls == [sweep.base.n_chains]


def _sweep_draws(tmp_path, monkeypatch, eta_mode, n_chains=2100):
    """The (seed, group) of each _chain_noise call of a 3 K x 2 seed sweep of
    n_chains chains (by default two blocks, 33 groups), and the (n, seeds,
    block starts) of each stack."""
    calls, stacks = [], []
    group_noise, block = runner._chain_noise, runner._run_block

    def counted(*args):
        calls.append(args[:2])
        return group_noise(*args)

    def watched(*args):
        stacks.append((args[1].n, args[1].seeds, args[1].los))
        return block(*args)
    monkeypatch.setattr(runner, "_chain_noise", counted)
    monkeypatch.setattr(runner, "_run_block", watched)
    base = base_spec_dict(trajectory_chains=0, n_chains=n_chains,
                          sampler={"method": "vanilla", "eta_mode": eta_mode})
    execute_sweep(SweepSpec.from_dict({"base": base, "axis": "K", "values": [5, 10, 20],
                                       "seeds_per_cell": 2}), tmp_path)
    return calls, stacks


def test_deterministic_sweep_draws_each_seeds_x_T_once(tmp_path, monkeypatch):
    # the 6 cells' full blocks are one stack and their partial blocks another;
    # in each, the first slice of a seed draws its x_T and the others read it
    calls, stacks = _sweep_draws(tmp_path, monkeypatch, "deterministic")
    assert len(calls) == len(set(calls)) == 2 * 33     # 6 cells, two seeds
    assert stacks == [(2048, (3, 4) * 3, (0,) * 6), (52, (3, 4) * 3, (2048,) * 6)]


def test_deterministic_stacked_sweep_draws_each_seeds_x_T_once(tmp_path, monkeypatch):
    # 512 chains: the cells, K = 20, 20, 10, 10, 5, 5, step as one stack
    calls, stacks = _sweep_draws(tmp_path, monkeypatch, "deterministic", n_chains=512)
    assert len(calls) == len(set(calls)) == 2 * 8
    assert stacks == [(512, (3, 4) * 3, (0,) * 6)]


def _counted_sweep(tmp_path, monkeypatch, sweep):
    """The step counts of the StepPlans a sweep builds, in order, and the point
    shapes of its predictor calls."""
    plans, eps_calls = [], []
    build, analytic_eps = StepPlan.build.__func__, samplers.analytic_eps

    def counted_build(cls, *args):
        plans.append(len(args[0].tau))
        return build(cls, *args)

    def counted_eps(*args, **kwargs):
        eps_calls.append(args[1].shape)
        return analytic_eps(*args, **kwargs)
    monkeypatch.setattr(StepPlan, "build", classmethod(counted_build))
    monkeypatch.setattr(samplers, "analytic_eps", counted_eps)
    execute_sweep(sweep, tmp_path)
    return plans, eps_calls


def test_stacked_sweep_builds_one_plan_and_steps_once_per_value(tmp_path, monkeypatch):
    # 2 values x 2 seeds of 512 chains are one stack, K = 25, 25, 10, 10: one
    # StepPlan per value, and each step is one predictor call for every cell
    # still stepping, but for step 9: the K = 10 cells' last row is noiseless
    # and the others' is not, so each pair takes its own call
    sweep = SweepSpec.from_dict({"base": base_spec_dict(trajectory_chains=0, n_chains=512),
                                 "axis": "K", "values": [10, 25], "seeds_per_cell": 2})
    plans, eps_calls = _counted_sweep(tmp_path, monkeypatch, sweep)
    assert plans == [10, 25]     # built in value order; run largest first
    assert eps_calls == [(4, 512, 1)] * 9 + [(2, 512, 1)] * (2 + 15)


def test_sweep_k_shape_makes_1000_predictor_calls(tmp_path, monkeypatch):
    # the benchmark's K sweep: 5 values x 2 seeds of 512 deterministic vanilla
    # chains run as one stack; one call per step of its longest cell, each
    # over the cells still stepping
    base = base_spec_dict(trajectory_chains=0, n_chains=512,
                          schedule={"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
                          sampler={"method": "vanilla", "eta_mode": "deterministic"})
    sweep = SweepSpec.from_dict({"base": base, "axis": "K", "values": [50, 100, 250, 500, 1000],
                                 "seeds_per_cell": 2})
    plans, eps_calls = _counted_sweep(tmp_path, monkeypatch, sweep)
    assert plans == [50, 100, 250, 500, 1000]
    assert len(eps_calls) == 1000
    assert eps_calls == ([(10, 512, 1)] * 50 + [(8, 512, 1)] * 50 + [(6, 512, 1)] * 150
                         + [(4, 512, 1)] * 250 + [(2, 512, 1)] * 500)


def test_equal_configs_share_one_plan_and_step_on_float_rows(monkeypatch):
    # cells of one schedule whose configs are equal but distinct objects get
    # one plan; cells of equal schedules that are distinct objects get two
    # plans of equal values. Either way their stack steps on rows that hold
    # each coefficient once: floats, and the predictor's terms with no slice axis
    gmm = GaussianMixtureModel(weights=[0.5, 0.5], means=[[-1.0], [2.0]], variances=[0.1, 0.0])
    sched, config = linear_beta_schedule(12, 0.02, 0.02), SamplerConfig()
    wants = [run_one(gmm, sched, config, 5, seed).samples.tobytes() for seed in (1, 2)]
    builds, calls = [], []
    build, analytic_eps = StepPlan.build.__func__, samplers.analytic_eps

    def counted_build(cls, *args):
        builds.append(args[1])
        return build(cls, *args)

    def counted_eps(gmm, x, alpha, work, terms, i):
        calls.append((alpha, terms, i))
        return analytic_eps(gmm, x, alpha, work, terms, i)
    monkeypatch.setattr(StepPlan, "build", classmethod(counted_build))
    monkeypatch.setattr(samplers, "analytic_eps", counted_eps)
    for schedules, plans in (((sched, sched), 1),
                             ((sched, linear_beta_schedule(12, 0.02, 0.02)), 2)):
        builds.clear()
        calls.clear()
        results = run_chains(gmm, schedules, (config, replace(config)), 5, (1, 2))
        assert builds == [config] * plans
        assert len(calls) == 12
        for alpha, terms, i in calls:
            assert alpha is None    # the predictor reads row i of terms
            row = [getattr(terms, name)[i] for name in EpsTerms.names]
            assert all(type(term) is float or term.ndim == 2 for term in row)
        assert [got.samples.tobytes() for got in results] == wants


def test_noisy_sweep_draws_for_every_cell(tmp_path, monkeypatch):
    # a noisy slice uses rows past x_T, so each of the 6 cells draws its own
    calls, stacks = _sweep_draws(tmp_path, monkeypatch, "ddpm_unit")
    assert len(calls) == 6 * 33 and len(set(calls)) == 2 * 33
    assert stacks == [(2048, (3, 4) * 3, (0,) * 6), (52, (3, 4) * 3, (2048,) * 6)]


def _fig4_spec(**over) -> dict:
    spec = json.loads(resources.files("difflab").joinpath("specs", "toy_fig4.json").read_text())
    spec.update(over)
    return spec


def test_grouping_stacks_each_benchmark_shape():
    # fig4 (10,000 chains, D=1, 200 rows of noise a chain): two 2048-chain
    # slices' noise fits the 8 MiB store and three do not, and the partial
    # block stacks alone
    fig4 = RunSpec.from_dict(_fig4_spec())
    plan = StepPlan.build(fig4.build_schedule(), fig4.build_sampler_config(),
                          fig4.build_model())
    assert runner._group([plan], 10000, 1) == [
        (2048, [(0, 0), (0, 2048)]), (2048, [(0, 4096), (0, 6144)]), (1808, [(0, 8192)])]
    # mix16d (8192 chains, D=16, K=50 ddpm_unit): one slice's noise is past 8 MiB
    plan = StepPlan.build(respace(linear_beta_schedule(1000, 1e-4, 0.02), 50, "quadratic"),
                          SamplerConfig.vanilla(), unit_gaussian(16))
    assert runner._group([plan], 8192, 16) == [(2048, [(0, lo)]) for lo in range(0, 8192, 2048)]
    # sweep_k (10 deterministic cells of 512 chains): each slice holds x_T only
    full = linear_beta_schedule(1000, 1e-4, 0.02)
    plans = [StepPlan.build(respace(full, K), SamplerConfig.vanilla("deterministic"), two_point())
             for K in (1000, 1000, 500, 500, 250, 250, 100, 100, 50, 50)]
    assert runner._group(plans, 512, 1) == [(512, [(cell, 0) for cell in range(10)])]


def test_fig4_shape_makes_600_predictor_and_binning_calls(monkeypatch):
    # the stacks {0, 2048}, {4096, 6144} and {8192} take 200 steps each, one
    # predictor call and one heatmap binning per step
    eps_calls, bin_calls = [], []
    analytic_eps, bin_points = samplers.analytic_eps, runner.bin_trajectory_points

    def counted_eps(*args, **kwargs):
        eps_calls.append(args[1].shape)
        return analytic_eps(*args, **kwargs)

    def counted_bin(grid, row, xs, counts):
        bin_calls.append(xs.shape)
        return bin_points(grid, row, xs, counts)
    monkeypatch.setattr(samplers, "analytic_eps", counted_eps)
    monkeypatch.setattr(runner, "bin_trajectory_points", counted_bin)
    spec = RunSpec.from_dict(_fig4_spec())
    result = run_one(spec.build_model(), spec.build_schedule(), spec.build_sampler_config(),
                     10000, 0, trajectory_chains=50, heatmap=spec.heatmap)
    assert eps_calls == bin_calls == [(2, 2048, 1)] * 400 + [(1, 1808, 1)] * 200
    assert result.heatmap.counts.sum() == 10000 * 200


def _run_and_sweep_digests(tmp_path, threads: int) -> dict:
    """Every file but the manifest of a run of 4 full blocks and a partial one
    that records 2100 chains, across a stacked slice boundary, and bins a
    heatmap; and of a noisy adaptive sweep of two blocks a cell."""
    out = tmp_path / f"run_{threads}"
    execute_run(RunSpec.from_dict(_fig4_spec(n_chains=8240, trajectory_chains=2100,
                                             threads=threads)), out)
    sweep = SweepSpec.from_dict({
        "base": base_spec_dict(
            n_chains=2100, trajectory_chains=0, threads=threads, model=_MODEL_1D_SMOOTH,
            schedule={"T": 40, "beta_start": 1e-3, "beta_end": 0.1},
            sampler={"method": "adaptive", "eta_mode": "ddpm_unit", "b": 0.3, "c": 0.01}),
        "axis": "b", "values": [0.2, 0.5], "seeds_per_cell": 2})
    execute_sweep(sweep, tmp_path / f"sweep_{threads}")
    return {f"{d.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for d in (out, tmp_path / f"sweep_{threads}") for p in sorted(d.iterdir())
            if p.name != "manifest.json"}


@pytest.mark.parametrize("budget", [0, 1 << 62], ids=["one_slice_a_stack", "unlimited"])
def test_the_stack_budget_moves_no_byte(tmp_path, monkeypatch, budget):
    # the noise-store budget sets only how slices stack: at zero every slice
    # of a run stacks alone, and unlimited every slice of one n stacks together
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    default = _run_and_sweep_digests(tmp_path / "default", 1)
    monkeypatch.setattr(runner, "_STACK_FLOATS", budget)
    for threads in (1, 2):
        got = _run_and_sweep_digests(tmp_path / f"budget_{threads}", threads)
        assert {k.replace(f"_{threads}/", "_1/"): v for k, v in got.items()} == default
