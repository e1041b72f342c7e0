"""Batch execution of reverse chains and file emission.

Chains are independent; chain i draws all of its noise from a dedicated
generator seeded with (master seed, i), so adding chains or changing the
thread count never perturbs existing ones. Blocks of chains are stepped
vectorized; file writes happen once, after every block has finished.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import RunSpec, SweepSpec
from .files import FLOAT, fresh_out_dir, write_csv, write_json
from .metrics import (HeatmapGrid, bin_trajectory_points, heatmap_grid,
                      mode_statistics, sliced_w1, wasserstein1_1d)
from .model import GaussianMixtureModel, sample_marginal
from .samplers import ChainState, SamplerConfig, StepPlan, Trajectory, _step_core

__all__ = ["RunResult", "run_chains", "execute_run", "execute_sweep"]

_BLOCK = 2048  # chains per vectorized block; fixed so results never depend on threads


@dataclass
class RunResult:
    samples: np.ndarray                 # (n, D)
    tv: np.ndarray                      # (n,) per-chain total variation, data space
    trajectories: Trajectory            # the first `trajectory_chains` chains
    heatmap: HeatmapGrid | None
    metrics: dict | None = None


def _chain_noise(seed: int, index: int, n_steps: int, D: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return rng.standard_normal((n_steps + 1, D))


def _run_block(model: GaussianMixtureModel, schedule, config: SamplerConfig,
               plan: StepPlan, seed: int, lo: int, hi: int, result: RunResult):
    """Step chains lo..hi-1, writing their rows of the result's samples, tv and
    trajectories in place; returns their heatmap counts (None without a heatmap)."""
    n = hi - lo
    K = plan.K
    D = model.D
    noise = np.empty((n, K + 1, D))
    for i in range(n):
        noise[i] = _chain_noise(seed, lo + i, K, D)
    state = ChainState.init(noise[:, 0, :], plan)

    record, grid = result.trajectories, result.heatmap
    n_rec = max(0, min(hi, record.xs.shape[0]) - lo)
    tv = result.tv[lo:hi]   # a view: the block adds into its own rows
    prev_x = None
    counts = None if grid is None else np.zeros_like(grid.counts)

    for k in range(K):
        state, x_next, x0_hat, _ = _step_core(state, model, schedule, config,
                                              noise[:, k + 1, :], plan, k)
        if prev_x is not None:
            tv += np.linalg.norm(x_next - prev_x, axis=-1)
        prev_x = x_next
        if n_rec:
            record.xs[lo:lo + n_rec, k] = x_next[:n_rec]
            record.x0_hats[lo:lo + n_rec, k] = x0_hat[:n_rec]
        if counts is not None:
            bin_trajectory_points(plan.t_prev[k], x_next, grid.t_edges, grid.x_edges, counts)

    result.samples[lo:hi] = prev_x     # the last step's x_{t-1} is x_0
    return counts


def run_chains(model: GaussianMixtureModel, schedule, config: SamplerConfig,
               n_chains: int, seed: int, threads: int = 1,
               trajectory_chains: int = 0,
               heatmap: dict | None = None) -> RunResult:
    """Run n_chains reverse chains on seeded noise; record the first trajectory_chains."""
    D = model.D
    plan = StepPlan.build(schedule, config)
    n_rec = min(trajectory_chains, n_chains)
    result = RunResult(
        samples=np.zeros((n_chains, D)), tv=np.zeros(n_chains),
        trajectories=Trajectory(ts=plan.t_prev.copy(), xs=np.empty((n_rec, plan.K, D)),
                                x0_hats=np.empty((n_rec, plan.K, D))),
        heatmap=None if heatmap is None else heatmap_grid(heatmap, schedule.tau[-1], D))

    def work(lo):
        return _run_block(model, schedule, config, plan, seed, lo,
                          min(lo + _BLOCK, n_chains), result)

    starts = range(0, n_chains, _BLOCK)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(work, starts))
    else:
        counts = [work(lo) for lo in starts]

    if result.heatmap is not None:
        for block_counts in counts:     # integer sums: the same in any order
            result.heatmap.counts[:] += block_counts
    return result


def compute_metrics(result: RunResult, model: GaussianMixtureModel, seed: int) -> dict:
    """Summary metrics against the exact data mixture."""
    out: dict = {
        "n_samples": int(result.samples.shape[0]),
        "tv_mean": float(np.mean(result.tv)) if result.tv.size else None,
        "tv_std": float(np.std(result.tv)) if result.tv.size else None,
    }
    if result.samples.shape[0] == 0:
        out.update({"w1": None, "sliced_w1": None, "mode_stats": []})
        return out
    if model.D == 1:
        out["w1"] = wasserstein1_1d(result.samples[:, 0], model)
        out["sliced_w1"] = None
        out["mode_stats"] = mode_statistics(result.samples[:, 0], model.means[:, 0])
    else:
        rng = np.random.default_rng([seed, 2**48])
        ref = sample_marginal(model, 1.0, result.samples.shape[0], rng)
        out["w1"] = None
        out["sliced_w1"] = sliced_w1(result.samples, ref, 128, rng)
        out["mode_stats"] = []
    return out


def _write_samples_csv(path, samples: np.ndarray) -> None:
    fmt = "%d" + ("," + FLOAT) * samples.shape[1]
    rows = (row for lo in range(0, len(samples), _BLOCK)    # one block of chains at a time
            for row in samples[lo:lo + _BLOCK].tolist())
    write_csv(path, ["chain_id"] + [f"x{d}" for d in range(samples.shape[1])],
              (fmt % (i, *row) for i, row in enumerate(rows)))


def _write_trajectories_csv(path, traj: Trajectory) -> None:
    D = traj.xs.shape[2]
    fmt = "%d,%d,%d" + ("," + FLOAT) * (2 * D)
    steps = list(enumerate(traj.ts.tolist()))
    chains = (np.concatenate([xs, x0_hats], axis=1).tolist()    # one chain at a time
              for xs, x0_hats in zip(traj.xs, traj.x0_hats))
    write_csv(path, ["chain_id", "step_index", "t"]
              + [f"{name}{d}" for name in ("x", "x0_hat") for d in range(D)],
              (fmt % (i, k, t, *row) for i, rows in enumerate(chains)
               for (k, t), row in zip(steps, rows)))


def execute_run(spec: RunSpec, out_dir) -> RunResult:
    """Run a spec and write samples/trajectories/heatmap/metrics/manifest files."""
    # the manifest, written last, marks a whole run
    out = fresh_out_dir(out_dir, ("manifest.json", "samples.csv", "trajectories.csv",
                                  "heatmap.csv", "metrics.json"))
    model = spec.build_model()
    schedule = spec.build_schedule()
    config = spec.build_sampler_config()

    n_rec = 0
    if spec.trajectories:
        n_rec = spec.n_chains if spec.trajectory_chains is None else spec.trajectory_chains
    result = run_chains(model, schedule, config, spec.n_chains, spec.seed,
                        threads=spec.threads, trajectory_chains=n_rec,
                        heatmap=spec.heatmap)

    _write_samples_csv(out / "samples.csv", result.samples)
    if spec.trajectories:
        _write_trajectories_csv(out / "trajectories.csv", result.trajectories)
    if result.heatmap is not None:
        result.heatmap.to_csv(out / "heatmap.csv")
    if spec.metrics:
        result.metrics = compute_metrics(result, model, spec.seed)
        write_json(out / "metrics.json", result.metrics)
    write_json(out / "manifest.json", {"spec": spec.to_dict(), "version": __version__})
    return result


def execute_sweep(sweep: SweepSpec, out_dir) -> list[tuple]:
    """Run every sweep cell and write the per-cell metrics table with the argmin
    value marked; returns each cell's (value, seed, metrics)."""
    out = fresh_out_dir(out_dir, ("sweep.csv", "sweep_summary.json"))
    cells = {value: [] for value in sweep.values}   # each value's (seed, metrics)
    for value, runs in cells.items():
        for s in range(sweep.seeds_per_cell):
            spec = sweep.cell_spec(value, s)
            model = spec.build_model()
            result = run_chains(model, spec.build_schedule(), spec.build_sampler_config(),
                                spec.n_chains, spec.seed, threads=spec.threads)
            runs.append((spec.seed, compute_metrics(result, model, spec.seed)))

    # per-value mean of the quality metric; the argmin value's cells are marked
    key = "w1" if model.D == 1 else "sliced_w1"
    means = {v: float(np.mean([met[key] for _, met in runs])) for v, runs in cells.items()}
    best = min(means, key=means.get)
    table = [(v, seed, met) for v, runs in cells.items() for seed, met in runs]
    write_csv(out / "sweep.csv", ["axis", "value", "seed", "w1", "sliced_w1", "tv_mean", "best"],
              [f"{sweep.axis},{v},{seed},"
               + ",".join("" if met[m] is None else FLOAT % met[m]
                          for m in ("w1", "sliced_w1", "tv_mean"))
               + f",{int(v == best)}" for v, seed, met in table])
    write_json(out / "sweep_summary.json",
               {"axis": sweep.axis, "metric": key,
                "means": {str(v): m for v, m in means.items()}, "best_value": best})
    return table
