"""Batch execution of reverse chains and file emission.

Chains are independent; chain i draws all of its noise from a dedicated
generator seeded with (master seed, i), so adding chains or changing the
thread count never perturbs existing ones. Blocks of chains are stepped
vectorized; file writes happen once, after every block has finished.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunSpec, SweepSpec
from .metrics import (HeatmapGrid, bin_trajectory_points, heatmap_grid,
                      mode_statistics, sliced_w1, wasserstein1_1d)
from .model import GaussianMixtureModel
from .samplers import ChainState, SamplerConfig, StepPlan, Trajectory, _step_core

__all__ = ["RunResult", "run_chains", "execute_run", "execute_sweep"]

_BLOCK = 2048  # chains per vectorized block; fixed so results never depend on threads


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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
    state = ChainState.init(noise[:, 0, :], schedule)

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
        comps = rng.choice(model.n_components, size=result.samples.shape[0],
                           p=model.weights)
        ref = model.means[comps] + np.sqrt(model.variances[comps])[:, None] \
            * rng.standard_normal(result.samples.shape)
        out["w1"] = None
        out["sliced_w1"] = sliced_w1(result.samples, ref, 128, rng)
        out["mode_stats"] = []
    return out


# Rows are formatted here rather than by csv.writer: "%.17g" gives the same
# text as format(v, ".17g"), no field needs quoting, and rows end in "\r\n"
# as csv.writer's do. Rows go out in chunks so no whole-file string is built.
_ROWS_PER_WRITE = 4096


def _write_samples_csv(path, samples: np.ndarray) -> None:
    D = samples.shape[1] if samples.ndim == 2 else 1
    fmt = "%d" + ",%.17g" * D + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["chain_id"] + [f"x{d}" for d in range(D)]) + "\r\n")
        for lo in range(0, samples.shape[0], _ROWS_PER_WRITE):
            chunk = samples[lo:lo + _ROWS_PER_WRITE].tolist()
            fh.write("".join([fmt % (i, *row) for i, row in enumerate(chunk, lo)]))


def _write_trajectories_csv(path, traj: Trajectory) -> None:
    D = traj.xs.shape[2]
    fmt = "%d,%d,%d" + ",%.17g" * (2 * D) + "\r\n"
    ts = traj.ts.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["chain_id", "step_index", "t"]
                          + [f"x{d}" for d in range(D)]
                          + [f"x0_hat{d}" for d in range(D)]) + "\r\n")
        for i, (xs, x0_hats) in enumerate(zip(traj.xs, traj.x0_hats)):
            rows = np.concatenate([xs, x0_hats], axis=1).tolist()
            fh.write("".join([fmt % (i, k, t, *row)
                              for k, (t, row) in enumerate(zip(ts, rows))]))


def execute_run(spec: RunSpec, out_dir, threads: int | None = None) -> RunResult:
    """Run a spec and write samples/trajectories/heatmap/metrics/manifest files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = spec.build_model()
    schedule = spec.build_schedule()
    config = spec.build_sampler_config()
    threads = spec.threads if threads is None else threads

    n_rec = 0
    if spec.trajectories:
        n_rec = spec.n_chains if spec.trajectory_chains is None else spec.trajectory_chains
    result = run_chains(model, schedule, config, spec.n_chains, spec.seed,
                        threads=threads, trajectory_chains=n_rec,
                        heatmap=spec.heatmap)

    _write_samples_csv(out / "samples.csv", result.samples)
    if spec.trajectories:
        _write_trajectories_csv(out / "trajectories.csv", result.trajectories)
    if result.heatmap is not None:
        result.heatmap.to_csv(out / "heatmap.csv")
    if spec.metrics:
        result.metrics = compute_metrics(result, model, spec.seed)
        with open(out / "metrics.json", "w") as fh:
            json.dump(result.metrics, fh, indent=2)
            fh.write("\n")
    with open(out / "manifest.json", "w") as fh:
        json.dump({"spec": spec.to_dict(), "version": __version__}, fh, indent=2)
        fh.write("\n")
    return result


def execute_sweep(sweep: SweepSpec, out_dir, threads: int | None = None) -> list[dict]:
    """Run every sweep cell; write the per-cell metrics table with the argmin marked."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in sweep.values:
        for s in range(sweep.seeds_per_cell):
            spec = sweep.cell_spec(value, s)
            model = spec.build_model()
            result = run_chains(model, spec.build_schedule(),
                                spec.build_sampler_config(), spec.n_chains,
                                spec.seed,
                                threads=threads if threads is not None else spec.threads)
            met = compute_metrics(result, model, spec.seed)
            rows.append({
                "axis": sweep.axis, "value": value, "seed": spec.seed,
                "w1": met["w1"], "sliced_w1": met["sliced_w1"],
                "tv_mean": met["tv_mean"],
            })

    # per-value mean of the quality metric, with the argmin cell marked
    key = "w1" if rows and rows[0]["w1"] is not None else "sliced_w1"
    means = {}
    for v in sweep.values:
        vals = [r[key] for r in rows if r["value"] == v]
        means[v] = float(np.mean(vals))
    best = min(means, key=means.get)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "seed", "w1", "sliced_w1", "tv_mean", "best"])
        for r in rows:
            writer.writerow([
                r["axis"], r["value"], r["seed"],
                _fmt(r["w1"]) if r["w1"] is not None else "",
                _fmt(r["sliced_w1"]) if r["sliced_w1"] is not None else "",
                _fmt(r["tv_mean"]) if r["tv_mean"] is not None else "",
                int(r["value"] == best),
            ])
    with open(out / "sweep_summary.json", "w") as fh:
        json.dump({"axis": sweep.axis, "metric": key,
                   "means": {str(v): means[v] for v in sweep.values},
                   "best_value": best}, fh, indent=2)
        fh.write("\n")
    return rows
