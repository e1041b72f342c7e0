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
from .metrics import (HeatmapGrid, bin_trajectory_points, mode_statistics,
                      sliced_w1, wasserstein1_1d)
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
    trajectories: list[Trajectory]      # first `trajectory_chains` chains
    heatmap: HeatmapGrid | None
    metrics: dict | None = None


def _chain_noise(seed: int, index: int, n_steps: int, D: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return rng.standard_normal((n_steps + 1, D))


def _run_block(model: GaussianMixtureModel, schedule, config: SamplerConfig,
               plan: StepPlan, seed: int, lo: int, hi: int, n_record: int,
               heat_edges) -> tuple:
    n = hi - lo
    K = plan.K
    D = model.D
    noise = np.empty((n, K + 1, D))
    for i in range(n):
        noise[i] = _chain_noise(seed, lo + i, K, D)
    state = ChainState.init(noise[:, 0, :], schedule)

    n_rec = max(0, min(hi, n_record) - lo)
    rec_xs = np.empty((n_rec, K, D)) if n_rec else None
    rec_x0 = np.empty((n_rec, K, D)) if n_rec else None
    rec_dx = np.empty((n_rec, K, D)) if n_rec else None

    tv = np.zeros(n)
    prev_x = None
    counts = None
    if heat_edges is not None:
        t_edges, x_edges = heat_edges
        counts = np.zeros((len(t_edges) - 1, len(x_edges) - 1), dtype=np.int64)

    for k in range(K):
        state, x_next, x0_hat, dxb = _step_core(state, model, schedule, config,
                                                noise[:, k + 1, :], plan, k)
        if prev_x is not None:
            tv += np.linalg.norm(x_next - prev_x, axis=-1)
        prev_x = x_next
        if n_rec:
            rec_xs[:, k] = x_next[:n_rec]
            rec_x0[:, k] = x0_hat[:n_rec]
            rec_dx[:, k] = dxb[:n_rec]
        if counts is not None:
            bin_trajectory_points(np.full(n, plan.t_prev[k], dtype=float), x_next,
                                  t_edges, x_edges, counts)

    trajs = [
        Trajectory(ts=plan.t_prev.copy(), xs=rec_xs[i], x0_hats=rec_x0[i], increments=rec_dx[i])
        for i in range(n_rec)
    ]
    return lo, prev_x, tv, trajs, counts     # the last step's x_{t-1} is x_0


def run_chains(model: GaussianMixtureModel, schedule, config: SamplerConfig,
               n_chains: int, seed: int, threads: int = 1,
               trajectory_chains: int | None = None,
               heatmap: dict | None = None) -> RunResult:
    """Execute n_chains reverse chains with per-chain seeded noise streams."""
    D = model.D
    plan = StepPlan.build(schedule, config)
    if trajectory_chains is None:
        trajectory_chains = n_chains if config.record_trajectory else 0
    heat_edges = None
    grid = None
    if heatmap is not None:
        if D != 1:
            raise ValueError("heatmaps are for 1D runs")
        t_edges = np.linspace(0.0, float(schedule.tau[-1]), int(heatmap["t_bins"]) + 1)
        x_edges = np.linspace(float(heatmap.get("x_min", -6.0)),
                              float(heatmap.get("x_max", 6.0)),
                              int(heatmap["x_bins"]) + 1)
        heat_edges = (t_edges, x_edges)

    samples = np.zeros((n_chains, D))
    tv = np.zeros(n_chains)
    trajs: list[Trajectory] = []
    total_counts = None

    blocks = [(lo, min(lo + _BLOCK, n_chains)) for lo in range(0, n_chains, _BLOCK)]

    def work(block):
        lo, hi = block
        return _run_block(model, schedule, config, plan, seed, lo, hi,
                          trajectory_chains, heat_edges)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, blocks))
    else:
        results = [work(b) for b in blocks]

    for lo, s, t, tr, counts in sorted(results, key=lambda r: r[0]):
        hi = lo + s.shape[0]
        samples[lo:hi] = s
        tv[lo:hi] = t
        trajs.extend(tr)
        if counts is not None:
            total_counts = counts if total_counts is None else total_counts + counts

    if heat_edges is not None:
        if total_counts is None:
            total_counts = np.zeros((len(heat_edges[0]) - 1, len(heat_edges[1]) - 1),
                                    dtype=np.int64)
        grid = HeatmapGrid(t_edges=heat_edges[0], x_edges=heat_edges[1],
                           counts=total_counts)
    return RunResult(samples=samples, tv=tv, trajectories=trajs, heatmap=grid)


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


def _write_trajectories_csv(path, trajs: list[Trajectory], D: int) -> None:
    fmt = "%d,%d,%d" + ",%.17g" * (2 * D) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["chain_id", "step_index", "t"]
                          + [f"x{d}" for d in range(D)]
                          + [f"x0_hat{d}" for d in range(D)]) + "\r\n")
        for i, tr in enumerate(trajs):
            values = np.concatenate([tr.xs, tr.x0_hats], axis=1).tolist()
            fh.write("".join([fmt % (i, k, t, *row)
                              for k, (t, row) in enumerate(zip(tr.ts.tolist(), values))]))


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
        _write_trajectories_csv(out / "trajectories.csv", result.trajectories, model.D)
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
                                threads=threads if threads is not None else spec.threads,
                                trajectory_chains=0)
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
