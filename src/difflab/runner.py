"""Batch execution of reverse chains and file emission.

Chains are independent; chain i draws all of its noise from a dedicated
generator seeded with (master seed, i), so adding chains or changing the
thread count never perturbs existing ones. The generator states of a block
are derived in bulk, by numpy's own SeedSequence hash and PCG64 seeding run
over every chain index at once, and give the same bytes as
np.random.default_rng([seed, i]). A chain draws only the rows its plan uses,
a prefix of that stream, so a sweep keeps each seed's x_T (the first row) and
a cell whose plan uses no noise past x_T reads it there instead of drawing.
Blocks of chains are stepped vectorized, in place: each worker draws its
blocks' noise into one reused buffer, each block writes every step into one
buffer set, and the predictor's alpha-only terms are computed once per run.
A run of several seeds (a sweep value's cells) steps block lo of as many of
them as fit in _BLOCK chains as one (S, n, D) stack, each seed's chains
getting the bytes of its own run, so one kernel call serves them all.
File writes happen once, after every block has finished.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import RunSpec, SweepSpec
from .files import FLOAT, fresh_out_dir, write_csv, write_json
from .metrics import (HeatmapGrid, bin_trajectory_points, heatmap_grid,
                      mode_statistics, sliced_w1, w1_quantiles, wasserstein1_1d)
from .model import EpsTerms, GaussianMixtureModel, sample_marginal
from .samplers import ChainState, SamplerConfig, StepPlan, StepWork, Trajectory, _step_core

__all__ = ["RunResult", "run_chains", "execute_run", "execute_sweep"]

_BLOCK = 2048  # chains per vectorized block; fixed so results never depend on threads


@dataclass
class RunResult:
    samples: np.ndarray                 # (n, D)
    tv: np.ndarray                      # (n,) per-chain total variation, data space
    trajectories: Trajectory            # the first `trajectory_chains` chains
    heatmap: HeatmapGrid | None
    metrics: dict | None = None


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64's LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _hash_steps(const: int, mult: int):
    """The (xor, multiplier) pair of each successive SeedSequence hash call."""
    while True:
        nxt = const * mult & _M32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hash(value: np.ndarray, steps) -> np.ndarray:
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def _chain_seeds(seed: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that np.random.default_rng([seed, i]) starts from,
    for each chain i in lo..hi-1: numpy's SeedSequence run once over the block."""
    seed = int(seed)
    if seed < 0 or hi > 2**32:   # a chain index of two uint32 words would wrap
        raise ValueError(f"need seed >= 0 and chain indices below 2**32, "
                         f"not seed {seed}, chains {lo}..{hi - 1}")
    n = hi - lo
    entropy = [np.full(n, seed >> shift & _M32, np.uint32)    # seed words, low first
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(lo, hi, dtype=np.uint64).astype(np.uint32))
    steps = _hash_steps(_INIT_A, _MULT_A)
    padded = entropy + [np.zeros(n, np.uint32)] * (4 - len(entropy))
    pool = [_hash(word, steps) for word in padded[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, steps))
    steps = _hash_steps(_INIT_B, _MULT_B)
    words = [_hash(pool[j % 4], steps).astype(np.uint64) for j in range(8)]
    # little-endian word pairs give PCG64's seed (hi, lo) and increment (hi, lo)
    seeds = []
    for s_hi, s_lo, q_hi, q_lo in zip(*((words[2 * j] | words[2 * j + 1] << np.uint64(32))
                                        .tolist() for j in range(4))):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        # PCG64's seeding: one LCG step from 0, add the seed, one more step
        seeds.append(((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128, inc))
    return seeds


def _chain_noise(gen: np.random.Generator, state: int, inc: int,
                 out: np.ndarray) -> np.ndarray:
    """Fill one chain's (rows, D) noise rows from the PCG64 state (state, inc)."""
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal(out=out)


def _noise_rows(plan: StepPlan) -> int:
    """Noise rows a chain uses: x_T, then one per step up to the last noisy one."""
    noisy = np.flatnonzero(plan.noise)
    return 2 + int(noisy[-1]) if noisy.size else 1


def _block_noise(seed: int, lo: int, hi: int, plan: StepPlan, D: int,
                 store: np.ndarray | None = None) -> np.ndarray:
    """Chains lo..hi-1's used noise, (hi - lo, rows, D): x_T, then one row per
    step up to the plan's last noisy one. Chain i's rows are the first rows * D
    standard normals of np.random.default_rng([seed, i]). With store, a flat
    float array of at least that size, the rows are drawn into its head."""
    seeds = _chain_seeds(seed, lo, hi)
    shape = (hi - lo, _noise_rows(plan), D)
    noise = np.empty(shape) if store is None else store[:math.prod(shape)].reshape(shape)
    gen = np.random.Generator(np.random.PCG64(0))   # reseeded for every chain
    for row, (state, inc) in zip(noise, seeds):
        _chain_noise(gen, state, inc, row)
    return noise


def _run_block(model: GaussianMixtureModel, schedule, config: SamplerConfig,
               plan: StepPlan, seeds: tuple, at, lo: int, hi: int, result: RunResult,
               terms: EpsTerms, store: np.ndarray, x_T: dict | None):
    """Step chains lo..hi-1 of each of seeds, writing their rows of the result's
    samples, tv and trajectories in place; returns their heatmap counts (None
    without a heatmap).

    result holds every seed of the run, samples (seeds, n_chains, D) and tv
    (seeds, n_chains); ``at`` picks these seeds' rows: a slice, stepped as one
    (S, n, D) stack, or one seed's index, stepped as (n, D) chains.

    The block's noise is drawn into store, its worker's buffer, unless the plan
    uses x_T only and x_T (see run_chains) holds every seed's. Its state and a
    StepWork are its one buffer set: every step writes into them, and the loop
    allocates no array per step.
    """
    K, n, D = plan.K, hi - lo, model.D
    rows = _noise_rows(plan)
    keys = [(seed, lo) for seed in seeds]
    noise = store[:len(seeds) * n * rows * D].reshape(len(seeds), n, rows, D)
    if x_T is not None and rows == 1 and all(key in x_T for key in keys):
        np.stack([x_T[key] for key in keys], out=noise[:, :, 0, :])
    else:
        for seed, key, chains in zip(seeds, keys, noise):
            _block_noise(seed, lo, hi, plan, D, chains.reshape(-1))
            if x_T is not None and key not in x_T:
                x_T[key] = chains[:, 0, :].copy()  # store is overwritten by the next block
    if isinstance(at, int):
        noise = noise[0]
    zero = np.zeros(D)          # the noise of every step past the drawn rows
    state = ChainState.init(noise[..., 0, :], plan)
    work = StepWork(state.x_bar.shape, terms)

    record, grid = result.trajectories, result.heatmap
    n_rec = max(0, min(hi, record.xs.shape[0]) - lo)
    tv = result.tv[at, lo:hi]   # a view: the block adds into its own rows
    norm = np.empty(tv.shape)
    prev_x = None
    counts = None if grid is None else np.zeros_like(grid.counts)
    t_rows = None if grid is None else grid.rows(plan.t_prev)

    for k in range(K):
        eps = noise[..., k + 1, :] if k + 1 < rows else zero
        state, x_next, x0_hat, _ = _step_core(state, model, schedule, config, eps, plan, k,
                                              work)
        if prev_x is not None:
            # np.linalg.norm(x_next - prev_x, axis=-1), op for op, written over
            # prev_x: the next step writes its x_{t-1} there anyway
            diff = np.subtract(x_next, prev_x, out=prev_x)
            tv += np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=-1, out=norm),
                          out=norm)
        prev_x = x_next
        if n_rec:
            record.xs[lo:lo + n_rec, k] = x_next[:n_rec]
            record.x0_hats[lo:lo + n_rec, k] = x0_hat[:n_rec]
        if counts is not None:
            bin_trajectory_points(grid, t_rows[k], x_next, counts)

    result.samples[at, lo:hi] = prev_x     # the last step's x_{t-1} is x_0
    return counts


def _stack_size(n_chains: int) -> int:
    """Seeds of a run of n_chains whose blocks one kernel call steps together:
    as many as keep the stack within _BLOCK chains."""
    return _BLOCK // min(_BLOCK, max(n_chains, 1))


def run_chains(model: GaussianMixtureModel, schedule, config: SamplerConfig,
               n_chains: int, seed: int | tuple, threads: int = 1,
               trajectory_chains: int = 0,
               heatmap: dict | None = None, *,
               x_T: dict | None = None) -> RunResult | list[RunResult]:
    """Run n_chains reverse chains on seeded noise; record the first trajectory_chains.

    seed is one seed, which gives one RunResult, or a tuple of seeds, which
    gives a list of one RunResult per seed, each with the bytes its own run
    gives. A tuple steps block lo of up to _stack_size(n_chains) of its seeds
    as one stack, so that a kernel call moves up to _BLOCK chains; it records
    no trajectories and bins no heatmap.

    x_T, a dict that runs of one model and chain count may share, maps
    (seed, block start) to that block's x_T, the first row of its chains'
    noise. A run stores the x_T of each block it draws, and a block whose
    plan uses no noise past x_T reads it from there and draws nothing.
    """
    stacked = isinstance(seed, tuple)
    seeds = seed if stacked else (seed,)
    if stacked and (trajectory_chains > 0 or heatmap is not None):
        raise ValueError("a tuple of seeds runs without trajectories and without a heatmap")
    D = model.D
    plan = StepPlan.build(schedule, config)
    n_rec = min(trajectory_chains, n_chains)
    # every seed's rows; each seed's RunResult gets views of its own
    result = RunResult(
        samples=np.zeros((len(seeds), n_chains, D)), tv=np.zeros((len(seeds), n_chains)),
        trajectories=Trajectory(ts=plan.t_prev.copy(), xs=np.empty((n_rec, plan.K, D)),
                                x0_hats=np.empty((n_rec, plan.K, D))),
        heatmap=None if heatmap is None else heatmap_grid(heatmap, schedule.tau[-1], D))

    terms = EpsTerms(model, plan.alpha)
    stack = _stack_size(n_chains)
    # one noise buffer per worker, reused by its blocks: at most `workers` exist,
    # none bigger than a full block's
    store_size = min(stack, len(seeds)) * min(_BLOCK, n_chains) * _noise_rows(plan) * D
    stores = []

    def work(job):
        s_lo, lo = job
        s_hi = min(s_lo + stack, len(seeds))
        at = s_lo if s_hi - s_lo == 1 else slice(s_lo, s_hi)
        try:
            store = stores.pop()        # atomic: no two blocks get one buffer
        except IndexError:              # every buffer is in use
            store = np.empty(store_size)
        counts = _run_block(model, schedule, config, plan, seeds[s_lo:s_hi], at, lo,
                            min(lo + _BLOCK, n_chains), result, terms, store, x_T)
        stores.append(store)
        return counts

    jobs = [(s_lo, lo) for s_lo in range(0, len(seeds), stack)
            for lo in range(0, n_chains, _BLOCK)]
    workers = min(threads, os.cpu_count() or 1)   # map submits every block at once
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(work, jobs))
    else:
        counts = [work(job) for job in jobs]

    if result.heatmap is not None:      # integer sums: the same in any order
        result.heatmap.counts[:] += sum(counts)
    results = [RunResult(samples, tv, result.trajectories, result.heatmap)
               for samples, tv in zip(result.samples, result.tv)]
    return results if stacked else results[0]


def compute_metrics(result: RunResult, model: GaussianMixtureModel, seed: int,
                    quantiles=None) -> dict:
    """Summary metrics against the exact data mixture; a 1D model's W1 uses the
    given w1_quantiles of it, when the caller has them."""
    out: dict = {
        "n_samples": int(result.samples.shape[0]),
        "tv_mean": float(np.mean(result.tv)) if result.tv.size else None,
        "tv_std": float(np.std(result.tv)) if result.tv.size else None,
    }
    if result.samples.shape[0] == 0:
        out.update({"w1": None, "sliced_w1": None, "mode_stats": []})
        return out
    if model.D == 1:
        out["w1"] = wasserstein1_1d(result.samples[:, 0], model, quantiles)
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
    # no sweep axis touches the model or n_chains: every cell's W1 has one reference
    model = sweep.base.build_model()
    quantiles = w1_quantiles(model, sweep.base.n_chains) if model.D == 1 else None
    cells = {value: [] for value in sweep.values}   # each value's (seed, metrics)
    x_T = {}    # each seed's x_T, drawn once for the cells that use nothing else
    stack = _stack_size(sweep.base.n_chains)
    for value, runs in cells.items():
        # a value's cells differ only in the seed: one run steps as many
        # together as one kernel call takes
        specs = [sweep.cell_spec(value, s) for s in range(sweep.seeds_per_cell)]
        for part in (specs[i:i + stack] for i in range(0, len(specs), stack)):
            spec = part[0]
            results = run_chains(model, spec.build_schedule(), spec.build_sampler_config(),
                                 spec.n_chains, tuple(cell.seed for cell in part),
                                 threads=spec.threads, x_T=x_T)
            runs += [(cell.seed, compute_metrics(result, model, cell.seed, quantiles))
                     for cell, result in zip(part, results)]

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
