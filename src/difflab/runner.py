"""Batch execution of reverse chains and file emission.

Chains are independent; chain i draws all of its noise from a dedicated
generator seeded with (master seed, i), so adding chains or changing the
thread count never perturbs existing ones. A block's generator states are
derived in bulk, by numpy's own SeedSequence hash and PCG64 seeding run over
every chain index at once, with the bytes of np.random.default_rng([seed, i]),
and a chain draws only the prefix of that stream its plan uses. A run's cells
(a sweep's, ordered by step count, largest first) are cut into slices of one
block of chains, and slices of one chain count step as (S, n, D) stacks under
a noise-store budget, in place, each slice on its own plan's rows: a kernel
call covers the slices whose rows are of one kind (plain or momentum, noisy or
not), a cell that has finished drops off the end of its stack, and each cell's
chains get the bytes of its own run. The calling thread makes a run's noise
buffers, one per worker, before any stack runs. File writes happen once, at the end.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import RunSpec, SweepSpec
from .files import FLOAT, fresh_out_dir, write_csv, write_json
from .metrics import (HeatmapGrid, bin_trajectory_points, heatmap_grid,
                      mode_statistics, sliced_w1, w1_quantiles, wasserstein1_1d)
from .model import GaussianMixtureModel, sample_marginal
from .samplers import ChainState, StepPlan, StepRows, StepWork, Trajectory, _step_core

__all__ = ["RunResult", "run_chains", "execute_run", "execute_sweep"]

_BLOCK = 2048  # chains per vectorized block; fixed so results never depend on threads
_STACK_FLOATS = 1 << 20  # a stack's noise store (8 MiB), unless one full block's is more


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
                 out: np.ndarray | None = None) -> np.ndarray:
    """Chains lo..hi-1's used noise, (hi - lo, rows, D): x_T, then one row per
    step up to the plan's last noisy one. Chain i's rows are the first rows * D
    standard normals of np.random.default_rng([seed, i]). With out, an array of
    that shape with each chain's rows contiguous, the rows are drawn into it."""
    seeds = _chain_seeds(seed, lo, hi)
    noise = np.empty((hi - lo, _noise_rows(plan), D)) if out is None else out
    gen = np.random.Generator(np.random.PCG64(0))   # reseeded for every chain
    for row, (state, inc) in zip(noise, seeds):
        _chain_noise(gen, state, inc, row)
    return noise


@dataclass
class _Stack:
    """Slices one kernel call steps together: slice s is the n chains from
    block start los[s] of cell cells[s], with seed seeds[s] and plan plans[s].
    Step counts do not increase along the stack, so the slices still stepping
    form a prefix: over steps k0..k1-1 of each (k0, k1, active, calls) of
    segments, slices 0..active-1 step, one kernel call per (s0, s1, schedule,
    config, rows) of calls, for slices s0..s1-1 of one kind of row."""

    cells: tuple
    los: tuple
    n: int
    seeds: tuple
    plans: tuple
    noise_rows: int         # the most noise rows a slice uses
    segments: list


def _stack(slices, n, seeds, schedules, configs, plans) -> _Stack:
    """The _Stack of slices, (cell, block start) pairs of n chains, from the
    run's per-cell tuples."""
    cells, los = zip(*slices)
    seeds, schedules, configs, plans = (
        tuple(values[c] for c in cells) for values in (seeds, schedules, configs, plans))
    S, K = len(plans), plans[0].K
    kind = np.zeros((S, K), dtype=np.int8)  # 0 once done, else 1 + plain + 2 noisy
    for s, plan in enumerate(plans):
        kind[s, :plan.K] = 1 + plan.plain + 2 * (plan.noise != 0.0)
    changes = np.flatnonzero(np.any(kind[:, 1:] != kind[:, :-1], axis=0)) + 1
    edges = [0, *changes.tolist(), K]
    segments = []
    for k0, k1 in zip(edges, edges[1:]):
        kinds = kind[:, k0].tolist()
        active = S - kinds.count(0)
        starts = [s for s in range(active) if s == 0 or kinds[s] != kinds[s - 1]]
        segments.append((k0, k1, active, [
            (s0, s1, schedules[s0], configs[s0], StepRows(plans[s0:s1], k0, k1))
            for s0, s1 in zip(starts, starts[1:] + [active])]))
    return _Stack(cells=cells, los=los, n=n, seeds=seeds, plans=plans,
                  noise_rows=max(map(_noise_rows, plans)), segments=segments)


def _group(plans, n_chains: int, D: int) -> list:
    """The (n, slices) of each stack of a run of these cells' plans, a slice
    being a (cell, block start) pair of n chains. Over each cell's blocks in
    turn, cells by step count, largest first, so that a stack's slices finish
    in order, a stack takes the next slice of its n while its noise store,
    (slices, n, its hungriest plan's rows, D) floats, stays within
    _STACK_FLOATS, or one full block's store of the run's hungriest plan."""
    rows = [_noise_rows(plan) for plan in plans]
    budget = max(_STACK_FLOATS, min(_BLOCK, n_chains) * max(rows) * D)
    blocks = [(lo, min(_BLOCK, n_chains - lo)) for lo in range(0, n_chains, _BLOCK)]
    groups = []
    for n in dict.fromkeys(n for _, n in blocks):   # full blocks, then a partial one
        group, deepest = [], 0
        for cell in sorted(range(len(plans)), key=lambda c: -plans[c].K):
            for lo in (lo for lo, size in blocks if size == n):
                deepest = max(deepest, rows[cell])
                if group and (len(group) + 1) * n * deepest * D > budget:
                    groups.append((n, group))
                    group, deepest = [], rows[cell]
                group.append((cell, lo))
        groups.append((n, group))
    return groups


def _run_block(model: GaussianMixtureModel, stack: _Stack, result: RunResult,
               store: np.ndarray):
    """Step the stack's slices, writing their rows of the result's samples,
    (cells, n_chains, D), tv and trajectories in place; returns their heatmap
    counts (None without a heatmap). A stack of one slice is (1, n, D): a
    stacked matmul over one slice is its 2-D call. The noise is drawn into
    store, its worker's buffer, as (S, n, the hungriest plan's rows, D); a
    slice whose plan uses x_T only reads it from an earlier slice of its seed
    and block start where there is one. The state and a StepWork are the
    stack's one buffer set, which every step writes into."""
    S, n, D = len(stack.seeds), stack.n, model.D
    noise = store[:S * n * stack.noise_rows * D].reshape(S, n, stack.noise_rows, D)
    drawn = {}      # (seed, block start): the slice that drew that block's x_T
    for s, (seed, lo, plan, chains) in enumerate(zip(stack.seeds, stack.los, stack.plans,
                                                     noise)):
        rows = _noise_rows(plan)
        if rows == 1 and (seed, lo) in drawn:
            chains[:, 0] = noise[drawn[seed, lo], :, 0]
        else:
            _block_noise(seed, lo, lo + n, plan, D, chains[:, :rows])
            drawn.setdefault((seed, lo), s)
    state = ChainState.init(noise[:, :, 0], StepRows(stack.plans, 0, 1))
    work = StepWork(state.x_bar.shape, model)

    record, grid = result.trajectories, result.heatmap
    # (slice, block start, chains) that a cell's recorded first chains are in
    recorded = [(s, lo, min(n, record.xs.shape[0] - lo))
                for s, lo in enumerate(stack.los) if lo < record.xs.shape[0]]
    tv_all, norm_all = np.zeros((S, n)), np.empty((S, n))
    counts = None if grid is None else np.zeros_like(grid.counts)
    t_rows = None if grid is None else grid.rows(stack.plans[0].t_prev)

    for k0, k1, active, calls in stack.segments:
        # per call: [its slices' state, schedule, config, rows, noise, work]
        parts = [[ChainState(rows.t[0], state.x_bar[s0:s1], state.m[s0:s1], state.v[s0:s1]),
                  schedule, config, rows, noise[s0:s1] if rows.noisy[0] else None,
                  work.slices(s0, s1)] for s0, s1, schedule, config, rows in calls]
        xs = [buf[:active] for buf in work.x_next]
        tv, norm = tv_all[:active], norm_all[:active]
        for k in range(k0, k1):
            for call in parts:
                call_state, schedule, config, rows, eps, call_work = call
                call[0], _, x0_hat, _ = _step_core(
                    call_state, model, schedule, config,
                    None if eps is None else eps[..., k + 1, :], rows, k - k0, call_work)
            x_next = xs[k % 2]
            if k:
                # np.linalg.norm(x_next - prev_x, axis=-1), written over prev_x: the
                # next step writes its x_{t-1} there anyway. Op for op at D > 1; at
                # D = 1, |diff|, which is sqrt(diff * diff) wherever diff * diff is
                # a normal float (|diff| >= 2**-511, or diff = 0)
                diff = np.subtract(x_next, xs[1 - k % 2], out=xs[1 - k % 2])
                if D == 1:
                    tv += np.abs(diff[..., 0], out=norm)
                else:
                    sq = np.add.reduce(np.multiply(diff, diff, out=diff), axis=-1, out=norm)
                    tv += np.sqrt(sq, out=sq)
            for s, lo, m in recorded:   # a run of one cell, one call per step
                record.xs[lo:lo + m, k] = x_next[s, :m]
                record.x0_hats[lo:lo + m, k] = x0_hat[s, :m]
            if counts is not None:
                bin_trajectory_points(grid, t_rows[k], x_next, counts)

    # a cell's last x_{t-1} is its x_0; no later step writes over its slice
    for s, (cell, lo, plan) in enumerate(zip(stack.cells, stack.los, stack.plans)):
        result.samples[cell, lo:lo + n] = work.x_next[(plan.K - 1) % 2][s]
        result.tv[cell, lo:lo + n] = tv_all[s]
    return counts


def run_chains(model: GaussianMixtureModel, schedules: tuple, configs: tuple, n_chains: int,
               seeds: tuple, threads: int = 1, trajectory_chains: int = 0,
               heatmap: dict | None = None) -> list[RunResult]:
    """Run n_chains reverse chains on seeded noise per cell, a cell being a
    seed of seeds with the schedule and SamplerConfig at its place in
    schedules and configs; gives a list of one RunResult per cell, each with
    the bytes the cell's own run gives. Only a run of one cell records its
    first trajectory_chains chains or bins a heatmap. Cells of one schedule
    and equal configs share one plan.

    Each cell's blocks of _BLOCK chains are its slices, and _group stacks
    slices of one chain count under a noise-store budget, so that one kernel
    call steps a stack's slices, each on its own plan's rows.
    """
    if not len(schedules) == len(configs) == len(seeds):
        raise ValueError("need as many schedules and as many configs as seeds")
    if len(seeds) > 1 and (trajectory_chains > 0 or heatmap is not None):
        raise ValueError("a run of more than one cell records no trajectories and no heatmap")
    D = model.D
    # one plan per schedule object and config value, built once for the cells
    # that share it
    built = {}
    for sched, cfg in zip(schedules, configs):
        if (id(sched), cfg) not in built:
            built[id(sched), cfg] = StepPlan.build(sched, cfg, model)
    plans = tuple(built[id(sched), cfg] for sched, cfg in zip(schedules, configs))
    n_rec = min(trajectory_chains, n_chains)
    trajectories = [Trajectory(ts=plan.t_prev.copy(), xs=np.empty((n_rec, plan.K, D)),
                               x0_hats=np.empty((n_rec, plan.K, D))) for plan in plans]
    # every cell's rows; each cell's RunResult gets views of its own
    result = RunResult(
        samples=np.zeros((len(seeds), n_chains, D)), tv=np.zeros((len(seeds), n_chains)),
        trajectories=trajectories[0],
        heatmap=None if heatmap is None else heatmap_grid(heatmap, schedules[0].tau[-1], D))

    stacks = [_stack(slices, n, seeds, schedules, configs, plans)
              for n, slices in _group(plans, n_chains, D)]
    workers = min(threads, os.cpu_count() or 1)   # map submits every stack at once
    # one noise buffer per worker, made here before any stack runs and reused by
    # its stacks: a pool thread's malloc arena kept a buffer's pages once freed
    store_size = max((len(stack.seeds) * stack.n * stack.noise_rows for stack in stacks),
                     default=0) * D
    stores = [np.empty(store_size) for _ in range(min(workers, len(stacks)))]

    def work(stack):
        store = stores.pop()            # atomic: no two stacks get one buffer
        try:
            return _run_block(model, stack, result, store)
        finally:
            stores.append(store)

    if workers > 1 and len(stacks) > 1:
        from concurrent.futures import ThreadPoolExecutor    # only a pool needs it
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(work, stacks))
    else:
        counts = [work(stack) for stack in stacks]

    if result.heatmap is not None:      # integer sums: the same in any order
        result.heatmap.counts[:] += sum(counts)
    return [RunResult(samples, tv, traj, result.heatmap)
            for samples, tv, traj in zip(result.samples, result.tv, trajectories)]


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
    result, = run_chains(model, (schedule,), (config,), spec.n_chains, (spec.seed,),
                         threads=spec.threads, trajectory_chains=n_rec, heatmap=spec.heatmap)

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
    # every cell, (value, spec, schedule, config), with one schedule and one
    # config per value, which its cells share
    cells = []
    for value in sweep.values:
        specs = [sweep.cell_spec(value, s) for s in range(sweep.seeds_per_cell)]
        schedule, config = specs[0].build_schedule(), specs[0].build_sampler_config()
        cells += [(value, spec, schedule, config) for spec in specs]
    values, specs, schedules, configs = zip(*cells)
    results = run_chains(model, schedules, configs, sweep.base.n_chains,
                         tuple(spec.seed for spec in specs), threads=sweep.base.threads)
    table = [(value, spec.seed, compute_metrics(result, model, spec.seed, quantiles))
             for value, spec, result in zip(values, specs, results)]

    # per-value mean of the quality metric; the argmin value's cells are marked
    key = "w1" if model.D == 1 else "sliced_w1"
    means = {v: float(np.mean([met[key] for value, _, met in table if value == v]))
             for v in sweep.values}
    best = min(means, key=means.get)
    write_csv(out / "sweep.csv", ["axis", "value", "seed", "w1", "sliced_w1", "tv_mean", "best"],
              [f"{sweep.axis},{v},{seed},"
               + ",".join("" if met[m] is None else FLOAT % met[m]
                          for m in ("w1", "sliced_w1", "tv_mean"))
               + f",{int(v == best)}" for v, seed, met in table])
    write_json(out / "sweep_summary.json",
               {"axis": sweep.axis, "metric": key,
                "means": {str(v): m for v, m in means.items()}, "best_value": best})
    return table
