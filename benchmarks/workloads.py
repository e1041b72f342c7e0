"""The benchmark's workloads: inputs built from a seed, and checks of outputs.

Each workload is one `difflab` CLI command. `prepare` writes its input files
and returns the argument list for `difflab.cli.main`; `check` reads the files
the command wrote and returns a list of problems (empty when the output is
right). The checks recompute quality against the exact data mixture with their
own code, so a bug in the program's metrics cannot hide a bad sample.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Quality gates. Typical values at the commit that added the benchmark are in
# brackets. Each gate leaves room for the sampling noise of its chain count:
# with two modes, W1 also carries gap * |mode fraction - weight|, which for
# 512 iid draws exceeds 0.3 about once in a thousand seeds.
FIG4_W1_MAX = 0.3             # adaptive sampler, 10k chains [0.09-0.10]
FIG4_BALANCE_SIGMAS = 5.0     # mode fractions within 5 binomial sigmas
MIX16D_SLICED_W1_MAX = 0.08   # vanilla sampler, own 64 projections [0.03-0.05]
SWEEP_W1_MAX = 0.6            # per cell, 512 chains [0.04-0.08]
SWEEP_K_DRIFT_MAX = 0.05      # |W1(K) - W1(K=1000)| for one seed [< 0.01]

SWEEP_K_VALUES = (50, 100, 250, 500, 1000)
SWEEP_SEEDS_PER_CELL = 2


@dataclass
class Workload:
    name: str
    why: str
    command: str            # "run" or "sweep"
    threads: int            # thread count of the measured command

    def prepare(self, seed: int, work: Path) -> tuple[list[str], Path]:
        """Write the inputs for `seed` under `work`; return (CLI args, spec path)."""
        work.mkdir(parents=True, exist_ok=True)
        spec_path = work / f"{self.name}_spec.json"
        if self.name == "fig4":
            spec_path = None
            target = "toy_fig4"
        else:
            spec = mix16d_spec(seed) if self.name == "mix16d" else sweep_k_spec(seed)
            with open(spec_path, "w") as fh:
                json.dump(spec, fh, indent=2)
                fh.write("\n")
            target = str(spec_path)
        args = [self.command, target, "--seed", str(seed)]
        return args, spec_path

    def check(self, out: Path, seed: int) -> list[str]:
        try:
            return CHECKS[self.name](out, seed)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def corruptions(self):
        """(label, function editing an output dir in place) pairs the checker must reject."""
        if self.name == "sweep_k":
            return [("second best value", _sweep_mark_all_best),
                    ("bad W1 cell", _sweep_raise_w1)]
        return [("missing sample row", _drop_last_sample),
                ("shifted samples", _shift_samples)]


WORKLOADS = {
    w.name: w for w in (
        Workload("fig4",
                 "bundled toy_fig4 spec, every layer on; model.eps_s, runner.noise_s, "
                 "metrics.heatmap_bin_s, runner.write_s and samplers.step_self_s move wall_cal_s",
                 "run", 1),
        Workload("mix16d",
                 "D=16 8-component mixture, K=50 vanilla, 2 threads; model.eps_ns_per_chain_step, "
                 "runner.noise_s, metrics.quality_s, runner.parallel_eff move wall/cpu_cal_s",
                 "run", 2),
        Workload("sweep_k",
                 "K sweep 50..1000 x 2 seeds, 512 chains, many small steps; model.eps_calls, "
                 "samplers.step_self_s, config.load_s, metrics.quality_s move wall_cal_s",
                 "sweep", 1),
    )
}


# ---------------------------------------------------------------- inputs

def mix16d_spec(seed: int) -> dict:
    rng = np.random.default_rng([seed, 16])
    n_comp, dim = 8, 16
    weights = rng.dirichlet(np.full(n_comp, 5.0))
    weights = weights / weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    means = rng.normal(0.0, 1.5, size=(n_comp, dim))
    variances = rng.uniform(0.05, 0.5, size=n_comp)
    return {
        "model": {"weights": weights.tolist(), "means": means.tolist(),
                  "variances": variances.tolist()},
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02,
                     "respace_k": 50, "respace_mode": "quadratic"},
        "sampler": {"method": "vanilla", "eta_mode": "ddpm_unit"},
        "n_chains": 8192, "seed": seed, "threads": 2,
        "trajectories": False, "heatmap": None, "metrics": True,
    }


def sweep_k_spec(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    w0 = float(rng.uniform(0.3, 0.7))
    lo, hi = float(rng.uniform(-3.0, -1.0)), float(rng.uniform(1.0, 3.0))
    base = {
        "model": {"weights": [w0, 1.0 - w0], "means": [[lo], [hi]],
                  "variances": [0.25, 0.25]},
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
        "sampler": {"method": "vanilla", "eta_mode": "deterministic"},
        "n_chains": 512, "seed": seed, "threads": 1,
        "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "K", "values": list(SWEEP_K_VALUES),
            "seeds_per_cell": SWEEP_SEEDS_PER_CELL}


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every file a command wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _manifest_spec(out: Path) -> dict:
    with open(out / "manifest.json") as fh:
        return json.load(fh)["spec"]


# ---------------------------------------------------------------- checks

def _read_matrix(path: Path, header: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\r\n").split(",")
    if first != header:
        raise ValueError(f"{path.name}: header {first[:4]}... != {header[:4]}...")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _samples(out: Path, n: int, dim: int, problems: list[str]) -> np.ndarray:
    data = _read_matrix(out / "samples.csv", ["chain_id"] + [f"x{d}" for d in range(dim)])
    if data.shape != (n, dim + 1):
        problems.append(f"samples.csv: shape {data.shape}, expected {(n, dim + 1)}")
        return data[:, 1:]
    if not np.array_equal(data[:, 0], np.arange(n)):
        problems.append("samples.csv: chain ids are not 0..n-1")
    if not np.all(np.isfinite(data[:, 1:])):
        problems.append("samples.csv: non-finite values")
    return data[:, 1:]


def _mixture_quantiles_points(weights, means, n: int) -> np.ndarray:
    """Quantiles of a point-mass mixture at levels (i - 0.5) / n."""
    order = np.argsort(means)
    cum = np.cumsum(np.asarray(weights)[order])
    u = (np.arange(1, n + 1) - 0.5) / n
    idx = np.minimum(np.searchsorted(cum, u, side="left"), len(means) - 1)
    return np.asarray(means)[order][idx]


def check_fig4(out: Path, seed: int) -> list[str]:
    problems: list[str] = []
    spec = _manifest_spec(out)
    n, n_traj = spec["n_chains"], spec["trajectory_chains"]
    steps = spec["schedule"]["T"]
    heat = spec["heatmap"]
    weights = np.array(spec["model"]["weights"])
    means = np.array([m[0] for m in spec["model"]["means"]])
    if spec["seed"] != seed:
        problems.append(f"manifest seed {spec['seed']} != {seed}")

    x = _samples(out, n, 1, problems)[:, 0]
    traj = _read_matrix(out / "trajectories.csv",
                        ["chain_id", "step_index", "t", "x0", "x0_hat0"])
    if traj.shape[0] != n_traj * steps or not np.all(np.isfinite(traj)):
        problems.append(f"trajectories.csv: {traj.shape[0]} rows (expected "
                        f"{n_traj * steps}) or non-finite values")
    hm = _read_matrix(out / "heatmap.csv", ["t_lo", "t_hi", "x_lo", "x_hi", "count"])
    if hm.shape[0] != heat["t_bins"] * heat["x_bins"]:
        problems.append(f"heatmap.csv: {hm.shape[0]} cells")
    if int(hm[:, 4].sum()) != n * steps:
        problems.append(f"heatmap total {int(hm[:, 4].sum())} != chains x steps {n * steps}")
    with open(out / "metrics.json") as fh:
        if json.load(fh)["n_samples"] != n:
            problems.append("metrics.json: wrong n_samples")
    if problems:
        return problems

    w1 = float(np.mean(np.abs(np.sort(x) - _mixture_quantiles_points(weights, means, n))))
    if not w1 <= FIG4_W1_MAX:
        problems.append(f"W1 to exact mixture {w1:.4f} > {FIG4_W1_MAX}")
    nearest = np.argmin(np.abs(x[:, None] - means[None, :]), axis=1)
    for k, w in enumerate(weights):
        frac = float(np.mean(nearest == k))
        tol = FIG4_BALANCE_SIGMAS * math.sqrt(w * (1.0 - w) / n)
        if abs(frac - w) > tol:
            problems.append(f"mode {means[k]:g}: fraction {frac:.4f} vs weight {w:.4f} "
                            f"(tol {tol:.4f})")
    return problems


def _sorted_w1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def check_mix16d(out: Path, seed: int) -> list[str]:
    problems: list[str] = []
    spec = _manifest_spec(out)
    model = spec["model"]
    means = np.array(model["means"])
    n, dim = spec["n_chains"], means.shape[1]
    if spec["seed"] != seed:
        problems.append(f"manifest seed {spec['seed']} != {seed}")
    x = _samples(out, n, dim, problems)
    with open(out / "metrics.json") as fh:
        reported = json.load(fh)["sliced_w1"]
    if reported is None or not math.isfinite(reported):
        problems.append(f"metrics.json: sliced_w1 = {reported}")
    if problems:
        return problems

    rng = np.random.default_rng([seed, 3])
    comps = rng.choice(len(model["weights"]), size=n, p=np.array(model["weights"]))
    ref = means[comps] + np.sqrt(np.array(model["variances"]))[comps, None] \
        * rng.standard_normal((n, dim))
    dirs = rng.standard_normal((64, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sw1 = float(np.mean([_sorted_w1(x @ d, ref @ d) for d in dirs]))
    if not sw1 <= MIX16D_SLICED_W1_MAX:
        problems.append(f"sliced W1 to exact mixture {sw1:.4f} > {MIX16D_SLICED_W1_MAX}")
    return problems


def check_sweep_k(out: Path, seed: int) -> list[str]:
    problems: list[str] = []
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expect = [(k, seed + s) for k in SWEEP_K_VALUES for s in range(SWEEP_SEEDS_PER_CELL)]
    got = [(int(r["value"]), int(r["seed"])) for r in rows]
    if got != expect or any(r["axis"] != "K" for r in rows):
        return [f"sweep.csv: cells {got} != {expect}"]
    w1 = np.array([float(r["w1"]) for r in rows])
    if not np.all(np.isfinite(w1)):
        return ["sweep.csv: non-finite W1"]
    finest = {s: v for (k, s), v in zip(got, w1) if k == max(SWEEP_K_VALUES)}
    for (k, s), v in zip(got, w1):
        if not v <= SWEEP_W1_MAX:
            problems.append(f"cell K={k} seed={s}: W1 {v:.4f} > {SWEEP_W1_MAX}")
        if not abs(v - finest[s]) <= SWEEP_K_DRIFT_MAX:
            problems.append(f"cell K={k} seed={s}: W1 {v:.4f} drifts from "
                            f"{finest[s]:.4f} at the finest K")
    best = {int(r["value"]) for r in rows if r["best"] == "1"}
    marked = {int(r["value"]) for r in rows if r["best"] not in ("0", "1")}
    means = {k: float(np.mean(w1[[v == k for v, _ in got]])) for k in SWEEP_K_VALUES}
    argmin = min(means, key=means.get)
    if marked or best != {argmin}:
        problems.append(f"best marked on {sorted(best)}, argmin of mean W1 is {argmin}")
    with open(out / "sweep_summary.json") as fh:
        if json.load(fh)["best_value"] != argmin:
            problems.append("sweep_summary.json: best_value disagrees with sweep.csv")
    return problems


CHECKS = {"fig4": check_fig4, "mix16d": check_mix16d, "sweep_k": check_sweep_k}


# ---------------------------------------------------------------- corruptions

def _rewrite_samples(out: Path, edit) -> None:
    path = out / "samples.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _drop_last_sample(out: Path) -> None:
    _rewrite_samples(out, lambda lines: lines[:-1])


def _shift_samples(out: Path) -> None:
    def shift(lines):
        rows = [lines[0]]
        for line in lines[1:]:
            cid, *vals = line.split(",")
            rows.append(",".join([cid] + [repr(float(v) + 1.0) for v in vals]))
        return rows
    _rewrite_samples(out, shift)


def _edit_sweep(out: Path, edit) -> None:
    path = out / "sweep.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0].keys())
    for r in rows:
        edit(r)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _sweep_mark_all_best(out: Path) -> None:
    _edit_sweep(out, lambda r: r.update(best="1"))


def _sweep_raise_w1(out: Path) -> None:
    _edit_sweep(out, lambda r: r.update(w1="10.0") if r["value"] == "250" else None)


def self_test(workload: Workload, good_out: Path, scratch: Path, seed: int) -> list[str]:
    """Feed the checker corrupted copies of a good output; each must be rejected."""
    problems = []
    for label, corrupt in workload.corruptions():
        if scratch.exists():
            shutil.rmtree(scratch)
        shutil.copytree(good_out, scratch)
        corrupt(scratch)
        if not workload.check(scratch, seed):
            problems.append(f"self-test: checker accepted corrupted output ({label})")
    shutil.rmtree(scratch, ignore_errors=True)
    return problems
