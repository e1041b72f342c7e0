"""Golden output digests: the cases test_golden.py pins, and how to rewrite the pins.

Each case runs one `difflab` command through `difflab.cli.main` in a scratch
directory and returns the sha256 of the files it wrote. A run's manifest is
pinned apart from them, under MANIFEST, without its `version`, so that a
release moves no pin but a change to how a spec is written does. For each
pinned `samples.csv`, the first REFERENCE_ROWS rows are kept beside the pins
(reference_path), so that a mismatch can say by how much the samples moved,
not only that their hash did. The pins hold for
numpy 2.4.6 with OpenBLAS built with DYNAMIC_ARCH, whose kernels round the
predictor's sums; for numpy's float64 `exp` loop, which the predictor's softmax
uses (an AVX-512F path on the x86-64 machine the pins were taken on; another
path may differ from it in the last bits), so every sample; and for the C
library's `erfc` (glibc 2.36), which the smooth 1-D W1's normal CDF calls
through Python's `math.erfc`. Rewrite the pins only when a change is meant to
move output bytes, and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py

It rewrites the kept rows too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from importlib import resources
from itertools import islice
from pathlib import Path

import numpy as np

PINS = Path(__file__).resolve().with_name("pins.json")
MANIFEST = "manifest.json without version"
REFERENCE_ROWS = 256


def reference_path(digest: str) -> Path:
    """Where the first rows of the samples.csv whose sha256 is digest are kept."""
    return PINS.with_name(f"samples-{digest[:16]}.csv")


def _digests(out: Path, skip=()) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file() and p.name not in skip}


def _run_digests(out: Path) -> dict[str, str]:
    """A run's digests: every file's but the manifest's, and under MANIFEST
    the manifest's with its version taken out, written as write_json writes it."""
    digests = _digests(out, skip=("manifest.json",))
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["version"]
    digests[MANIFEST] = hashlib.sha256((json.dumps(manifest, indent=2) + "\n").encode()
                                       ).hexdigest()
    return digests


def _cli(*args) -> None:
    from difflab.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"difflab {' '.join(map(str, args))} exited {code}")


def _write_spec(path: Path, spec: dict) -> Path:
    path.write_text(json.dumps(spec))
    return path


def _mix16d_spec() -> dict:
    """D=16, 8 components, K=50 quadratic respacing, vanilla ddpm_unit, 2100 chains."""
    rng = np.random.default_rng(16)
    weights = rng.uniform(0.2, 1.0, 8)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return {
        "model": {"weights": weights.tolist(), "means": rng.normal(0.0, 1.5, (8, 16)).tolist(),
                  "variances": rng.uniform(0.05, 0.5, 8).tolist()},
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02,
                     "respace_k": 50, "respace_mode": "quadratic"},
        "sampler": {"method": "vanilla", "eta_mode": "ddpm_unit"},
        "n_chains": 2100, "seed": 1, "trajectories": False, "heatmap": None, "metrics": True,
    }


def _sweep_spec() -> dict:
    """A deterministic K sweep of a smooth two-mode mixture: 2 K values x 2 seeds."""
    base = {
        "model": {"weights": [0.4, 0.6], "means": [[-2.0], [1.5]], "variances": [0.25, 0.25]},
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
        "sampler": {"method": "vanilla", "eta_mode": "deterministic"},
        "n_chains": 512, "seed": 3, "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "K", "values": [20, 50], "seeds_per_cell": 2}


def _sweep_b_spec() -> dict:
    """A noisy adaptive sweep over b of a smooth two-mode mixture: 2 values x 3 seeds."""
    base = {
        "model": {"weights": [0.3, 0.7], "means": [[-1.5], [2.0]], "variances": [0.2, 0.3]},
        "schedule": {"T": 100, "beta_start": 5e-4, "beta_end": 0.1},
        "sampler": {"method": "adaptive", "eta_mode": "ddpm_unit", "c": 0.003},
        "n_chains": 300, "seed": 7, "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "b", "values": [0.3, 0.5], "seeds_per_cell": 3}


def _sweep_2d_spec() -> dict:
    """A deterministic K sweep of a two-dimensional three-mode mixture: 2 K values x 2 seeds."""
    base = {
        "model": {"weights": [0.2, 0.5, 0.3], "means": [[-2.0, 0.5], [1.0, 1.5], [0.5, -2.0]],
                  "variances": [0.3, 0.1, 0.2]},
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
        "sampler": {"method": "vanilla", "eta_mode": "deterministic"},
        "n_chains": 700, "seed": 11, "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "K", "values": [15, 40], "seeds_per_cell": 2}


def _sweep_k_noisy_spec() -> dict:
    """A noisy adaptive K sweep of a smooth two-mode mixture whose cells end at
    different steps: 3 K values x 2 seeds of 300 chains."""
    base = {
        "model": {"weights": [0.45, 0.55], "means": [[-1.5], [2.5]], "variances": [0.3, 0.2]},
        "schedule": {"T": 200, "beta_start": 1e-4, "beta_end": 0.05},
        "sampler": {"method": "adaptive", "eta_mode": "ddpm_unit", "b": 0.2, "c": 0.02},
        "n_chains": 300, "seed": 5, "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "K", "values": [3, 8, 20], "seeds_per_cell": 2}


def _sweep_eta_spec() -> dict:
    """An eta_mode sweep whose deterministic and ddpm_unit cells fit one stack:
    2 values x 2 seeds of 300 chains."""
    base = {
        "model": {"weights": [0.6, 0.4], "means": [[-1.0], [2.0]], "variances": [0.2, 0.4]},
        "schedule": {"T": 60, "beta_start": 1e-3, "beta_end": 0.05},
        "sampler": {"method": "vanilla", "eta_mode": "deterministic"},
        "n_chains": 300, "seed": 13, "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "eta_mode", "values": ["deterministic", "ddpm_unit"],
            "seeds_per_cell": 2}


def _sweep_c_2d_spec() -> dict:
    """A noisy adaptive sweep over c of a two-dimensional mixture: 3 values x 2 seeds."""
    base = {
        "model": {"weights": [0.5, 0.5], "means": [[-1.5, 1.0], [1.5, -0.5]],
                  "variances": [0.2, 0.3]},
        "schedule": {"T": 80, "beta_start": 5e-4, "beta_end": 0.06},
        "sampler": {"method": "adaptive", "eta_mode": "ddpm_unit", "b": 0.25},
        "n_chains": 400, "seed": 21, "trajectories": False, "heatmap": None, "metrics": True,
    }
    return {"base": base, "axis": "c", "values": [0.001, 0.01, 0.1], "seeds_per_cell": 2}


def _sweep_b_two_blocks_spec() -> dict:
    """A noisy adaptive sweep over b of two blocks a cell: 2 values x 2 seeds of
    2100 chains."""
    spec = _sweep_b_spec()
    spec["base"]["n_chains"], spec["seeds_per_cell"] = 2100, 2
    return spec


def toy_fig4(work: Path) -> dict[str, str]:
    """The bundled toy_fig4 spec at seed 0 with 300 chains."""
    _cli("run", "toy_fig4", "--seed", 0, "--chains", 300, "--out-dir", work / "out")
    return _run_digests(work / "out")


def _toy_fig4_blocks(threads: int):
    def case(work: Path) -> dict[str, str]:
        spec = json.loads(resources.files("difflab").joinpath("specs", "toy_fig4.json")
                          .read_text())
        spec.update(n_chains=4396, trajectory_chains=2100, threads=threads)
        _cli("run", _write_spec(work / "spec.json", spec), "--out-dir", work / "out")
        return _run_digests(work / "out")
    case.__doc__ = (f"The bundled toy_fig4 spec at 4396 chains (two full blocks and a "
                    f"partial one), recording 2100, at threads={threads}.")
    return case


def _mix16d(threads: int):
    def case(work: Path) -> dict[str, str]:
        spec = _write_spec(work / "spec.json", _mix16d_spec())
        _cli("run", spec, "--threads", threads, "--out-dir", work / "out")
        return _run_digests(work / "out")
    case.__doc__ = f"A mix16d-like run at threads={threads}."
    return case


def _sweep(make_spec):
    def case(work: Path) -> dict[str, str]:
        spec = _write_spec(work / "sweep.json", make_spec())
        _cli("sweep", spec, "--out-dir", work / "out")
        return _digests(work / "out")
    case.__doc__ = f"Every file of the sweep that {make_spec.__name__} describes."
    return case


def schedules_dump(work: Path) -> dict[str, str]:
    """The bundled toy_fig4 spec's schedule table."""
    _cli("schedules", "dump", "toy_fig4", "--out", work / "schedule.csv")
    return _digests(work)


def verify(work: Path) -> dict[str, str]:
    """The report of `difflab verify`."""
    _cli("verify", "--out", work / "verify_report.json")
    return _digests(work)


CASES = {
    "toy_fig4": toy_fig4,
    "toy_fig4_blocks_threads1": _toy_fig4_blocks(1),
    "toy_fig4_blocks_threads2": _toy_fig4_blocks(2),
    "mix16d_threads1": _mix16d(1),
    "mix16d_threads2": _mix16d(2),
    "sweep_deterministic": _sweep(_sweep_spec),
    "sweep_adaptive_b": _sweep(_sweep_b_spec),
    "sweep_adaptive_b_two_blocks": _sweep(_sweep_b_two_blocks_spec),
    "sweep_deterministic_2d": _sweep(_sweep_2d_spec),
    "sweep_k_noisy_adaptive": _sweep(_sweep_k_noisy_spec),
    "sweep_eta_mode_mixed": _sweep(_sweep_eta_spec),
    "sweep_c_2d": _sweep(_sweep_c_2d_spec),
    "schedules_dump": schedules_dump,
    "verify": verify,
}


def main() -> int:
    pins, kept = {}, set()
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            pins[name] = case(Path(work))
            if "samples.csv" in pins[name]:
                path = reference_path(pins[name]["samples.csv"])
                with open(Path(work) / "out" / "samples.csv", newline="") as fh:
                    path.write_text("".join(islice(fh, 1 + REFERENCE_ROWS)), newline="")
                kept.add(path)
    for path in set(PINS.parent.glob(reference_path("*").name)) - kept:
        path.unlink()
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} digests of {len(pins)} cases to {PINS}, "
          f"and the first rows of {len(kept)} samples.csv beside it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
