"""difflab benchmark: time `difflab run` / `difflab sweep` end to end and per layer.

Usage, from the root of a difflab checkout:

    python3 benchmarks/run.py --workload fig4 --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 1

One client issues CLI commands back to back in this process (a closed loop)
through `difflab.cli.main`, for `--seconds` seconds after one warm-up command.
Every command's output is checked (see workloads.py). With `--trace 0` the
run reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced commands and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; a result file with the raw samples and the environment goes to
benchmarks/out/. The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

N_SETUP = 6         # fresh-interpreter set-ups per run; setup_s is their median
N_IMPORTTIME = 3    # `-X importtime` launches per traced run
N_OTHER_THREADS = 2  # untraced commands at the other thread count (traced runs)
CHILD_TIMEOUT_S = 60
CAL_ITERATIONS = 800  # about 0.1 s of calibration kernel per command on the tuning box
CAL_REF_S = 0.1       # kernel time that calibrated seconds are scaled to

# Which per-layer metric should move which end-to-end metric, and where.
LAYER_MAP = {
    "cli.import_s": "setup_s on every workload",
    "cli.import_scipy_s": "setup_s on every workload",
    "config.load_s": "wall_cal_s on sweep_k (spec rebuilt per cell); ~0 on fig4",
    "config.validate_calls": "wall_cal_s on sweep_k",
    "schedule.build_s": "wall_cal_s on sweep_k (respace per cell); ~0 on fig4",
    "schedule.alpha_calls": "wall_cal_s on sweep_k (scalar lookups per step)",
    "model.eps_s": "wall_cal_s and cpu_cal_s on all three; most on sweep_k and fig4",
    "model.eps_calls": "wall_cal_s on sweep_k (fixed cost per call)",
    "model.eps_ns_per_chain_step": "wall_cal_s on sweep_k (per call) and mix16d (per element)",
    "samplers.step_self_s": "wall_cal_s on sweep_k most, fig4 (momentum path); least on mix16d",
    "runner.noise_s": "wall_cal_s on fig4 and mix16d",
    "runner.noise_use_ratio": "wall_cal_s on sweep_k (about 1/(K+1) of draws are used)",
    "runner.loop_self_s": "wall_cal_s on fig4 (TV, trajectory copies) and mix16d (block merge)",
    "runner.chain_steps_per_s": "wall_cal_s on all three",
    "runner.parallel_eff": "wall_cal_s and cpu_cal_s on mix16d (the only multi-block threaded one)",
    "runner.thread_speedup": "wall_cal_s and cpu_cal_s on mix16d",
    "runner.write_s": "wall_cal_s on fig4 and mix16d; ~0 on sweep_k",
    "runner.bytes_written": "wall_cal_s on fig4 and mix16d",
    "metrics.heatmap_bin_s": "wall_cal_s on fig4 only",
    "metrics.quality_s": "wall_cal_s on mix16d (sliced W1) and sweep_k (W1 bisection)",
    "trace.overhead_frac": "none: cost of the tracing itself",
}

# end-to-end metrics gated by BENCHMARK.json, then ones reported alongside
END_TO_END = ("wall_cal_s", "cpu_cal_s", "setup_s", "peak_rss_mb")
RAW = ("wall_s", "cpu_s", "setup_raw_s", "speed_scale")

UNITS = {
    "wall_cal_s": "s", "cpu_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "wall_s": "s", "cpu_s": "s", "setup_raw_s": "s", "speed_scale": "ratio",
    "cli.import_s": "s", "cli.import_scipy_s": "s", "config.load_s": "s",
    "config.validate_calls": "count", "schedule.build_s": "s",
    "schedule.alpha_calls": "count", "model.eps_s": "s", "model.eps_calls": "count",
    "model.eps_ns_per_chain_step": "ns", "samplers.step_self_s": "s",
    "runner.noise_s": "s", "runner.noise_use_ratio": "ratio", "runner.loop_self_s": "s",
    "runner.chain_steps_per_s": "1/s", "runner.parallel_eff": "ratio",
    "runner.thread_speedup": "ratio", "runner.write_s": "s", "runner.bytes_written": "bytes",
    "metrics.heatmap_bin_s": "s", "metrics.quality_s": "s", "trace.overhead_frac": "ratio",
}


WORKING_SET_NOTE = (
    "Every workload's working set (per-block noise, predictor temporaries and "
    "state, times active threads) is far below the last-level cache, so model "
    "timings are bound by per-call overhead and compute, not memory bandwidth.")

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
import difflab.cli
from difflab.config import RunSpec, SweepSpec
spec = {loader}.from_json({spec!r})
spec = getattr(spec, "base", spec)
spec.build_model(); spec.build_schedule(); spec.build_sampler_config()
print(repr(time.monotonic()))
"""


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------- environment

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '')}"] = \
                (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(difflab, load_at_start) -> dict:
    import numpy
    import scipy

    caches = _caches()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "difflab": difflab.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "git_commit": _git_commit(),
        "git_commit_note": None if (ROOT / ".git").exists()
        else "checkout is not a git repository",
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


def working_set_mib(spec: dict, threads: int, block: int) -> float:
    """Bytes an active block touches, from array shapes (computed, not measured)."""
    model = spec["model"]
    n_comp, dim = len(model["weights"]), len(model["means"][0])
    steps = spec["schedule"].get("respace_k") or spec["schedule"]["T"]
    chains = min(block, spec["n_chains"])
    noise = chains * (steps + 1) * dim
    predictor = 4 * chains * n_comp * dim + 8 * chains * dim
    return threads * 8 * (noise + predictor) / (1 << 20)


# ---------------------------------------------------------------- set-up

def setup_launch(spec_path: Path, sweep: bool, importtime: bool) -> tuple[float, str]:
    """Launch a fresh interpreter that imports the CLI and builds the spec.

    Returns (seconds from launch until the spec was built, stderr).
    """
    code = SETUP_CHILD.format(src=str(SRC), spec=str(spec_path),
                              loader="SweepSpec" if sweep else "RunSpec")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start, proc.stderr


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds to import difflab.cli, seconds spent importing scipy) from -X importtime."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    difflab_s = sum(c for d, n, c in entries
                    if d == 0 and (n == "difflab" or n.startswith("difflab.")))
    # entries are printed children-first; walk them parents-first with a stack
    scipy_s, stack = 0.0, []
    for depth, name, cum in reversed(entries):
        del stack[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(stack):
            scipy_s += cum
        stack.append(is_scipy)
    return difflab_s, scipy_s


# ---------------------------------------------------------------- calibration

def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of the work a difflab command does: small
    numpy element-wise ops and reductions, Python loops, float formatting."""
    a = np.linspace(0.0, 1.0, 4096).reshape(2048, 2)
    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        b = np.exp(-a * (i % 7 + 1))
        acc += float(np.sum(b * b, axis=-1).max())
        acc += sum(j * 0.5 for j in range(300))
        acc += len([format(v, ".17g") for v in b[:40, 0]])
    return time.perf_counter() - start


class Calibrator:
    """Tracks how fast the machine runs at the moment.

    On the shared 2-vCPU box the benchmark was tuned on, the same command's
    wall time swings up to 2x, in phases of seconds to minutes, with nothing
    else running in the container. Raw medians of one run differ by 25-35%
    from those of runs a few minutes later. So the gated times are calibrated:
    wall time x CAL_REF_S / (mean time of the calibration kernel run just
    before and just after), i.e. the time the work would take at the speed at
    which the kernel takes CAL_REF_S. A change to difflab moves the command,
    not the kernel; a slow phase of the machine moves both.
    """

    def __init__(self):
        self.last = calibration_kernel()

    def run(self, fn):
        """Return (fn(), the calibration scale for the time fn took)."""
        before = self.last
        result = fn()
        self.last = calibration_kernel()
        return result, CAL_REF_S / (0.5 * (before + self.last))


# ---------------------------------------------------------------- commands

class Runner:
    """Issues CLI commands for one workload and checks every output.

    The first command at each thread count whose output passes the full check
    becomes the reference. Every later command uses the same seed, so its
    output must be byte-identical to the reference: equal sha256 for every
    file stands in for the full check, and any difference is a failure that
    the full check then explains.
    """

    def __init__(self, workload, seed, cli_main, work: Path, calibrator: Calibrator):
        self.workload = workload
        self.calibrator = calibrator
        self.seed = seed
        self.cli_main = cli_main
        self.out = work / "out"
        self.args, self.spec_path = workload.prepare(seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[int, dict[str, str]] = {}  # thread count -> sha256s

    def command(self, threads: int, label: str, tracer=None) -> dict | None:
        """Run one command; return its timings, or None if it or its check failed."""
        if self.out.exists():
            shutil.rmtree(self.out)
        argv = self.args + ["--out-dir", str(self.out), "--threads", str(threads)]
        self.attempted += 1

        def run():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if tracer is None:
                        rc = self.cli_main(argv)
                    else:
                        rc = tracer.call("cli.main", self.cli_main, argv)
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            return rc, time.perf_counter() - wall0, time.process_time() - cpu0

        (rc, wall, cpu), scale = self.calibrator.run(run)
        problems = [f"exit status {rc}"] if rc != 0 else self._check(threads)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            return None
        return {"wall_s": wall, "cpu_s": cpu, "wall_cal_s": wall * scale,
                "cpu_cal_s": cpu * scale, "speed_scale": scale,
                "bytes_written": _dir_bytes(self.out)}

    def _check(self, threads: int) -> list[str]:
        digests = workloads.output_digests(self.out)
        reference = self.references.get(threads)
        if digests == reference:
            return []
        problems = self.workload.check(self.out, self.seed)
        if reference is not None:
            problems.insert(0, "output differs from the first checked command of this "
                               f"seed in {', '.join(_changed(digests, reference))}")
            return problems
        # thread invariance: only the manifest, which records the thread count, may differ
        for other, theirs in self.references.items():
            changed = [name for name in _changed(digests, theirs) if name != "manifest.json"]
            if changed:
                problems.append(f"threads={threads} output differs from threads={other} "
                                f"in {', '.join(changed)}")
        if not problems:
            self.references[threads] = digests
        return problems


def _changed(a: dict, b: dict) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_window(seconds: float, step, extras=()) -> None:
    """Call step(0), step(1), ... for `seconds`, and each of `extras` once, at
    evenly spaced times in between, so that both sample the whole window.

    Stops before an iteration that would end past `seconds`, judged by the
    length of the last one; step(0) always runs.
    """
    start = last = time.perf_counter()
    pending = [(start + seconds * (k + 0.5) / len(extras), fn) for k, fn in enumerate(extras)]
    i = 0
    while True:
        while pending and time.perf_counter() >= pending[0][0]:
            pending.pop(0)[1]()
        step(i)
        now = time.perf_counter()
        i += 1
        if now - start + (now - last) > seconds:
            break
        last = now
    for _, fn in pending:
        fn()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------- one workload

def measure_untraced(runner, threads: int, seconds: int, launch) -> dict:
    """End-to-end samples: commands back to back for `seconds`, with the
    fresh-interpreter set-ups spread among them."""
    results, setups = [], []

    def step(i):
        r = runner.command(threads, f"command {i}")
        if r is not None:
            results.append(r)

    def setup():
        (seconds_to_built, _), scale = runner.calibrator.run(lambda: launch(False))
        setups.append((seconds_to_built, scale))

    run_window(seconds, step, [setup] * N_SETUP)
    samples = {key: [r[key] for r in results]
               for key in ("wall_cal_s", "cpu_cal_s", "wall_s", "cpu_s", "speed_scale")}
    samples["setup_s"] = [t * scale for t, scale in setups]
    samples["setup_raw_s"] = [t for t, _ in setups]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return samples


def measure_traced(runner, difflab, run_name: str, threads: int, seconds: int, launch):
    """Per-layer samples: untraced and traced commands in turn for `seconds`.
    Spread among them are `-X importtime` launches and a few untraced
    commands at the other thread count (1 <-> 2).

    Returns (samples, reasons for metrics that could not be measured, extras).
    """
    from tracer import NEEDS, Tracer, command_metrics

    tracer = Tracer()
    per_command, spans_out, untraced, traced, imports = [], [], [], [], []
    other = 1 if threads > 1 else 2
    walls = {threads: untraced, other: []}
    pairs = 0

    def step(i):
        nonlocal pairs
        pairs += 1
        base = runner.command(threads, f"untraced {i}")
        tracer.run_id = f"{run_name}-c{i}"
        tracer.install(difflab)
        try:
            timed = runner.command(threads, f"traced {i}", tracer)
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        spans_out.extend(spans)
        if base is not None:
            untraced.append(base["wall_cal_s"])
        if timed is not None:
            traced.append(timed["wall_cal_s"])
            metrics = command_metrics(spans, counts)
            metrics["runner.bytes_written"] = float(timed["bytes_written"])
            per_command.append(metrics)

    def other_threads():
        r = runner.command(other, f"threads={other}")
        if r is not None:
            walls[other].append(r["wall_cal_s"])

    run_window(seconds, step,
               [lambda: imports.append(parse_importtime(launch(True)[1]))] * N_IMPORTTIME
               + [other_threads] * N_OTHER_THREADS)
    samples = {key: [m[key] for m in per_command if m.get(key) is not None]
               for key in LAYER_MAP if key in per_command[0]} if per_command else {}
    samples["cli.import_s"] = [d for d, _ in imports]
    samples["cli.import_scipy_s"] = [s for _, s in imports]
    if walls[1] and walls[2]:
        samples["runner.thread_speedup"] = [_median(walls[1]) / _median(walls[2])]
    if untraced and traced:
        samples["trace.overhead_frac"] = [_median(traced) / _median(untraced) - 1.0]
    samples["untraced_wall_cal_s"] = untraced
    samples["traced_wall_cal_s"] = traced
    samples[f"threads{other}_wall_cal_s"] = walls[other]

    reasons = {}
    for key, needs in NEEDS.items():
        gone = [tracer.missing[n] for n in needs if n in tracer.missing]
        if gone:
            reasons[key] = "; ".join(gone)
            samples[key] = []
    layer_self: dict[str, list] = {}
    for m in per_command:
        for layer, v in m["layer_self_s"].items():
            layer_self.setdefault(layer, []).append(v)
    extra = {
        "layer_self_s": {k: _median(v) for k, v in layer_self.items()},
        # a traced command passes only if every output file matches the untraced reference
        "digest_identity": {"traced_commands": pairs,
                            "all_outputs_identical_to_untraced": len(traced) == pairs},
        "spans_file": str(_write_spans(run_name, spans_out).relative_to(ROOT)),
    }
    return samples, reasons, extra


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    load_at_start = os.getloadavg()
    import difflab
    import difflab.cli

    if not str(Path(difflab.__file__).resolve()).startswith(str(SRC)):
        print(f"error: imported difflab from {difflab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    work = OUT / f"work-{name}"
    if work.exists():
        shutil.rmtree(work)
    runner = Runner(workload, seed, difflab.cli.main, work, Calibrator())
    spec_path = runner.spec_path or Path(difflab.__file__).parent / "specs" / "toy_fig4.json"
    threads = workload.threads

    if runner.command(threads, "warm-up") is not None:
        runner.problems.extend(workloads.self_test(workload, runner.out, work / "corrupt", seed))

    def launch(importtime: bool):
        return setup_launch(spec_path, workload.command == "sweep", importtime)

    if trace:
        samples, reasons, extra = measure_traced(runner, difflab, f"{name}-seed{seed}",
                                                 threads, seconds, launch)
        metric_keys = list(LAYER_MAP)
    else:
        samples, reasons, extra = measure_untraced(runner, threads, seconds, launch), {}, {}
        metric_keys = list(END_TO_END)

    metrics = {}
    for key in metric_keys:
        entry = {"value": _median(samples.get(key) or []), "unit": UNITS[key]}
        if entry["value"] is None:
            entry["reason"] = reasons.get(key, "no successful command measured it")
        metrics[key] = entry
    ungated = {key: {"value": _median(samples[key]), "unit": UNITS[key]}
               for key in RAW if samples.get(key)}

    correct = not runner.problems
    env = environment(difflab, load_at_start)
    l3 = _size_bytes(env["caches"].get("L3"))
    ws = working_set_mib(_spec_dict(spec_path), threads,
                         getattr(difflab.runner, "_BLOCK", 2048))
    env["working_set_mib"] = ws
    env["working_set_fits_l3"] = None if l3 is None else ws * (1 << 20) < l3
    env["working_set_note"] = WORKING_SET_NOTE
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed, "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems, "metrics": metrics, "ungated": ungated,
        "output_sha256": runner.references.get(threads),
        "samples": samples, "layer_map": LAYER_MAP, "env": env, **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    _print_summary(record)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def _spec_dict(path: Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return data.get("base", data)


def _write_spans(run_name: str, spans: list) -> Path:
    path = OUT / f"spans-{run_name}.json"
    OUT.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "run", "name", "start_s", "end_s"],
                   "spans": spans}, fh, separators=(",", ":"))
    return path


def _print_summary(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} commands, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.3f})")
    rows = list(record["metrics"].items())
    rows += [(f"{key} (raw, not gated)", entry) for key, entry in record["ungated"].items()]
    for label, entry in rows:
        vals = record["samples"].get(label.split()[0]) or []
        q1, q3 = _quartiles(vals)
        if entry["value"] is None:
            print(f"  {label:30s} null ({entry['reason']})")
        elif len(vals) > 1:
            print(f"  {label:30s} {entry['value']:.6g} {entry['unit']}  "
                  f"(median of {len(vals)}, q1 {q1:.6g}, q3 {q3:.6g})")
        else:
            print(f"  {label:30s} {entry['value']:.6g} {entry['unit']}  (n={len(vals)})")
    for p in record["problems"]:
        print(f"  FAILED {p}")


# ---------------------------------------------------------------- all workloads

def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    rows = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            ok = False
            print(f"workload {name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            if not lines:
                continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, entry in result["metrics"].items():
            rows[f"{name}.{key}"] = entry
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": rows}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "difflab" / "cli.py").is_file():
        print(f"error: no difflab sources at {SRC}; run from a difflab checkout",
              file=sys.stderr)
        return 2
    # the CLI reads DIFFLAB_* variables; none may alter a workload
    for key in [k for k in os.environ if k.startswith("DIFFLAB_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
