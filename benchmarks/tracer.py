"""Spans and counters around the calls between difflab's modules.

The tracer wraps module-level names from outside the program: while it is
installed, each wrapped call records a span (id, parent, run id, name, start,
end) in memory, and some calls bump counters. `uninstall` puts every original
back, so untraced commands run the unmodified code. Where a wrapped name no
longer exists, the tracer records why and the metrics that need it come out
as None with that reason; the run goes on.

Span names are "<layer>.<what>", the layer being the difflab module that does
the work: cli, config, schedule, model, samplers, runner, metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._pool_parent = None     # span that blocks run by pool threads belong to
        self._noise_use: dict = {}

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, n: float) -> None:
        with self._lock:
            self.counts[key] += n

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end))

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing[label] = f"{label} no longer exists"
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = functools.wraps(fn)(make_wrapper(fn))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def _spanned(self, owner, attr: str, name: str, after=None) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _counted(self, owner, attr: str, key: str) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                if not getattr(self._local, "paused", False):
                    self._count(key, 1)
                return fn(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def install(self, difflab) -> None:
        """Wrap the boundary calls of the imported `difflab` package."""
        cli, config, runner = difflab.cli, difflab.config, difflab.runner
        samplers, schedule, metrics = difflab.samplers, difflab.schedule, difflab.metrics

        self._spanned(cli, "execute_run", "runner.execute_run")
        self._spanned(cli, "execute_sweep", "runner.execute_sweep")
        self._spanned(config.RunSpec, "from_json", "config.load")
        self._spanned(config.SweepSpec, "from_json", "config.load")
        self._spanned(config.SweepSpec, "cell_spec", "config.load")
        self._spanned(config.RunSpec, "validate", "config.validate",
                      lambda a, k, r: self._count("validate_calls", 1))
        self._spanned(config.RunSpec, "build_model", "model.build")
        self._spanned(config.RunSpec, "build_schedule", "schedule.build")
        self._spanned(config.RunSpec, "build_sampler_config", "samplers.build")
        self._counted(schedule.NoiseSchedule, "alpha", "alpha_calls")
        self._counted(schedule.RespacedSchedule, "alpha", "alpha_calls")

        def run_chains(fn):
            def wrapper(*args, **kwargs):
                threads = kwargs.get("threads", args[5] if len(args) > 5 else 1)
                self._noise_use.clear()  # keyed by id(schedule), valid for one call
                start = perf_counter()
                try:
                    # pool threads start with an empty span stack
                    return self.call("runner.run_chains", self._as_pool_parent(fn),
                                     *args, **kwargs)
                finally:
                    self._count("thread_seconds", threads * (perf_counter() - start))
            return wrapper
        self._patch(runner, "run_chains", run_chains)
        self._spanned(runner, "_run_block", "runner.block")
        self._spanned(runner, "_chain_noise", "runner.noise", self._on_noise)
        self._spanned(runner, "_step_core", "samplers.step",
                      lambda a, k, r: self._on_step(samplers, a))
        self._spanned(samplers, "analytic_eps", "model.eps", self._on_eps)
        self._spanned(runner, "bin_trajectory_points", "metrics.heatmap_bin")
        self._spanned(runner, "compute_metrics", "metrics.quality")
        self._spanned(runner, "_write_samples_csv", "runner.write")
        self._spanned(runner, "_write_trajectories_csv", "runner.write")
        self._spanned(metrics.HeatmapGrid, "to_csv", "runner.write")
        if not hasattr(samplers, "sigma"):
            self.missing["samplers.sigma"] = "samplers.sigma no longer exists"

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _as_pool_parent(self, fn):
        def inner(*args, **kwargs):
            previous, self._pool_parent = self._pool_parent, self._stack()[-1]
            try:
                return fn(*args, **kwargs)
            finally:
                self._pool_parent = previous
        return inner

    # ------------------------------------------------------------ counters

    def _on_noise(self, args, kwargs, result) -> None:
        # row 0 is x_T, which every chain uses
        self._count("noise_drawn", result.size)
        self._count("noise_used", result.shape[-1])

    def _on_eps(self, args, kwargs, result) -> None:
        shape = result.eps_hat.shape
        self._count("chain_steps", result.eps_hat.size // shape[-1] if shape else 1)

    def _on_step(self, samplers, args) -> None:
        """Count the drawn noise values a step uses: none on the last step or at sigma=0."""
        state, _, schedule, config, eps_noise = args[:5]
        key = (id(schedule), state.t, config.eta_mode)
        used = self._noise_use.get(key)
        if used is None and hasattr(samplers, "sigma"):
            self._local.paused = True
            try:
                t_prev = schedule.prev_t(state.t)
                used = t_prev > 0 and samplers.sigma(schedule, state.t, t_prev,
                                                     config.eta_mode) != 0.0
            finally:
                self._local.paused = False
            self._noise_use[key] = used
        if used:
            self._count("noise_used", eps_noise.size)

    # ------------------------------------------------------------ analysis

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Durations and self times of one command's spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)
            self.by_name[s[3]].append(s)

    def total(self, name: str) -> float:
        return sum((s[5] - s[4] for s in self.by_name[name]), 0.0)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def self_time(self, span) -> float:
        kids = [(c[4], c[5]) for c in self.children[span[0]]]
        return (span[5] - span[4]) - _union_length(kids, span[4], span[5])

    def total_self(self, name: str) -> float:
        return sum((self.self_time(s) for s in self.by_name[name]), 0.0)

    def outermost(self, layer: str) -> float:
        """Time inside spans of `layer` that no other span of that layer encloses."""
        total = 0.0
        for name, spans in self.by_name.items():
            if name.split(".")[0] != layer:
                continue
            for s in spans:
                parent = self.by_id.get(s[1])
                while parent is not None and parent[3].split(".")[0] != layer:
                    parent = self.by_id.get(parent[1])
                if parent is None:
                    total += s[5] - s[4]
        return total

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for spans in self.by_name.values():
            for s in spans:
                out[s[3].split(".")[0]] += self.self_time(s)
        return dict(out)


# per-layer metric -> wrapped names it needs
NEEDS = {
    "config.load_s": ("RunSpec.from_json",),
    "config.validate_calls": ("RunSpec.validate",),
    "schedule.build_s": ("RunSpec.build_schedule",),
    "schedule.alpha_calls": ("NoiseSchedule.alpha", "RespacedSchedule.alpha"),
    "model.eps_s": ("difflab.samplers.analytic_eps",),
    "model.eps_calls": ("difflab.samplers.analytic_eps",),
    "model.eps_ns_per_chain_step": ("difflab.samplers.analytic_eps",),
    "samplers.step_self_s": ("difflab.runner._step_core", "difflab.samplers.analytic_eps"),
    "runner.noise_s": ("difflab.runner._chain_noise",),
    "runner.noise_use_ratio": ("difflab.runner._chain_noise", "difflab.runner._step_core",
                               "samplers.sigma"),
    "runner.loop_self_s": ("difflab.runner.run_chains", "difflab.runner._run_block",
                           "difflab.runner._chain_noise", "difflab.runner._step_core",
                           "difflab.runner.bin_trajectory_points"),
    "runner.chain_steps_per_s": ("difflab.runner.run_chains",
                                 "difflab.samplers.analytic_eps"),
    "runner.parallel_eff": ("difflab.runner.run_chains", "difflab.runner._run_block"),
    "runner.write_s": ("difflab.runner._write_samples_csv",
                       "difflab.runner._write_trajectories_csv", "HeatmapGrid.to_csv"),
    "metrics.heatmap_bin_s": ("difflab.runner.bin_trajectory_points",),
    "metrics.quality_s": ("difflab.runner.compute_metrics",),
}


def command_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    tree = SpanTree(spans)
    eps_s = tree.total("model.eps")
    run_s = tree.total("runner.run_chains")
    chain_steps = counts.get("chain_steps", 0.0)
    drawn = counts.get("noise_drawn", 0.0)
    thread_s = counts.get("thread_seconds", 0.0)
    return {
        "config.load_s": tree.outermost("config"),
        "config.validate_calls": counts.get("validate_calls", 0.0),
        "schedule.build_s": tree.outermost("schedule"),
        "schedule.alpha_calls": counts.get("alpha_calls", 0.0),
        "model.eps_s": eps_s,
        "model.eps_calls": float(tree.calls("model.eps")),
        "model.eps_ns_per_chain_step": 1e9 * eps_s / chain_steps if chain_steps else None,
        "samplers.step_self_s": tree.total_self("samplers.step"),
        "runner.noise_s": tree.total("runner.noise"),
        "runner.noise_use_ratio": counts.get("noise_used", 0.0) / drawn if drawn else None,
        "runner.loop_self_s": (tree.total_self("runner.run_chains")
                               + tree.total_self("runner.block")),
        "runner.chain_steps_per_s": chain_steps / run_s if run_s else None,
        "runner.parallel_eff": tree.total("runner.block") / thread_s if thread_s else None,
        "runner.write_s": tree.total("runner.write"),
        "metrics.heatmap_bin_s": tree.total("metrics.heatmap_bin"),
        "metrics.quality_s": tree.total("metrics.quality"),
        "layer_self_s": tree.layer_self(),
    }
