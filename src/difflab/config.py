"""Declarative run and sweep specifications (JSON files)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .model import GaussianMixtureModel
from .samplers import SamplerConfig
from .schedule import NoiseSchedule, RespacedSchedule, linear_beta_schedule, respace

__all__ = ["RunSpec", "SweepSpec", "SpecError"]

SWEEP_AXES = ("b", "c", "eta_mode", "K")


class SpecError(ValueError):
    """Invalid spec content; the message carries the offending field path."""


_sentinel = object()


def _get(d: dict, key: str, path: str, default=_sentinel):
    if key in d:
        return d[key]
    if default is _sentinel:
        raise SpecError(f"missing required field '{path}.{key}'")
    return default


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one sampling run byte-for-byte."""

    weights: tuple
    means: tuple            # tuple of per-component coordinate tuples
    variances: tuple
    T: int
    beta_start: float
    beta_end: float
    alpha_zero: float = 1.0
    respace_k: int | None = None
    respace_mode: str = "uniform"
    sampler: dict = field(default_factory=dict)   # SamplerConfig field overrides
    n_chains: int = 1000
    seed: int = 0
    threads: int = 1
    trajectories: bool = True
    trajectory_chains: int | None = 100
    heatmap: dict | None = None   # {"t_bins", "x_bins", "x_min", "x_max"}
    metrics: bool = True

    def build_model(self) -> GaussianMixtureModel:
        try:
            return GaussianMixtureModel(
                weights=np.array(self.weights, dtype=float),
                means=np.array(self.means, dtype=float),
                variances=np.array(self.variances, dtype=float),
            )
        except ValueError as exc:
            raise SpecError(f"model: {exc}") from exc

    def build_schedule(self):
        try:
            sched = linear_beta_schedule(self.T, self.beta_start, self.beta_end,
                                         alpha_zero=self.alpha_zero)
            if self.respace_k is not None:
                return respace(sched, self.respace_k, self.respace_mode)
            return sched
        except ValueError as exc:
            raise SpecError(f"schedule: {exc}") from exc

    def build_sampler_config(self) -> SamplerConfig:
        try:
            return SamplerConfig(**self.sampler)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"sampler: {exc}") from exc

    def validate(self) -> "RunSpec":
        self.build_model()
        self.build_schedule()
        self.build_sampler_config()
        if self.n_chains < 0:
            raise SpecError("n_chains: must be non-negative")
        if self.threads < 1:
            raise SpecError("threads: must be positive")
        if self.heatmap is not None:
            for key in ("t_bins", "x_bins"):
                if int(self.heatmap.get(key, 0)) < 1:
                    raise SpecError(f"heatmap.{key}: must be a positive integer")
            x_min = float(self.heatmap.get("x_min", -6.0))
            x_max = float(self.heatmap.get("x_max", 6.0))
            if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
                raise SpecError("heatmap.x_min, heatmap.x_max: need finite x_min < x_max")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        model = _get(d, "model", "spec")
        sched = _get(d, "schedule", "spec")
        means = model.get("means")
        if means is None:
            raise SpecError("missing required field 'spec.model.means'")
        means = tuple(tuple(np.atleast_1d(np.asarray(m, dtype=float))) for m in means)
        spec = cls(
            weights=tuple(_get(model, "weights", "model")),
            means=means,
            variances=tuple(_get(model, "variances", "model")),
            T=int(_get(sched, "T", "schedule")),
            beta_start=float(_get(sched, "beta_start", "schedule")),
            beta_end=float(_get(sched, "beta_end", "schedule")),
            alpha_zero=float(sched.get("alpha_zero", 1.0)),
            respace_k=(int(sched["respace_k"]) if sched.get("respace_k") is not None else None),
            respace_mode=sched.get("respace_mode", "uniform"),
            sampler=dict(d.get("sampler", {})),
            n_chains=int(d.get("n_chains", 1000)),
            seed=int(d.get("seed", 0)),
            threads=int(d.get("threads", 1)),
            trajectories=bool(d.get("trajectories", True)),
            trajectory_chains=(int(d["trajectory_chains"])
                               if d.get("trajectory_chains") is not None else None),
            heatmap=(dict(d["heatmap"]) if d.get("heatmap") else None),
            metrics=bool(d.get("metrics", True)),
        )
        return spec.validate()

    def to_dict(self) -> dict:
        return {
            "model": {
                "weights": list(self.weights),
                "means": [list(m) for m in self.means],
                "variances": list(self.variances),
            },
            "schedule": {
                "T": self.T,
                "beta_start": self.beta_start,
                "beta_end": self.beta_end,
                "alpha_zero": self.alpha_zero,
                "respace_k": self.respace_k,
                "respace_mode": self.respace_mode,
            },
            "sampler": dict(self.sampler),
            "n_chains": self.n_chains,
            "seed": self.seed,
            "threads": self.threads,
            "trajectories": self.trajectories,
            "trajectory_chains": self.trajectory_chains,
            "heatmap": self.heatmap,
            "metrics": self.metrics,
        }

    @classmethod
    def from_json(cls, path) -> "RunSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"unreadable spec {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def with_overrides(self, **kw) -> "RunSpec":
        return replace(self, **kw).validate()


@dataclass(frozen=True)
class SweepSpec:
    base: RunSpec
    axis: str
    values: tuple
    seeds_per_cell: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise SpecError(f"sweep.axis: must be one of {SWEEP_AXES}")
        if len(self.values) == 0:
            raise SpecError("sweep.values: must be non-empty")
        if self.seeds_per_cell < 1:
            raise SpecError("sweep.seeds_per_cell: must be positive")

    def cell_spec(self, value, seed_offset: int) -> RunSpec:
        base = self.base
        if self.axis == "K":
            spec = replace(base, respace_k=int(value))
        elif self.axis == "eta_mode":
            spec = replace(base, sampler={**base.sampler, "eta_mode": str(value)})
        else:
            spec = replace(base, sampler={**base.sampler, self.axis: float(value)})
        return replace(spec, seed=base.seed + seed_offset).validate()

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        return cls(
            base=RunSpec.from_dict(_get(d, "base", "sweep")),
            axis=str(_get(d, "axis", "sweep")),
            values=tuple(_get(d, "values", "sweep")),
            seeds_per_cell=int(d.get("seeds_per_cell", 1)),
        )

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"unreadable sweep spec {path}: {exc}") from exc
        return cls.from_dict(data)
