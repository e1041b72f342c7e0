"""Declarative run and sweep specifications (JSON files)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .metrics import heatmap_grid
from .model import GaussianMixtureModel
from .samplers import SamplerConfig, StepPlan
from .schedule import NoiseSchedule, linear_beta_schedule, respace

__all__ = ["RunSpec", "SweepSpec", "SpecError"]

SWEEP_AXES = ("b", "c", "eta_mode", "K")
_SPEC_FIELDS = ("model", "schedule", "sampler", "n_chains", "seed", "threads",
                "trajectories", "trajectory_chains", "heatmap", "metrics")


class SpecError(ValueError):
    """Invalid spec content; the message carries the offending field path."""


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise SpecError(f"missing required field '{path}.{key}'")
    return d[key]


def _section(d: dict, key: str, path: str, fields: tuple) -> dict:
    value = _get(d, key, path)
    if not isinstance(value, dict):
        raise SpecError(f"{key}: must be an object, not {type(value).__name__}")
    _known(value, fields, f"{key}.")
    return value


def _known(d: dict, keys: tuple, path: str) -> None:
    for key in d:
        if key not in keys:
            raise SpecError(f"{path}{key}: unknown field")


def _as(kind, value, name: str):
    """kind(value), with a failed conversion reported against the field name."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{name}: {exc}") from exc


def _int(value, name: str) -> int:
    """A JSON number with a whole value; a boolean, a string or a fraction is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise SpecError(f"{name}: must be an integer, not {value!r}")
    return int(value)


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name}: must be true or false, not {value!r}")
    return value


def _optional(convert):
    """convert, with JSON null kept as None."""
    return lambda value, name: None if value is None else convert(value, name)


def _heatmap(value, name: str) -> dict | None:
    """The setting as given, or None; metrics.heatmap_grid makes the other checks."""
    if not value:
        return None
    heatmap = _as(dict, value, name)
    for key in ("t_bins", "x_bins"):
        if key in heatmap:
            _int(heatmap[key], f"{name}.{key}")
    return heatmap


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
    trajectory_chains: int | None = None   # None records every chain
    heatmap: dict | None = None   # {"t_bins", "x_bins", "x_min", "x_max"}
    metrics: bool = True

    def build_model(self) -> GaussianMixtureModel:
        try:
            return GaussianMixtureModel(
                weights=np.array(self.weights, dtype=float),
                means=np.array(self.means, dtype=float),
                variances=np.array(self.variances, dtype=float),
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"model: {exc}") from exc

    def build_schedule(self) -> NoiseSchedule:
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
        model = self.build_model()
        schedule = self.build_schedule()
        config = self.build_sampler_config()
        try:
            StepPlan.build(schedule, config)
        except ValueError as exc:
            raise SpecError(f"sampler.eta_mode: {exc}") from exc
        if self.n_chains < 0:
            raise SpecError("n_chains: must be non-negative")
        if self.seed < 0:
            raise SpecError("seed: must be non-negative")
        if self.threads < 1:
            raise SpecError("threads: must be positive")
        if self.trajectory_chains is not None and self.trajectory_chains < 0:
            raise SpecError("trajectory_chains: must be non-negative")
        if self.heatmap is not None:
            try:
                heatmap_grid(self.heatmap, schedule.tau[-1], model.D)
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        """The validated spec of a JSON object; a field it leaves out takes the
        dataclass default."""
        if not isinstance(d, dict):
            raise SpecError(f"spec: must be an object, not {type(d).__name__}")
        _known(d, _SPEC_FIELDS, "")
        model = _section(d, "model", "spec", ("weights", "means", "variances"))
        sched = _section(d, "schedule", "spec", ("T", "beta_start", "beta_end", "alpha_zero",
                                                 "respace_k", "respace_mode"))
        try:
            means = tuple(tuple(np.atleast_1d(np.asarray(m, dtype=float)))
                          for m in _get(model, "means", "model"))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"model.means: {exc}") from exc
        kw = {
            "weights": _as(tuple, _get(model, "weights", "model"), "model.weights"),
            "means": means,
            "variances": _as(tuple, _get(model, "variances", "model"), "model.variances"),
            "T": _int(_get(sched, "T", "schedule"), "schedule.T"),
            "beta_start": _as(float, _get(sched, "beta_start", "schedule"), "schedule.beta_start"),
            "beta_end": _as(float, _get(sched, "beta_end", "schedule"), "schedule.beta_end"),
        }
        for section, path, key, convert in (
                (sched, "schedule.", "alpha_zero", partial(_as, float)),
                (sched, "schedule.", "respace_k", _optional(_int)),
                (sched, "schedule.", "respace_mode", lambda value, name: value),
                (d, "", "sampler", partial(_as, dict)),
                (d, "", "n_chains", _int),
                (d, "", "seed", _int),
                (d, "", "threads", _int),
                (d, "", "trajectories", _bool),
                (d, "", "trajectory_chains", _optional(_int)),
                (d, "", "heatmap", _heatmap),
                (d, "", "metrics", _bool)):
            if key in section:
                kw[key] = convert(section[key], path + key)
        return cls(**kw).validate()

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
        if self.base.n_chains < 1:
            raise SpecError("sweep.base.n_chains: must be positive")
        for value in self.values:   # a bad cell fails before the first one runs
            self.cell_spec(value, 0).validate()

    def cell_spec(self, value, seed_offset: int) -> RunSpec:
        """The run spec of one cell; every value was validated with the sweep,
        and a non-negative seed offset keeps the seed valid."""
        base = self.base
        name = f"sweep.values ({self.axis})"
        if self.axis == "K":
            spec = replace(base, respace_k=_int(value, name))
        elif self.axis == "eta_mode":
            spec = replace(base, sampler={**base.sampler, "eta_mode": str(value)})
        else:
            spec = replace(base, sampler={**base.sampler, self.axis: _as(float, value, name)})
        return replace(spec, seed=base.seed + seed_offset)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        if not isinstance(d, dict):
            raise SpecError(f"sweep: must be an object, not {type(d).__name__}")
        _known(d, ("base", "axis", "values", "seeds_per_cell"), "sweep.")
        return cls(
            base=RunSpec.from_dict(_get(d, "base", "sweep")),
            axis=str(_get(d, "axis", "sweep")),
            values=_as(tuple, _get(d, "values", "sweep"), "sweep.values"),
            seeds_per_cell=_int(d.get("seeds_per_cell", 1), "sweep.seeds_per_cell"),
        )

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"unreadable sweep spec {path}: {exc}") from exc
        return cls.from_dict(data)
