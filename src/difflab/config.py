"""Declarative run and sweep specifications (JSON files).

Each RunSpec field states, in its metadata, where it sits in the JSON object
(the "model" or "schedule" section, or the top level) and the rule that reads
its JSON value; from_dict and to_dict are loops over the fields.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .metrics import heatmap_grid
from .model import GaussianMixtureModel
from .samplers import SamplerConfig, StepPlan
from .schedule import NoiseSchedule, linear_beta_schedule, respace

__all__ = ["RunSpec", "SweepSpec", "SpecError"]


class SpecError(ValueError):
    """Invalid spec content; the message carries the offending field path."""


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise SpecError(f"missing required field '{path}.{key}'")
    return d[key]


def _known(d: dict, keys, path: str) -> None:
    for key in d:
        if key not in keys:
            raise SpecError(f"{path}{key}: unknown field")


def _read_json(path, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"unreadable {what} {path}: {exc}") from exc


# Read rules: rule(value, name) is the JSON value as its field holds it, or a
# SpecError naming the field. No rule takes a boolean for a number.

def _int(value, name: str) -> int:
    """A JSON number with a whole value; a boolean, a string or a fraction is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise SpecError(f"{name}: must be an integer, not {value!r}")
    return int(value)


def _float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name}: must be a number, not {value!r}")
    return float(value)


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name}: must be true or false, not {value!r}")
    return value


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{name}: must be a string, not {value!r}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{name}: must be an object, not {type(value).__name__}")
    return value


def _array(rule):
    """A JSON array, each item read by rule, as a tuple."""
    def read(value, name: str) -> tuple:
        if not isinstance(value, list):
            raise SpecError(f"{name}: must be an array, not {value!r}")
        return tuple(rule(item, f"{name}[{i}]") for i, item in enumerate(value))
    return read


def _optional(rule):
    """rule, with JSON null kept as None."""
    return lambda value, name: None if value is None else rule(value, name)


_HEATMAP_RULES = {"t_bins": _int, "x_bins": _int, "x_min": _float, "x_max": _float}


def _heatmap(value, name: str) -> dict:
    """The fields given, read by their rules; metrics.heatmap_grid checks the rest."""
    heatmap = _object(value, name)
    _known(heatmap, _HEATMAP_RULES, f"{name}.")
    return {key: _HEATMAP_RULES[key](item, f"{name}.{key}") for key, item in heatmap.items()}


def _plain(value):
    """value as JSON holds it: tuples as lists, dicts copied."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _spec(section: str, rule, **default):
    """A RunSpec field: its JSON section ("" for the top level) and its read rule."""
    return field(metadata={"section": section, "rule": rule}, **default)


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one sampling run byte-for-byte."""

    weights: tuple = _spec("model", _array(_float))
    means: tuple = _spec("model", _array(_array(_float)))   # per-component coordinates
    variances: tuple = _spec("model", _array(_float))
    T: int = _spec("schedule", _int)
    beta_start: float = _spec("schedule", _float)
    beta_end: float = _spec("schedule", _float)
    alpha_zero: float = _spec("schedule", _float, default=1.0)
    respace_k: int | None = _spec("schedule", _optional(_int), default=None)
    respace_mode: str = _spec("schedule", _str, default="uniform")
    sampler: dict = _spec("", _object, default_factory=dict)   # SamplerConfig overrides
    n_chains: int = _spec("", _int, default=1000)
    seed: int = _spec("", _int, default=0)
    threads: int = _spec("", _int, default=1)
    trajectories: bool = _spec("", _bool, default=True)
    trajectory_chains: int | None = _spec("", _optional(_int), default=None)  # None: every chain
    heatmap: dict | None = _spec("", _optional(_heatmap), default=None)
    metrics: bool = _spec("", _bool, default=True)

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
            return respace(linear_beta_schedule(self.T, self.beta_start, self.beta_end,
                                                alpha_zero=self.alpha_zero),
                           self.respace_k, self.respace_mode)
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
            StepPlan.build(schedule, config, model)
        except ValueError as exc:
            raise SpecError(f"sampler.eta_mode: {exc}") from exc
        if not 0 <= self.n_chains <= 2**32:   # 2**32 chains' samples alone take 32 GiB
            raise SpecError("n_chains: must be between 0 and 2**32")
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
    def from_dict(cls, d: dict, overrides: dict | None = None) -> "RunSpec":
        """The validated spec of a JSON object, with the top-level values of
        overrides in place of its own; a field left out takes the dataclass default."""
        d = {**_object(d, "spec"), **(overrides or {})}
        layout = {}    # section -> its fields, in declaration order
        for f in fields(cls):
            layout.setdefault(f.metadata["section"], []).append(f)
        kw = {}
        for section, members in layout.items():
            part = _object(_get(d, section, "spec"), section) if section else d
            path = f"{section}." if section else ""
            names = [f.name for f in members]
            _known(part, names if section else names + list(filter(None, layout)), path)
            for f in members:
                if f.name in part:
                    kw[f.name] = f.metadata["rule"](part[f.name], path + f.name)
                elif f.default is MISSING and f.default_factory is MISSING:
                    raise SpecError(f"missing required field '{path}{f.name}'")
        return cls(**kw).validate()

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            section = f.metadata["section"]
            part = d.setdefault(section, {}) if section else d
            part[f.name] = _plain(getattr(self, f.name))
        return d

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "RunSpec":
        return cls.from_dict(_read_json(path, "spec"), overrides)


# the rule that reads a sweep value, by the field the axis sweeps
_SWEEP_RULES = {"b": _float, "c": _float, "eta_mode": _str, "K": _int}
SWEEP_AXES = tuple(_SWEEP_RULES)


@dataclass(frozen=True)
class SweepSpec:
    base: RunSpec
    axis: str
    values: tuple       # read by the swept field's rule, each value once
    seeds_per_cell: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise SpecError(f"sweep.axis: must be one of {SWEEP_AXES}")
        if len(self.values) == 0:
            raise SpecError("sweep.values: must be non-empty")
        name = f"sweep.values ({self.axis})"
        values = tuple(_SWEEP_RULES[self.axis](value, name) for value in self.values)
        twice = [value for i, value in enumerate(values) if value in values[:i]]
        if twice:
            raise SpecError(f"{name}: {twice[0]!r} appears more than once")
        object.__setattr__(self, "values", values)
        if self.seeds_per_cell < 1:
            raise SpecError("sweep.seeds_per_cell: must be positive")
        if self.base.n_chains < 1:
            raise SpecError("sweep.base.n_chains: must be positive")
        for value in self.values:   # a bad cell fails before the first one runs
            self.cell_spec(value, 0).validate()

    def cell_spec(self, value, seed_offset: int) -> RunSpec:
        """The run spec of one cell; every value was read and validated with the
        sweep, and a non-negative seed offset keeps the seed valid."""
        base = self.base
        if self.axis == "K":
            return replace(base, respace_k=value, seed=base.seed + seed_offset)
        return replace(base, sampler={**base.sampler, self.axis: value},
                       seed=base.seed + seed_offset)

    @classmethod
    def from_dict(cls, d: dict, overrides: dict | None = None) -> "SweepSpec":
        """The validated sweep of a JSON object; overrides apply to its base."""
        d = _object(d, "sweep")
        _known(d, ("base", "axis", "values", "seeds_per_cell"), "sweep.")
        return cls(
            base=RunSpec.from_dict(_get(d, "base", "sweep"), overrides),
            axis=_str(_get(d, "axis", "sweep"), "sweep.axis"),
            # an array of anything here; __post_init__ reads each value by the axis's rule
            values=_array(lambda value, name: value)(_get(d, "values", "sweep"), "sweep.values"),
            seeds_per_cell=_int(d.get("seeds_per_cell", 1), "sweep.seeds_per_cell"),
        )

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "SweepSpec":
        return cls.from_dict(_read_json(path, "sweep spec"), overrides)
