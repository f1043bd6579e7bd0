"""Experiment configuration: a JSON-serializable dataclass with validation.

A config fully determines an experiment run: the source, the estimator
family, schedule knobs, the data-size grid, replica count and master
seed.  ``to_dict`` is its JSON record, the one each run keeps under
``config`` in ``summary.json``; ``load`` reads such a record from a file.
``validate`` rejects impossible settings up front with the offending
field named — including schedules whose worst-case search depth would
not fit the requested paths.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError, InputError
from .estimators import FiniteAlphabetSchedule, RealValuedSchedule, Schedule
from .quantize import IntervalFieldHierarchy, OutcomeSpace
from .sources import build_source

__all__ = ["ExperimentConfig", "build_schedule", "outcome_space_for"]

ESTIMATOR_KINDS = ("pattern", "side_info")
MODEL_KINDS = ("kt_mixture", "lz78")
LOSS_KINDS = ("hamming", "squared")


def _is_int(value) -> bool:
    # JSON has one number type and true/false are ints to Python, so 1.5 or
    # true would otherwise pass as a count and be reported back unchanged.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# schedule key -> (type check, what the check wants, conversion)
SCHEDULE_KEYS = {
    "mode": (lambda v: isinstance(v, str), "a string", str),
    "epsilon": (_is_real, "a finite real number", float),
    "known_rate": (
        lambda v: v is None or _is_real(v),
        "a finite real number or null",
        lambda v: None if v is None else float(v),
    ),
    "budget_fraction": (_is_real, "a finite real number", float),
    "j0": (_is_int, "an integer", int),
    "j_growth": (_is_real, "a finite real number", float),
    "max_level": (_is_int, "an integer", int),
}
# schedule mode -> the keys it reads besides ``mode``.  A key left out takes
# the default of the schedule class (or of the interval hierarchy).
MODE_KEYS = {
    "finite": ("epsilon", "known_rate", "budget_fraction"),
    "real": ("j0", "j_growth", "max_level"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    source: str | dict = "iid_fair"
    estimator: str = "pattern"
    model: str = "kt_mixture"  # divergence-curve: the averaged sequential model
    model_order: int = 4  # mixture depth for kt_mixture
    schedule: dict = field(default_factory=dict)
    n_grid: tuple[int, ...] = (1_000, 10_000, 100_000)
    replicas: int = 1
    seed: int = 0
    out_dir: str = "results"
    workers: int = 1
    trials: int = 100_000  # recurrence-stats: first-recurrence trials
    k_grid: tuple[int, ...] = ()  # recurrence-stats: growth sweep levels
    loss: str = "hamming"  # predict: loss shaping the plug-in action

    def __post_init__(self):
        for name in ("model_order", "replicas", "seed", "workers", "trials"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(name, f"must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("n_grid", "k_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not all(map(_is_int, grid)):
                raise ConfigError(name, f"must be a list of integers, got {grid!r}")
            object.__setattr__(self, name, tuple(int(v) for v in grid))
        if not isinstance(self.schedule, dict):
            raise ConfigError("schedule", f"must be an object, got {self.schedule!r}")
        for key, value in self.schedule.items():
            if key not in SCHEDULE_KEYS:
                choices = tuple(SCHEDULE_KEYS)
                raise ConfigError(f"schedule.{key}", f"unknown key; choose from {choices}")
            check, wanted, _ = SCHEDULE_KEYS[key]
            if not check(value):
                raise ConfigError(f"schedule.{key}", f"must be {wanted}, got {value!r}")
        mode = self.schedule.get("mode", "finite")
        if mode not in MODE_KEYS:
            raise ConfigError("schedule.mode", f"must be one of {tuple(MODE_KEYS)}")
        for key in self.schedule:
            if key != "mode" and key not in MODE_KEYS[mode]:
                raise ConfigError(f"schedule.{key}", f"is not read in {mode} mode")
        object.__setattr__(self, "schedule", dict(self.schedule))

    def schedule_args(self, *keys) -> dict:
        """The given schedule keys that the config sets, converted."""
        return {k: SCHEDULE_KEYS[k][2](self.schedule[k]) for k in keys if k in self.schedule}

    @property
    def real_mode(self) -> bool:
        """Whether ``schedule.mode`` asks for the dyadic interval hierarchy."""
        return self.schedule.get("mode", "finite") == "real"

    # -- serialization --------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config", "must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(key, "unknown config field")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise ConfigError("config", f"{path} is not UTF-8 JSON: {e}") from e
        cfg = cls.from_dict(raw)
        cfg.validate()
        return cfg

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    # -- validation ------------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        # The source's own validators check the preset name or inline spec.
        try:
            source = build_source(self.source)
        except InputError as err:
            raise ConfigError("source", str(err)) from None
        if self.estimator not in ESTIMATOR_KINDS:
            raise ConfigError("estimator", f"must be one of {ESTIMATOR_KINDS}")
        if self.model not in MODEL_KINDS:
            raise ConfigError("model", f"must be one of {MODEL_KINDS}")
        if self.model_order < 0:
            raise ConfigError("model_order", "must be nonnegative")
        if self.loss not in LOSS_KINDS:
            raise ConfigError("loss", f"must be one of {LOSS_KINDS}")
        if not self.n_grid:
            raise ConfigError("n_grid", "must not be empty")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid", "sizes must be positive")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid", "sizes must be strictly increasing")
        if any(k < 1 for k in self.k_grid):
            raise ConfigError("k_grid", "levels must be positive")
        if any(b <= a for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ConfigError("k_grid", "levels must be strictly increasing")
        if self.replicas < 1:
            raise ConfigError("replicas", "must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must fit in an unsigned 64-bit integer")
        if self.workers < 1:
            raise ConfigError("workers", "must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials", "must be at least 1")
        build_schedule(self, source).validate(self.n_grid)
        return self


def outcome_space_for(config: ExperimentConfig, source) -> OutcomeSpace:
    """The outcome space an experiment works in.

    Finite mode uses the source's own alphabet; real mode (requested via
    ``schedule.mode = "real"``) uses the dyadic interval hierarchy, which
    requires the source to carry numeric outcome values.
    """
    if config.real_mode:
        if source.values is None:
            raise ConfigError("schedule.mode", "real mode needs a source with numeric values")
        return IntervalFieldHierarchy(**config.schedule_args("max_level"))
    return source.alphabet()


def build_schedule(config: ExperimentConfig, source) -> Schedule:
    """Construct the data-size schedule a config describes."""
    if config.real_mode:
        return RealValuedSchedule(
            hierarchy=outcome_space_for(config, source), **config.schedule_args("j0", "j_growth")
        )
    return FiniteAlphabetSchedule(
        alphabet_size=source.alphabet_size,
        **config.schedule_args("epsilon", "known_rate", "budget_fraction"),
    )
