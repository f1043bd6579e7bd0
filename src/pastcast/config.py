"""Experiment configuration: a JSON-serializable dataclass with validation.

A config fully determines an experiment run: the source, the estimator
family, schedule knobs, the data-size grid, replica count and master
seed.  ``load``/``save`` round-trip through JSON without loss, and
``validate`` rejects impossible settings up front with the offending
field named — including schedules whose worst-case search depth would
not fit the requested paths.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError
from .estimators import FiniteAlphabetSchedule, RealValuedSchedule, Schedule
from .quantize import Alphabet, IntervalFieldHierarchy, OutcomeSpace
from .sources import PRESETS, build_source

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


# schedule key -> (type check, what the check wants)
SCHEDULE_KEYS = {
    "mode": (lambda v: isinstance(v, str), "a string"),
    "epsilon": (_is_real, "a finite real number"),
    "known_rate": (lambda v: v is None or _is_real(v), "a finite real number or null"),
    "budget_fraction": (_is_real, "a finite real number"),
    "j0": (_is_int, "an integer"),
    "j_growth": (_is_real, "a finite real number"),
    "max_level": (_is_int, "an integer"),
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
            check, wanted = SCHEDULE_KEYS[key]
            if not check(value):
                raise ConfigError(f"schedule.{key}", f"must be {wanted}, got {value!r}")
        object.__setattr__(self, "schedule", dict(self.schedule))

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
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        d["k_grid"] = list(self.k_grid)
        return d

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError("config", f"invalid JSON: {e}") from e
        cfg = cls.from_dict(raw)
        cfg.validate()
        return cfg

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    # -- validation ------------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        if isinstance(self.source, str):
            if self.source not in PRESETS:
                raise ConfigError(
                    "source", f"unknown preset {self.source!r}; choose from {sorted(PRESETS)}"
                )
        elif not isinstance(self.source, dict):
            raise ConfigError("source", "must be a preset name or an inline spec object")
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
        # Building the source and schedule exercises their own validators.
        source = build_source(self.source)
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
        return IntervalFieldHierarchy(max_level=int(config.schedule.get("max_level", 32)))
    return source.alphabet()


def build_schedule(config: ExperimentConfig, source) -> Schedule:
    """Construct the data-size schedule a config describes."""
    s = config.schedule
    if config.real_mode:
        return RealValuedSchedule(
            hierarchy=outcome_space_for(config, source),
            j0=int(s.get("j0", 50)),
            j_growth=float(s.get("j_growth", 3.0)),
        )
    if s.get("mode", "finite") != "finite":
        raise ConfigError("schedule.mode", "must be 'finite' or 'real'")
    alphabet: Alphabet = source.alphabet()
    known_rate = s.get("known_rate")
    return FiniteAlphabetSchedule(
        alphabet_size=alphabet.size,
        epsilon=float(s.get("epsilon", 0.5)),
        known_rate=None if known_rate is None else float(known_rate),
        budget_fraction=float(s.get("budget_fraction", 1.0)),
    )
