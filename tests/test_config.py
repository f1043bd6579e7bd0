"""Experiment configuration: serialization, validation, schedule building."""

import json
import pickle
import re
from dataclasses import fields
from pathlib import Path

import pytest

from pastcast.config import (
    LOSS_KINDS,
    MODEL_KINDS,
    ExperimentConfig,
    build_schedule,
    outcome_space_for,
)
from pastcast.errors import ConfigError
from pastcast.estimators import FiniteAlphabetSchedule, RealValuedSchedule
from pastcast.quantize import Alphabet, IntervalFieldHierarchy
from pastcast.sources import build_source


# A source real mode accepts, so a real-mode rejection names the schedule.
REAL_SOURCE = {"preset": "iid_fair", "values": [0.0, 1.0]}


def test_round_trip_through_json(tmp_path):
    cfg = ExperimentConfig(
        source="markov_stay90",
        estimator="pattern",
        schedule={"epsilon": 0.75, "budget_fraction": 0.25},
        n_grid=(100, 1000),
        replicas=3,
        seed=99,
        loss="hamming",
    )
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.load(p)
    assert again == cfg
    assert json.loads(p.read_text())["schedule"]["epsilon"] == 0.75


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sorce": "iid_fair"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(p)


def test_override_drops_none():
    cfg = ExperimentConfig(seed=1, workers=1)
    same = cfg.override(seed=None, workers=None)
    assert same == cfg
    changed = cfg.override(seed=5, out_dir="elsewhere")
    assert changed.seed == 5 and changed.out_dir == "elsewhere"
    assert cfg.seed == 1  # configs are immutable values


@pytest.mark.parametrize(
    "patch",
    [
        {"replicas": 0},
        {"workers": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"trials": 0},
        {"n_grid": (100, 100)},
        {"n_grid": (1000, 100)},
        {"n_grid": ()},
        {"k_grid": (3, 2)},
        {"loss": "absolute"},
        {"estimator": "oracle"},
        {"model": "transformer"},
        {"model_order": -1},
        {"source": "unknown_preset"},
        {"schedule": {"mode": "quantum"}},
        {"schedule": {"unknown_key": 1}},
        {"schedule": {"epsilon": 2.0}},
        {"schedule": {"budget_fraction": 0.0}},
        {"trials": 1.5},
        {"replicas": "x"},
        {"n_grid": "abc"},
        {"k_grid": (1, 2.5)},
        {"workers": True},
        {"schedule": {"epsilon": "hi"}},
        {"schedule": {"budget_fraction": None}},
        {"schedule": [1, 2]},
        {"schedule": {"mode": 1}},
        {"schedule": {"known_rate": True}},
        {"source": REAL_SOURCE, "schedule": {"max_level": "x", "mode": "real"}},
        {"source": REAL_SOURCE, "schedule": {"j0": 2.7, "mode": "real"}},
        {"source": REAL_SOURCE, "schedule": {"j_growth": "3", "mode": "real"}},
        {"estimator": "cesaro"},
    ],
)
def test_validate_rejects(patch):
    base = ExperimentConfig().to_dict()
    base.update({k: v for k, v in patch.items()})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base).validate()


def test_validate_accepts_defaults():
    assert ExperimentConfig().validate() is not None


def test_readme_configs_validate():
    """Every JSON block of the README is a config that passes validation."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) >= 5
    for block in blocks:
        ExperimentConfig.from_dict(json.loads(block)).validate()


def test_real_mode_needs_numeric_values():
    cfg = ExperimentConfig(source="markov_stay90", schedule={"mode": "real"})
    with pytest.raises(ConfigError):
        cfg.validate()
    ok = ExperimentConfig(
        source={"preset": "markov_stay90", "values": [-1.0, 1.0]},
        schedule={"mode": "real"},
    )
    ok.validate()


def test_outcome_space_dispatch():
    cfg = ExperimentConfig(source="iid_fair")
    src = build_source(cfg.source)
    assert isinstance(outcome_space_for(cfg, src), Alphabet)
    real_cfg = ExperimentConfig(
        source={"preset": "iid_fair", "values": [0.0, 1.0]},
        schedule={"mode": "real", "max_level": 6},
    )
    real_src = build_source(real_cfg.source)
    space = outcome_space_for(real_cfg, real_src)
    assert isinstance(space, IntervalFieldHierarchy)
    assert space.max_level == 6


def test_build_schedule_finite_picks_up_overrides():
    cfg = ExperimentConfig(
        source="iid_fair",
        schedule={"epsilon": 0.75, "budget_fraction": 0.25, "known_rate": 0.5},
    )
    sched = build_schedule(cfg, build_source(cfg.source))
    assert isinstance(sched, FiniteAlphabetSchedule)
    assert sched.epsilon == 0.75
    assert sched.budget_fraction == 0.25
    assert sched.known_rate == 0.5


def test_build_schedule_real():
    cfg = ExperimentConfig(
        source={"preset": "iid_fair", "values": [0.0, 1.0]},
        schedule={"mode": "real", "j0": 20, "j_growth": 2.0},
    )
    sched = build_schedule(cfg, build_source(cfg.source))
    assert isinstance(sched, RealValuedSchedule)
    assert sched.j_of_k(1) == 20 and sched.j_of_k(2) == 40


def test_readme_config_keys_are_fields():
    """Every top-level key the README documents is a config field, and
    every value it lists for ``model`` and ``loss`` is accepted."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"A minimal config:\s*```json\n(.*?)```", text, re.S).group(1)
    listed = re.search(r"Other top-level keys:(.*?)\n\n", text, re.S).group(1)
    keys = set(json.loads(example)) | set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", listed)))
    assert not keys - {f.name for f in fields(ExperimentConfig)}
    choices = dict(re.findall(r"`(\w+)` \(([^)]*)\)", listed))
    assert set(re.findall(r"`(\w+)`", choices["model"])) <= set(MODEL_KINDS)
    assert set(re.findall(r"`(\w+)`", choices["loss"])) <= set(LOSS_KINDS)


def test_config_error_survives_pickling():
    """Replica workers send errors back pickled; field and message stay apart."""
    err = pickle.loads(pickle.dumps(ConfigError("estimator", "not here")))
    assert (err.field, err.message, str(err)) == ("estimator", "not here", "estimator: not here")
