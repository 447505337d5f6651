"""Config loading: the [model]/[train] keys are the ModelConfig and
TrainConfig fields, parse errors are usage errors (exit 1), and the shipped
configs load to the values the README documents. Every library entry point
rejects a non-integer where an integer setting goes, and a non-number where
a float setting goes."""
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from vampcf.cli import main
from vampcf.config import load_config
from vampcf.data import ingest, split
from vampcf.errors import ConfigError
from vampcf.gridcheck import check_cell
from vampcf.metrics import evaluate
from vampcf.model import ModelConfig
from vampcf.synthetic import archetype_interactions
from vampcf.training import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# One non-default value per field, as a config value and as parsed; the
# model field n_pseudo is spelled ``k``.
MODEL_VALUES = {
    "prior": ("standard", "standard"),
    "hierarchy": ("two_level", "two_level"),
    "likelihood": ("bernoulli", "bernoulli"),
    "gated": ("false", False),
    "depth": ("2", 2),
    "hidden": ("17", 17),
    "d_z1": ("5", 5),
    "d_z2": ("6", 6),
    "n_pseudo": ("7", 7),
}
TRAIN_VALUES = {
    "batch_size": ("8", 8),
    "max_epochs": ("3", 3),
    "learning_rate": ("0.01", 0.01),
    "beta_cap": ("0.5", 0.5),
    "patience": ("2", 2),
    "seed": ("9", 9),
    "eval_metric": ("recall@20", "recall@20"),
}


@pytest.mark.parametrize(
    "name", [f.name for f in fields(ModelConfig) if f.name != "n_items"])
def test_every_model_field_is_a_key(name):
    raw, value = MODEL_VALUES[name]
    assert getattr(ModelConfig(n_items=1), name) != value
    key = "k" if name == "n_pseudo" else name
    cfg = load_config(overrides=[f"model.{key}={raw}"])
    assert getattr(cfg.model_config(n_items=4), name) == value


@pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
def test_every_train_field_is_a_key(name):
    raw, value = TRAIN_VALUES[name]
    assert getattr(TrainConfig(), name) != value
    cfg = load_config(overrides=[f"train.{name}={raw}"])
    assert getattr(cfg.train, name) == value


@pytest.mark.parametrize("key", ["n_items", "n_pseudo"])
def test_model_field_names_that_are_not_keys_rejected(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_config(overrides=[f"model.{key}=5"])


# file -> (prior, hierarchy, gated), as in the README's table.
SHIPPED = {
    "multi_vae.cfg": ("standard", "flat", False),
    "multi_vae_gated.cfg": ("standard", "flat", True),
    "vamp.cfg": ("vamp", "flat", False),
    "h_vamp.cfg": ("vamp", "two_level", False),
    "h_vamp_gated.cfg": ("vamp", "two_level", True),
}


def test_shipped_configs_are_the_documented_ones():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) == sorted(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_loads_to_the_documented_values(name):
    cfg = load_config(str(CONFIG_DIR / name))
    m = cfg.model_config(n_items=20108)
    assert (m.prior, m.hierarchy, m.gated) == SHIPPED[name]
    assert m.n_pseudo == 1000  # k = 1000 in the vamp configs, the default elsewhere
    assert (m.likelihood, m.hidden, m.d_z1, m.d_z2) == ("multinomial", 600, 200, 200)
    assert cfg.train == TrainConfig(
        batch_size=256, learning_rate=1e-3, beta_cap=0.2, eval_metric="ndcg@100")


@pytest.mark.parametrize("text,what", [
    ("seed = 1\n[train]\nbatch_size = 8\n", "no section headers"),
    ("[train]\nseed = 1\nseed = 2\n", "already exists"),
    ("[train]\nseed\n", "seed"),
], ids=["no-section-header", "duplicate-key", "line-without-equals"])
def test_unparsable_file_exits_1(tmp_path, capsys, text, what):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["train", "--config", str(path), "--data", "split"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse config file")
    assert str(path) in err and what in err


def test_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[train]\n# café\nseed = 1\n".encode("latin-1"))
    assert main(["train", "--config", str(path), "--data", "split"]) == 1
    assert str(path) in capsys.readouterr().err


def test_utf8_comment_reads(tmp_path):
    path = tmp_path / "utf8.cfg"
    path.write_text("[train]\n# café\nseed = 4\n", encoding="utf-8")
    assert load_config(str(path)).train.seed == 4


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n[train]\nbatch_size = 8\n",
    "[DEFAULT]\nseed = 3\n[model]\nprior = vamp\n",
    "[DEFAULT]\n",
], ids=["next-to-train", "next-to-model", "alone"])
def test_default_section_is_unknown(tmp_path, text):
    path = tmp_path / "default.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        load_config(str(path))


def test_default_section_override_exits_1(capsys):
    assert main(["train", "--set", "DEFAULT.seed=1", "--data", "split"]) == 1
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


# Every library entry point that takes an integer setting, called with the
# setting set to the test's value and every other argument valid.
def _model(name, value):
    return ModelConfig(**{"n_items": 10, name: value})


def _train(name, value):
    return TrainConfig(**{name: value})


def _synthetic(name, value):
    return archetype_interactions(**{name: value})


INTEGER_SETTINGS = {
    **{f"ModelConfig.{name}": partial(_model, name)
       for name in ("n_items", "depth", "hidden", "d_z1", "d_z2", "n_pseudo")},
    **{f"TrainConfig.{name}": partial(_train, name)
       for name in ("batch_size", "max_epochs", "patience", "seed")},
    "split.n_heldout_users": lambda v: split([], v),
    "split.seed": lambda v: split([], 2, seed=v),
    **{f"archetype_interactions.{name}": partial(_synthetic, name)
       for name in ("n_users", "n_items", "n_archetypes", "seed", "min_items",
                    "max_items")},
    "check_cell.seed": lambda v: check_cell({}, seed=v),
    "evaluate.K": lambda v: evaluate([], np.zeros(3), ks=[20, v]),
    # ingest checks its settings before it opens the file.
    "ingest.min_items": lambda v: ingest("unread.csv", min_items=v),
}


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", list(INTEGER_SETTINGS))
def test_integer_settings_reject_a_non_integer(entry, value):
    with pytest.raises(ConfigError, match="must be an integer"):
        INTEGER_SETTINGS[entry](value)


def test_integer_settings_take_a_numpy_integer_as_an_int():
    cfg = TrainConfig(batch_size=np.int64(32), seed=np.uint8(3))
    assert (cfg.batch_size, cfg.seed) == (32, 3)
    assert type(cfg.batch_size) is int and type(cfg.seed) is int


FLOAT_SETTINGS = {
    **{f"TrainConfig.{name}": partial(_train, name)
       for name in ("learning_rate", "beta_cap")},
    "ingest.min_rating": lambda v: ingest("unread.csv", min_rating=v),
}


@pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "str", "none"])
@pytest.mark.parametrize("entry", list(FLOAT_SETTINGS))
def test_float_settings_reject_a_non_number(entry, value):
    with pytest.raises(ConfigError, match="must be a number"):
        FLOAT_SETTINGS[entry](value)


def test_float_settings_take_a_numpy_float_as_a_float():
    cfg = TrainConfig(learning_rate=np.float32(0.5), beta_cap=np.float32(0.5))
    assert (cfg.learning_rate, cfg.beta_cap) == (0.5, 0.5)
    assert type(cfg.learning_rate) is float and type(cfg.beta_cap) is float
