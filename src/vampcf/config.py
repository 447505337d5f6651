"""Run configuration: sectioned key=value files plus --set overrides.

Three sections: [model] (architecture grid), [train] (optimizer and
schedule), [data] (the split directory). Every key is typed and
validated before any command does work; unknown sections or keys are
rejected outright so typos cannot silently fall back to defaults.
"""
import configparser
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig


def _bool(raw):
    v = raw.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int(raw):
    return int(raw.strip())


def _float(raw):
    return float(raw.strip())


def _str(raw):
    return raw.strip()


def _auto_int(raw):
    v = raw.strip().lower()
    if v in ("auto", "none", ""):
        return None
    return int(v)


def _opt_str(raw):
    v = raw.strip()
    return v or None


# key -> parser. A key left out takes the default of its ModelConfig or
# TrainConfig field; the model key ``k`` is the field ``n_pseudo``.
MODEL_KEYS = {
    "prior": _str,
    "hierarchy": _str,
    "likelihood": _str,
    "gated": _bool,
    "depth": _int,
    "hidden": _int,
    "d_z1": _int,
    "d_z2": _int,
    "k": _int,
}

TRAIN_KEYS = {
    "batch_size": _int,
    "max_epochs": _int,
    "learning_rate": _float,
    "beta_cap": _float,
    "anneal_steps": _auto_int,
    "dropout_rate": _float,
    "patience": _int,
    "seed": _int,
    "eval_metric": _str,
}

DATA_KEYS = {
    "split_dir": _opt_str,
}

SECTIONS = {"model": MODEL_KEYS, "train": TRAIN_KEYS, "data": DATA_KEYS}


@dataclass
class RunConfig:
    model: dict  # the [model] keys given, parsed
    train: TrainConfig
    data: dict   # the [data] keys given, parsed

    def model_config(self, n_items):
        return ModelConfig(n_items=n_items, **{
            "n_pseudo" if key == "k" else key: v for key, v in self.model.items()})


def _apply_overrides(cp, overrides):
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        section, dot, name = key.strip().partition(".")
        if not dot or not section or not name:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, name, value.strip())


def load_config(path=None, overrides=()):
    """Parse a config file (optional) plus --set overrides into a RunConfig.

    Every value is validated here, before any command side effects.
    """
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    _apply_overrides(cp, overrides)

    for section in cp.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")

    parsed = {}
    for section, table in SECTIONS.items():
        values = {}
        present = dict(cp.items(section)) if cp.has_section(section) else {}
        for key in present:
            if key not in table:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for key, parse in table.items():
            if key in present:
                try:
                    values[key] = parse(present[key])
                except ValueError as e:
                    raise ConfigError(f"bad value for {section}.{key}: {e}") from e
        parsed[section] = values

    train_cfg = TrainConfig(**parsed["train"])
    # construct a throwaway ModelConfig to validate grid choices eagerly
    RunConfig(parsed["model"], train_cfg, parsed["data"]).model_config(n_items=1)
    return RunConfig(model=parsed["model"], train=train_cfg, data=parsed["data"])
