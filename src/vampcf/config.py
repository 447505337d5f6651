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


# key -> (parser, default)
MODEL_KEYS = {
    "prior": (_str, "vamp"),
    "hierarchy": (_str, "flat"),
    "likelihood": (_str, "multinomial"),
    "gated": (_bool, True),
    "depth": (_int, 1),
    "hidden": (_int, 600),
    "d_z1": (_int, 200),
    "d_z2": (_int, 200),
    "k": (_int, 1000),
}

TRAIN_KEYS = {
    "batch_size": (_int, 256),
    "max_epochs": (_int, 50),
    "learning_rate": (_float, 1e-3),
    "beta_cap": (_float, 0.2),
    "anneal_steps": (_auto_int, None),
    "dropout_rate": (_float, 0.5),
    "patience": (_int, 5),
    "seed": (_int, 0),
    "eval_metric": (_str, "ndcg@100"),
}

DATA_KEYS = {
    "split_dir": (_opt_str, None),
}

SECTIONS = {"model": MODEL_KEYS, "train": TRAIN_KEYS, "data": DATA_KEYS}


@dataclass
class RunConfig:
    model: dict
    train: TrainConfig
    data: dict

    def model_config(self, n_items):
        m = self.model
        return ModelConfig(
            n_items=n_items, prior=m["prior"], hierarchy=m["hierarchy"],
            likelihood=m["likelihood"], gated=m["gated"], depth=m["depth"],
            hidden=m["hidden"], d_z1=m["d_z1"], d_z2=m["d_z2"],
            n_pseudo=m["k"])


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
        for key, (parse, default) in table.items():
            if key in present:
                try:
                    values[key] = parse(present[key])
                except ValueError as e:
                    raise ConfigError(f"bad value for {section}.{key}: {e}") from e
            else:
                values[key] = default
        parsed[section] = values

    train_cfg = TrainConfig(**parsed["train"])
    # construct a throwaway ModelConfig to validate grid choices eagerly
    RunConfig(parsed["model"], train_cfg, parsed["data"]).model_config(n_items=1)
    return RunConfig(model=parsed["model"], train=train_cfg, data=parsed["data"])
