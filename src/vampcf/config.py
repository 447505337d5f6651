"""Run configuration: sectioned key=value files plus --set overrides.

Two sections. [model] and [train] take one key per field of
ModelConfig and TrainConfig, parsed by the field's type: the model key
``k`` is the field ``n_pseudo``, and ``n_items`` is no key because it
comes from the split, which ``--data`` names. Every key is typed and
validated before any command does work; an unparsable file, an unknown
section ([DEFAULT] included) or an unknown key is a ConfigError, so
typos cannot silently fall back to defaults.
"""
import configparser
from dataclasses import dataclass, fields

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


def _auto_int(raw):
    v = raw.strip().lower()
    if v in ("auto", "none", ""):
        return None
    return int(v)


def _parser(annotation):
    if annotation is bool:
        return _bool
    if annotation == int | None:
        return _auto_int
    return lambda raw: annotation(raw.strip())


def _keys(cls, skip=(), spelled=None):
    """key -> (field name, parser) for each field of the dataclass ``cls``."""
    spelled = spelled or {}
    return {spelled.get(f.name, f.name): (f.name, _parser(f.type))
            for f in fields(cls) if f.name not in skip}


# A key left out takes the default of its field.
SECTIONS = {
    "model": _keys(ModelConfig, skip=("n_items",), spelled={"n_pseudo": "k"}),
    "train": _keys(TrainConfig),
}


@dataclass
class RunConfig:
    model: dict  # ModelConfig field -> value, for the [model] keys given
    train: TrainConfig

    def model_config(self, n_items):
        return ModelConfig(n_items=n_items, **self.model)


def _apply_overrides(cp, overrides):
    for item in overrides:
        key, sep, value = item.partition("=")
        section, dot, name = key.strip().partition(".")
        if not (sep and dot and section and name):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, name, value.strip())


def load_config(path=None, overrides=()):
    """Parse a config file (optional) plus --set overrides into a RunConfig.

    Every value is validated here, before any command side effects.
    """
    # No header can name the empty section, so [DEFAULT] is an ordinary
    # section, rejected below, instead of one whose keys leak into all.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    if path is not None:
        try:
            read = cp.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot parse config file {path}: {e}") from e
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
        for key, raw in present.items():
            if key not in table:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, parse = table[key]
            try:
                values[name] = parse(raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {section}.{key}: {e}") from e
        parsed[section] = values

    run = RunConfig(parsed["model"], TrainConfig(**parsed["train"]))
    run.model_config(n_items=1)  # validate the grid choices eagerly
    return run
