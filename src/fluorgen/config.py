"""Run configuration: INI file with typed sections, strict key checking.

Every key is a field of the dataclass that consumes it: the field's name,
annotation and default are the key's name, type and default. LAYOUT puts
those dataclasses into INI sections, in file order, and both load_config
and render_config walk it.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields, replace

from fluorgen.filters import FilterThresholds
from fluorgen.fingerprints import WATER, SolventFeatures
from fluorgen.generator import GenerationConfig
from fluorgen.molgraph import read_number
from fluorgen.scorers import TrainConfig

OUTPUT_DIR_ENV = "FLUORGEN_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PathsConfig:
    dataset: str = "data/chemfluor.csv"
    blocks: str = "data/building_blocks.tsv"
    reactions: str = "data/reactions.txt"
    checkpoint_dir: str = "out/checkpoints"
    output_dir: str = "out"


@dataclass(frozen=True)
class CrossValidation:
    folds: int = 10
    split_seed: int = 0

    def __post_init__(self):
        if self.folds < 3:
            raise ConfigError("train.folds must be at least 3")


@dataclass(frozen=True)
class BaselineConfig:
    """The uniform comparison sample that `generate` writes; 0 skips it."""

    samples: int = 0
    seed: int = 1

    def __post_init__(self):
        if self.samples < 0:
            raise ConfigError("generate.baseline_samples must be at least 0")


@dataclass(frozen=True)
class ClusteringConfig:
    clusters: int = 100
    cluster_seed: int = 0
    novelty_references: str = ""  # empty means skip the novelty stage

    def __post_init__(self):
        if self.clusters < 1:
            raise ConfigError("filters.clusters must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    paths: PathsConfig = PathsConfig()
    cv: CrossValidation = CrossValidation()
    train: TrainConfig = TrainConfig()
    generation: GenerationConfig = GenerationConfig()
    baseline: BaselineConfig = BaselineConfig()
    solvent: SolventFeatures = WATER
    thresholds: FilterThresholds = FilterThresholds()
    clustering: ClusteringConfig = ClusteringConfig()


# INI section -> (RunConfig field, key prefix) for each dataclass it fills,
# in file order
LAYOUT: dict[str, tuple[tuple[str, str], ...]] = {
    "paths": (("paths", ""),),
    "train": (("cv", ""), ("train", "")),
    "generate": (("generation", ""), ("baseline", "baseline_"), ("solvent", "solvent_")),
    "filters": (("thresholds", ""), ("clustering", "")),
}

_DEFAULTS = RunConfig()

# section -> key -> (RunConfig field, dataclass field); anything else in a
# config file is a typo and gets rejected
_KEYS = {
    section: {
        prefix + field.name: (part, field)
        for part, prefix in parts
        for field in fields(getattr(_DEFAULTS, part))
    }
    for section, parts in LAYOUT.items()
}


def _read(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    # no section is special, so a [DEFAULT] section is rejected as unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    return {section: dict(parser[section]) for section in parser.sections()}


def _parse(section: str, key: str, kind, raw: str):
    kind = kind if isinstance(kind, str) else kind.__name__
    if kind == "str":
        return raw
    try:
        value = read_number(raw)
        if kind == "int":
            value = int(raw)  # ASCII by now; int() refuses a point or an exponent
    except ValueError as exc:
        expected = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{section}.{key}: expected {expected}, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from the field defaults overlaid with an optional
    INI file and the output-dir environment override."""
    changes: dict[str, dict] = {part.name: {} for part in fields(RunConfig)}
    for section, values in _read(path).items():
        for key, text in values.items():
            part, field = _KEYS[section][key]
            changes[part][field.name] = _parse(section, key, field.type, text)
    env_output = os.environ.get(OUTPUT_DIR_ENV)
    if env_output:
        changes["paths"]["output_dir"] = env_output
    try:
        return RunConfig(
            **{part: replace(getattr(_DEFAULTS, part), **c) for part, c in changes.items()}
        )
    except ValueError as exc:
        # dataclass validation, e.g. tau ordering
        raise ConfigError(str(exc)) from exc


def render_config(config: RunConfig) -> str:
    """The effective configuration as INI text; load_config on the output
    reproduces the input."""
    lines = []
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, (part, field) in keys.items():
            lines.append(f"{key} = {getattr(getattr(config, part), field.name)}")
        lines.append("")
    return "\n".join(lines)
