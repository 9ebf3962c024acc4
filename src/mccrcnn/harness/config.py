"""INI-style configuration for the pipeline CLI.

Files are flat key=value text grouped in sections ([run], [data],
[synthetic], [embedding], [model], [train], [ngram], [cv]).  Every knob
has a code default except the seed, which must come from the file or the
command line so no run ever depends on wall-clock entropy.  Unknown
sections or keys raise ConfigError (exit code 2), and relative paths
resolve against the config file's directory.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError


@dataclass
class SyntheticSettings:
    families: int = 3
    samples_per_family: int = 40
    fusion_mode: bool = False
    min_len: int = 90
    max_len: int = 140


@dataclass
class EmbeddingSettings:
    k: int = 24
    window: int = 8
    epochs: int = 30
    learning_rate: float = 0.05
    x_max: float = 100.0
    alpha: float = 0.75
    min_count: int = 1


@dataclass
class ModelSettings:
    seq_len: int = 48
    hidden: int = 24
    conv_channels: int = 24
    kernel_width: int = 3
    arch: str = "mcc_rcnn"
    features: str = "fused"  # opcode | api | fused


@dataclass
class TrainSettings:
    learning_rate: float = 0.05
    epochs: int = 12
    batch_size: int = 16
    optimizer: str = "adagrad"


@dataclass
class NgramSettings:
    limit: int = 700
    sweep: tuple[int, ...] = (1, 2, 3, 4)


@dataclass
class ExperimentConfig:
    seed: int
    corpus: Path | None = None
    labels: Path | None = None
    out_dir: Path = Path("runs")
    folds: int = 10
    synthetic: SyntheticSettings = field(default_factory=SyntheticSettings)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    ngram: NgramSettings = field(default_factory=NgramSettings)


_SECTION_TARGETS = {
    "synthetic": SyntheticSettings,
    "embedding": EmbeddingSettings,
    "model": ModelSettings,
    "train": TrainSettings,
    "ngram": NgramSettings,
}


def _convert(raw: str, template, key: str, section: str):
    kind = type(template)
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(int(p) for p in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}={raw!r}: cannot parse as {kind.__name__}") from exc


def _apply_section(obj, parser, section: str):
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    for key, raw in parser.items(section):
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        setattr(obj, key, _convert(raw, fields[key], key, section))


def load_config(path, seed_override: int | None = None,
                out_override=None) -> ExperimentConfig:
    """Parse a config file; overrides win over file values.

    Raises ConfigError for unreadable files, unknown sections/keys,
    unparseable values, or a missing seed.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    base = path.parent
    cfg = ExperimentConfig(seed=-1)

    for section in parser.sections():
        if section in _SECTION_TARGETS:
            _apply_section(getattr(cfg, section), parser, section)
        elif section == "run":
            for key, raw in parser.items("run"):
                if key == "seed":
                    cfg.seed = _convert(raw, 0, key, "run")
                elif key == "out":
                    cfg.out_dir = base / raw.strip()
                elif key == "folds":
                    cfg.folds = _convert(raw, 0, key, "run")
                else:
                    raise ConfigError(f"unknown key {key!r} in section [run]")
        elif section == "data":
            for key, raw in parser.items("data"):
                if key == "corpus":
                    cfg.corpus = base / raw.strip()
                elif key == "labels":
                    cfg.labels = base / raw.strip()
                else:
                    raise ConfigError(f"unknown key {key!r} in section [data]")
        else:
            raise ConfigError(f"unknown config section [{section}]")

    if seed_override is not None:
        cfg.seed = seed_override
    if out_override is not None:
        cfg.out_dir = Path(out_override)
    if cfg.seed < 0:
        raise ConfigError("a seed is required ([run] seed=... or --seed)")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    checks = [
        (cfg.folds >= 2, "folds must be >= 2"),
        (cfg.embedding.k >= 1, "embedding k must be >= 1"),
        (cfg.embedding.window >= 1, "embedding window must be >= 1"),
        (cfg.embedding.x_max > 0, "embedding x_max must be > 0"),
        (cfg.model.seq_len >= 1, "model seq_len must be >= 1"),
        (cfg.model.hidden >= 1, "model hidden must be >= 1"),
        (cfg.model.conv_channels >= 1, "model conv_channels must be >= 1"),
        (cfg.model.kernel_width >= 1 and cfg.model.kernel_width % 2 == 1,
         "model kernel_width must be odd and >= 1"),
        (cfg.model.arch in ("mcc_rcnn", "lstm", "gcnn"), "unknown model arch"),
        (cfg.model.features in ("opcode", "api", "fused"), "unknown feature layer"),
        (cfg.train.epochs >= 1, "train epochs must be >= 1"),
        (cfg.train.batch_size >= 1, "train batch_size must be >= 1"),
        (cfg.train.optimizer in ("adagrad", "sgd"), "unknown optimizer"),
        (cfg.ngram.limit >= 1, "ngram limit must be >= 1"),
        (all(n >= 1 for n in cfg.ngram.sweep) and cfg.ngram.sweep,
         "ngram sweep must list integers >= 1"),
        (cfg.synthetic.families >= 2, "synthetic families must be >= 2"),
        (cfg.synthetic.samples_per_family >= 1, "synthetic samples_per_family must be >= 1"),
        (1 <= cfg.synthetic.min_len <= cfg.synthetic.max_len,
         "synthetic lengths must satisfy 1 <= min_len <= max_len"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    if cfg.synthetic.fusion_mode and cfg.synthetic.families != 2:
        raise ConfigError("fusion_mode corpora use exactly 2 families")


def config_echo(cfg: ExperimentConfig) -> list[str]:
    """Every effective setting as `section.key=value` lines (report audit)."""
    lines = [
        f"run.seed={cfg.seed}",
        f"run.folds={cfg.folds}",
        f"run.out={cfg.out_dir}",
        f"data.corpus={cfg.corpus}",
        f"data.labels={cfg.labels}",
    ]
    for section in ("synthetic", "embedding", "model", "train", "ngram"):
        obj = getattr(cfg, section)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section}.{f.name}={value}")
    return lines
