"""INI-style configuration for the pipeline CLI.

Files are flat key=value text grouped in sections ([run], [data],
[synthetic], [embedding], [model], [train], [ngram]).  Every knob
has a code default except the seed, which must come from the file or the
command line so no run ever depends on wall-clock entropy.  Unknown
sections or keys raise ConfigError (exit code 2), and relative paths
resolve against the config file's directory.

Values no run varies are not settable here.  Each is one named constant
beside the code that reads it:

  embedding   GLOVE_X_MAX 100, GLOVE_ALPHA 3/4 (GloVe's weighting) and
              GLOVE_STEP 0.05 (AdaGrad); every token is kept
  neural      LEARNING_RATE 0.05, the classifier's AdaGrad step
  features    NGRAM_LIMIT 700 grams per n
  baselines   LOGISTIC_STEP 0.5 and LOGISTIC_EPOCHS 200, NB_ALPHA 1,
              KNN_NEIGHBORS 5, SVM_STEP 0.01, SVM_EPOCHS 200 and SVM_C 1

A settable value's default is in the settings classes below, which read
[embedding] epochs from ``embedding.GLOVE_EPOCHS`` and [synthetic] from
``SyntheticCorpusSpec``.  ``kfold_split``, ``count_cooccurrence``'s
window and ``neural.TrainConfig`` have no default of their own;
``neural.ModelConfig`` repeats only [model]'s arch.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..embedding import GLOVE_EPOCHS
from ..errors import ConfigError
from ..neural import ARCHS
from .synth import SyntheticCorpusSpec, _validate_spec

#: feature layer -> the token streams it embeds.  Streams are listed in
#: the payload order of prepare_dataset, (opcode seq, api seq), which is
#: also fuse's column order.
LAYERS = {"opcode": ("opcode",), "api": ("api",), "fused": ("opcode", "api")}
STREAMS = LAYERS["fused"]

# Upper bounds on sizes, so that an absurd value is a config error, not a
# numpy MemoryError, an OOM kill or a run that never ends.  Each is far
# above the defaults (k, hidden and conv_channels 24, window 8, kernel
# width 3, n-grams 1..4, 12 training and 30 GloVe epochs) and every
# configuration the tests and the bench use.  Sizes that multiply with
# seq_len are not bounded here.

#: GloVe keeps 2 (k + 1) float64 per token and side: 16 KB per vocabulary
#: token at the bound, and a fused matrix row holds 2k floats
MAX_EMBED_K = 512
#: co-occurrence counting expands COOC_CHUNK_TOKENS centres times the
#: window at once: 24 MB of temporaries at the bound on three 5000-token
#: sequences (tracemalloc peak; window 8 takes 0.9 MB)
MAX_WINDOW = 256
#: lstm.w is (4 hidden, 2k + hidden): 2048 x 1536 float64, 25 MB, with
#: hidden and k at their bounds
MAX_HIDDEN = 512
#: conv.w is (kernel_width, hidden, 2 conv_channels): 15 x 512 x 1024
#: float64, 63 MB, with all three at their bounds
MAX_CONV_CHANNELS = 512
#: the same conv.w, and the convolution unfolds kernel_width frames of
#: every step: (16, 48, 15 x 512) float64, 47 MB at batch 16, seq_len 48
MAX_KERNEL_WIDTH = 15
#: n-gram selection runs one np.unique pass over the corpus positions per
#: token of a gram and keeps the 700 most frequent n-tuples: 700 x 64
#: token references at the bound
MAX_NGRAM_N = 64
#: the class ids of a label table and a model checkpoint: eval and the
#: suites tally an l x l int64 confusion table, 8 MB at the bound, which
#: is far above the generator's 99 families
MAX_CLASSES = 1000
#: training and GloVe each make one pass over the split per epoch, so
#: 10**12 epochs never return; 10 000 is 333 times GloVe's default
MAX_EPOCHS = 10_000


_DEFAULT_SPEC = SyntheticCorpusSpec()


@dataclass
class SyntheticSettings:
    """A SyntheticCorpusSpec without its seed, which is the run's."""

    families: int = _DEFAULT_SPEC.families
    samples_per_family: int = _DEFAULT_SPEC.samples_per_family
    fusion_mode: bool = _DEFAULT_SPEC.fusion_mode
    min_len: int = _DEFAULT_SPEC.min_len
    max_len: int = _DEFAULT_SPEC.max_len


@dataclass
class EmbeddingSettings:
    k: int = 24
    window: int = 8
    epochs: int = GLOVE_EPOCHS


@dataclass
class ModelSettings:
    seq_len: int = 48
    hidden: int = 24
    conv_channels: int = 24
    kernel_width: int = 3
    arch: str = "mcc_rcnn"
    features: str = "fused"  # a key of LAYERS


@dataclass
class TrainSettings:
    epochs: int = 12
    batch_size: int = 16


@dataclass
class NgramSettings:
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

#: [run] and [data] key -> (ExperimentConfig field, kind); Path values
#: resolve against the config file's directory
_TOP_KEYS = {
    "run": {"seed": ("seed", int), "out": ("out_dir", Path), "folds": ("folds", int)},
    "data": {"corpus": ("corpus", Path), "labels": ("labels", Path)},
}


def _convert(raw: str, kind, key: str, section: str):
    raw = raw.strip()
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind is tuple:
            return tuple(int(p) for p in raw.replace(",", " ").split())
        return kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}={raw!r}: cannot parse as {kind.__name__}") from exc


def load_config(path, seed_override: int | None = None,
                out_override=None) -> ExperimentConfig:
    """Parse a config file; overrides win over file values.

    Raises ConfigError for unreadable files, unknown sections/keys,
    unparseable or out-of-range values, or a missing seed.
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

    cfg = ExperimentConfig(seed=None)
    for section in parser.sections():
        if section in _SECTION_TARGETS:
            obj = getattr(cfg, section)
            keys = {f.name: (f.name, type(getattr(obj, f.name))) for f in dataclasses.fields(obj)}
        elif section in _TOP_KEYS:
            obj, keys = cfg, _TOP_KEYS[section]
        else:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, kind = keys[key]
            value = path.parent / raw.strip() if kind is Path else _convert(raw, kind, key, section)
            setattr(obj, name, value)

    if seed_override is not None:
        cfg.seed = seed_override
    if out_override is not None:
        cfg.out_dir = Path(out_override)
    if cfg.seed is None:
        raise ConfigError("a seed is required ([run] seed=... or --seed)")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    checks = [
        (cfg.seed >= 0, "seed must be >= 0"),
        (cfg.folds >= 2, "folds must be >= 2"),
        (1 <= cfg.embedding.k <= MAX_EMBED_K, f"embedding k must be in 1..{MAX_EMBED_K}"),
        (1 <= cfg.embedding.window <= MAX_WINDOW,
         f"embedding window must be in 1..{MAX_WINDOW}"),
        (1 <= cfg.embedding.epochs <= MAX_EPOCHS, f"embedding epochs must be in 1..{MAX_EPOCHS}"),
        (cfg.model.seq_len >= 1, "model seq_len must be >= 1"),
        (1 <= cfg.model.hidden <= MAX_HIDDEN, f"model hidden must be in 1..{MAX_HIDDEN}"),
        (1 <= cfg.model.conv_channels <= MAX_CONV_CHANNELS,
         f"model conv_channels must be in 1..{MAX_CONV_CHANNELS}"),
        (1 <= cfg.model.kernel_width <= MAX_KERNEL_WIDTH and cfg.model.kernel_width % 2 == 1,
         f"model kernel_width must be odd and in 1..{MAX_KERNEL_WIDTH}"),
        (cfg.model.arch in ARCHS, "unknown model arch"),
        (cfg.model.features in LAYERS, "unknown feature layer"),
        (1 <= cfg.train.epochs <= MAX_EPOCHS, f"train epochs must be in 1..{MAX_EPOCHS}"),
        (cfg.train.batch_size >= 1, "train batch_size must be >= 1"),
        (all(1 <= n <= MAX_NGRAM_N for n in cfg.ngram.sweep) and cfg.ngram.sweep,
         f"ngram sweep must list integers in 1..{MAX_NGRAM_N}"),
        # a repeated n repeats its variants' fold rows, so no mean is written
        (len(set(cfg.ngram.sweep)) == len(cfg.ngram.sweep), "ngram sweep must not repeat an n"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        _validate_spec(synthetic_spec(cfg))
    except ValueError as exc:
        raise ConfigError(f"[synthetic] {exc}") from exc


def synthetic_spec(cfg: ExperimentConfig) -> SyntheticCorpusSpec:
    """The corpus spec that [synthetic] and the run seed describe."""
    return SyntheticCorpusSpec(seed=cfg.seed, **asdict(cfg.synthetic))


def config_echo(cfg: ExperimentConfig) -> list[str]:
    """Every effective setting but the paths, as `section.key=value` lines.

    The summaries carry this echo; leaving out run.out, data.corpus and
    data.labels keeps them independent of where a run lives.
    """
    lines = [f"run.seed={cfg.seed}", f"run.folds={cfg.folds}"]
    for section in ("synthetic", "embedding", "model", "train", "ngram"):
        obj = getattr(cfg, section)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section}.{f.name}={value}")
    return lines
