"""Cross-validated experiment suites over a labelled corpus.

Four suites share one pipeline: stratified k folds, and inside each fold
every fitted object (vocabulary, co-occurrence counts, embeddings, n-gram
selection, standardizer, classifier) is learned from the training split
only and applied to the held-out split.

  A   sequence encodings for an LSTM: per-position n-gram one-hot rows
      for n in the sweep, against embedded opcode rows.
  B1  sequence models on embedded opcodes: plain LSTM, gated CNN, the
      combined model, and a linear SVM on time-averaged vectors.
  B2  the combined model on fused features against logistic regression,
      naive Bayes and KNN on n-gram count vectors.
  C   feature ablation of the combined model: opcode-only, API-only,
      fused.

A suite is a generator over one fold: given (cfg, fold, train split,
test split) it yields (variant, test-split predictions) in a fixed
order.  run_experiment owns the one fold loop and scores every yielded
pair the same way, as one confusion matrix and its metric_rows.

Feature layers come from config.LAYERS: fit_tables fits one GloVe
table per stream of a layer and matrix_fn embeds and fuses those
streams; suite C walks every layer.

Each suite writes report_<name>.csv (rows experiment,fold,metric,value
with fold "mean" aggregates, the seed, and labelled reference rows) and
summary_<name>.txt.  Values are printed with repr(), iteration orders
are fixed, every seed is derived from the run seed, and the summary
echoes no path, so rerunning a config reproduces both files byte for
byte, from any directory.

REFERENCE_FULL_CORPUS_PCT holds accuracy figures reported for the same
experiment designs on a full-scale corpus of real disassembly.  They
describe behaviour at a scale this synthetic harness does not reach:
they appear in reports as labelled context rows and are never asserted
or compared against.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from ..baselines import Standardizer, knn_predict, train_logistic, train_nb, train_svm
from ..embedding import (
    EmptyCooccurrence,
    EmptyVocabulary,
    build_vocab,
    count_cooccurrence,
    train_glove,
)
from ..errors import ShapeMismatch
from ..extraction import (
    NoCode,
    build_relation_graph,
    extract_key_api_sequence,
    extract_opcode_sequence,
)
from ..features import (
    LabeledDataset,
    checked_zeros,
    ngram_vector,
    ngram_id_sequence,
    onehot_matrix,
    select_ngram_features,
)
from ..metrics import confusion, kfold_split, ovr_accuracy, standard_metrics
from ..neural import ARCHS, ModelConfig, TrainConfig, predict, train
from .config import LAYERS, STREAMS, ExperimentConfig, config_echo
from .ingest import ingest_corpus

log = logging.getLogger(__name__)

#: accuracy (percent) reported for these designs on a full-scale corpus;
#: context only, never asserted
REFERENCE_FULL_CORPUS_PCT = (
    ("ngram_lstm_best", 77.38),
    ("glove_lstm", 83.95),
    ("api_mccrcnn", 86.42),
    ("opcode_mccrcnn", 88.89),
    ("fused_mccrcnn", 97.53),
)

# seed derivation stages; every randomized step hashes (seed, stage, fold)
STAGE_FOLDS = 0
STAGE_EMBED_OP = 1
STAGE_EMBED_API = 2
STAGE_MODEL = 3
_STAGE_EMBED = dict(zip(STREAMS, (STAGE_EMBED_OP, STAGE_EMBED_API)))


def derive_seed(root: int, stage: int, fold: int = 0) -> int:
    return int(np.random.SeedSequence([root, stage, fold]).generate_state(1)[0])


def _streams(asm):
    """(sample id, (opcode seq, api seq)) of one listing; None for a listing without code."""
    op_seq = extract_opcode_sequence(asm)
    if not op_seq.tokens:
        return asm.sample_id, None
    return asm.sample_id, (op_seq, extract_key_api_sequence(build_relation_graph(asm), asm))


def prepare_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    """Ingest and extract the labelled corpus, one record per sample.

    ingest_corpus decides which files and labels meet, and their order
    (by sample id).  Listings are parsed one at a time: each one's two
    streams are extracted and its parse records dropped before the next
    file is read, so one listing's records are alive at a time.  A read
    or parse error (OSError, EmptyFile) is raised when its file is
    reached.  A listing without code-section instructions is dropped
    and logged; an empty API sequence is kept (its feature rows are all
    zero).  Records are (sample_id, (opcode seq, api seq), label), and
    ``l`` is the largest label among them.  Raises NoCode when no
    labelled listing has code.
    """
    asm_files, labels = ingest_corpus(cfg.corpus, cfg.labels)
    records = []
    # map passes each AsmFile on and keeps no reference to it; a for loop
    # over asm_files would keep the last one alive through the next parse
    for sid, payload in map(_streams, asm_files):
        if payload is None:
            log.warning("sample %s has no code instructions, dropped", sid)
            continue
        records.append((sid, payload, labels[sid]))
    if not records:
        raise NoCode(f"no labelled listing under {cfg.corpus} has code-section instructions")
    return LabeledDataset(records=tuple(records), l=max(y for _s, _p, y in records))


def fit_tables(which: str, train_split: LabeledDataset,
               cfg: ExperimentConfig, fold: int):
    """(opcode table, api table) fit on the split; None for streams not in the layer.

    Each table is a vocabulary, co-occurrence counts and GloVe training
    on its stream of the split, seeded by the run seed, the stream and
    the fold.  Nothing to fit raises EmptyVocabulary or EmptyCooccurrence
    naming the stream and fold > 0.
    """
    tables = [None] * len(STREAMS)
    for i, stream in enumerate(STREAMS):
        if stream in LAYERS[which]:
            seqs = [p[i] for p in train_split.payloads()]
            seed = derive_seed(cfg.seed, _STAGE_EMBED[stream], fold)
            try:
                vocab = build_vocab(seqs)
                cooc = count_cooccurrence(seqs, vocab, window=cfg.embedding.window)
                tables[i], _losses = train_glove(cooc, vocab, k=cfg.embedding.k,
                                                 epochs=cfg.embedding.epochs, seed=seed)
            except (EmptyVocabulary, EmptyCooccurrence) as exc:
                where = f"{stream} stream, fold {fold}" if fold else f"{stream} stream"
                raise type(exc)(f"{where}: {exc}") from exc
    return tuple(tables)


def matrix_fn(which: str, op_table, api_table, seq_len: int):
    """payload -> (T, k) matrix function over fitted embedding tables.

    Each used table's final rows are read here, once, by one ``vectors``
    call whose last row is the zero row of a token outside the table;
    each payload then gathers its first T tokens' rows into zeros, one
    stream's columns after the other.  The matrices are
    ``sequence_to_matrix`` per stream joined by ``fuse``, bit for bit, of
    the tables as they are when this is called.
    """
    if seq_len < 1:
        raise ValueError("t must be >= 1")
    tables = (op_table, api_table)
    used = [(i, tables[i]) for i, stream in enumerate(STREAMS) if stream in LAYERS[which]]
    widths = [table.k for _, table in used]
    if len(set(widths)) > 1:
        raise ShapeMismatch(f"opcode rows of {widths[0]} columns vs api rows of {widths[1]}")
    width = sum(widths)
    reads = []
    for n, (i, table) in enumerate(used):
        row = {tok: r for r, tok in enumerate(table.tokens)}
        final = table.vectors([*table.tokens, None])  # None is in no table
        cols = slice(n * table.k, (n + 1) * table.k)
        reads.append((i, row, len(table.tokens), cols, final))

    def to_matrix(payload):
        out = checked_zeros((seq_len, width), np.float64)
        for i, row, oov, cols, final in reads:
            ids = [row.get(tok, oov) for tok in payload[i].tokens[:seq_len]]
            out[:len(ids), cols] = final[ids]
        return out

    return to_matrix


def glove_matrixer(which: str, train_split: LabeledDataset,
                   cfg: ExperimentConfig, fold: int):
    """payload -> (T, k) matrix function with embeddings fit on the split."""
    op_table, api_table = fit_tables(which, train_split, cfg, fold)
    return matrix_fn(which, op_table, api_table, cfg.model.seq_len)


def metric_rows(cm) -> list[tuple[str, float]]:
    """(metric, value) rows of one confusion matrix, in report order."""
    std = standard_metrics(cm)
    return [("ovr_accuracy", ovr_accuracy(cm)), ("micro_accuracy", std["micro_accuracy"]),
            ("macro_f1", std["macro_f1"])]


class _Report:
    """Ordered experiment rows of numbers, rendered with repr()."""

    def __init__(self, experiment: str):
        self.experiment = experiment
        self.rows: list[tuple[str, str, float | int]] = []

    def add(self, fold, metric: str, value) -> None:
        self.rows.append((str(fold), metric, value))

    def fold_values(self) -> dict[str, list[float]]:
        """metric -> values from numeric-fold rows, in insertion order."""
        out: dict[str, list[float]] = {}
        for fold, metric, value in self.rows:
            if fold.isdigit():
                out.setdefault(metric, []).append(value)
        return out

    def finish(self, folds: int) -> None:
        for metric, values in self.fold_values().items():
            if len(values) == folds:
                self.add("mean", metric, float(np.mean(values)))
        for name, pct in REFERENCE_FULL_CORPUS_PCT:
            self.add("reference", f"{name}/published_accuracy_pct", pct)

    def csv_text(self) -> str:
        lines = ["experiment,fold,metric,value"]
        lines.extend(
            f"{self.experiment},{fold},{metric},{value!r}"
            for fold, metric, value in self.rows
        )
        return "\n".join(lines) + "\n"

    def summary_text(self, cfg: ExperimentConfig) -> str:
        lines = [f"experiment {self.experiment}", "", "config:"]
        lines.extend("  " + line for line in config_echo(cfg))
        lines.append("")
        lines.append(f"results, mean +/- population std over {cfg.folds} folds:")
        for metric, values in self.fold_values().items():
            mean, sd = float(np.mean(values)), float(np.std(values))
            lines.append(f"  {metric}: {mean:.4f} +/- {sd:.4f}")
        lines.append("")
        lines.append("reference accuracy (percent) from a full-scale corpus of real")
        lines.append("disassembly; context only, never asserted:")
        for name, pct in REFERENCE_FULL_CORPUS_PCT:
            lines.append(f"  {name}: {pct}")
        return "\n".join(lines) + "\n"


def train_cfg_for(cfg: ExperimentConfig, fold: int) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.train.epochs, hidden=cfg.model.hidden, batch_size=cfg.train.batch_size,
        seed=derive_seed(cfg.seed, STAGE_MODEL, fold),
    )


def model_cfg_for(cfg: ExperimentConfig, arch: str) -> ModelConfig:
    return ModelConfig(
        arch=arch,
        conv_channels=cfg.model.conv_channels,
        kernel_width=cfg.model.kernel_width,
    )


def _iter_folds(cfg: ExperimentConfig, dataset: LabeledDataset):
    by_id = {sid: y for sid, _p, y in dataset.records}
    folds = kfold_split(
        dataset.ids(), k=cfg.folds,
        seed=derive_seed(cfg.seed, STAGE_FOLDS),
        stratify_by=by_id,
    )
    for fold, (train_ids, test_ids) in enumerate(folds, start=1):
        yield fold, dataset.subset(train_ids), dataset.subset(test_ids)


def _nn_predictions(arch, to_matrix, cfg, fold, train_split, test_split):
    """Train one model on the split, then predict the test split chunk by chunk."""
    params, _history = train(
        model_cfg_for(cfg, arch), train_split, train_cfg_for(cfg, fold),
        to_matrix=to_matrix, epoch_accuracy=False,
    )
    return predict(params, test_split.payloads(), to_matrix=to_matrix)


def _suite_a(cfg, fold, train_split, test_split):
    op_train = [p[0] for p in train_split.payloads()]
    for n in cfg.ngram.sweep:
        fs = select_ngram_features(op_train, n)
        dim = len(fs.grams)

        def onehot_of(payload, fs=fs, dim=dim):
            return onehot_matrix(ngram_id_sequence(payload[0], fs, cfg.model.seq_len), dim)

        yield f"ngram{n}_lstm", _nn_predictions("lstm", onehot_of, cfg, fold,
                                                train_split, test_split)
    to_matrix = glove_matrixer("opcode", train_split, cfg, fold)
    yield "glove_lstm", _nn_predictions("lstm", to_matrix, cfg, fold, train_split, test_split)


def _suite_b1(cfg, fold, train_split, test_split):
    to_matrix = glove_matrixer("opcode", train_split, cfg, fold)
    for arch in ARCHS:
        yield (f"opcode_{arch.replace('_', '')}",
               _nn_predictions(arch, to_matrix, cfg, fold, train_split, test_split))
    # linear SVM on the time average of the embedded sequence
    xtr = np.stack([to_matrix(p).mean(axis=0) for p in train_split.payloads()])
    xte = np.stack([to_matrix(p).mean(axis=0) for p in test_split.payloads()])
    std = Standardizer.fit(xtr)
    model, _ = train_svm(std.transform(xtr), np.array(train_split.labels()), l=train_split.l)
    yield "opcode_svm", model.predict(std.transform(xte))


def _ngram_predictions(n, op_train, ytr, train_split, test_split):
    """The three n-gram baselines' (variant, predictions) pairs for one n.

    The count and standardized arrays die on return, before the next n's
    are built.
    """
    fs = select_ngram_features(op_train, n)
    xtr = np.array([ngram_vector(p[0], fs) for p in train_split.payloads()], np.float64)
    xte = np.array([ngram_vector(p[0], fs) for p in test_split.payloads()], np.float64)
    std = Standardizer.fit(xtr)
    ztr, zte = std.transform(xtr), std.transform(xte)
    logi, _ = train_logistic(ztr, ytr, l=train_split.l)
    return [(f"logistic_ngram{n}", logi.predict(zte)),
            (f"nb_ngram{n}", train_nb(xtr, ytr, l=train_split.l).predict(xte)),
            (f"knn_ngram{n}", knn_predict(ztr, ytr, zte))]


def _suite_b2(cfg, fold, train_split, test_split):
    to_matrix = glove_matrixer("fused", train_split, cfg, fold)
    yield "fused_mccrcnn", _nn_predictions("mcc_rcnn", to_matrix, cfg, fold,
                                           train_split, test_split)
    op_train = [p[0] for p in train_split.payloads()]
    ytr = np.array(train_split.labels())
    for n in cfg.ngram.sweep:
        yield from _ngram_predictions(n, op_train, ytr, train_split, test_split)


def _suite_c(cfg, fold, train_split, test_split):
    # each table is fit once and shared by the layers that read its
    # stream: fit_tables seeds it from the stream and fold, not the layer
    tables = fit_tables("fused", train_split, cfg, fold)
    for which in LAYERS:
        to_matrix = matrix_fn(which, *tables, cfg.model.seq_len)
        yield f"{which}_mccrcnn", _nn_predictions("mcc_rcnn", to_matrix, cfg, fold,
                                                  train_split, test_split)


EXPERIMENTS = {"A": _suite_a, "B1": _suite_b1, "B2": _suite_b2, "C": _suite_c}


def run_experiment(name: str, cfg: ExperimentConfig) -> Path:
    """Run one suite and write its report files; returns the CSV path."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}, expected one of "
                         f"{sorted(EXPERIMENTS)}")
    dataset = prepare_dataset(cfg)
    rep = _Report(name)
    rep.add("-", "seed", cfg.seed)
    suite = EXPERIMENTS[name]
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        for variant, preds in suite(cfg, fold, train_split, test_split):
            cm = confusion(preds.tolist(), test_split.labels(), dataset.l)
            for metric, value in metric_rows(cm):
                rep.add(fold, f"{variant}/{metric}", value)
    rep.finish(cfg.folds)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"report_{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rep.csv_text())
    with open(out / f"summary_{name}.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rep.summary_text(cfg))
    return csv_path
