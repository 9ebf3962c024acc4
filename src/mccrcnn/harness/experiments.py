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

Each suite writes report_<name>.csv (rows experiment,fold,metric,value
with fold "mean" aggregates, the seed, and labelled reference rows) and
summary_<name>.txt.  Values are printed with repr(), iteration orders
are fixed, and every seed is derived from the run seed, so rerunning a
config reproduces both files byte for byte.

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
from ..embedding import EmbeddingTable, build_vocab, count_cooccurrence, train_glove
from ..extraction import (
    build_relation_graph,
    extract_key_api_sequence,
    extract_opcode_sequence,
)
from ..features import (
    LabeledDataset,
    fuse,
    join_with_labels,
    ngram_vector,
    ngram_id_sequence,
    onehot_matrix,
    select_ngram_features,
    sequence_to_matrix,
)
from ..metrics import confusion, kfold_split, ovr_accuracy, standard_metrics
from ..neural import ModelConfig, TrainConfig, predict, train
from .config import ExperimentConfig, config_echo
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


def derive_seed(root: int, stage: int, fold: int = 0) -> int:
    return int(np.random.SeedSequence([root, stage, fold]).generate_state(1)[0])


def prepare_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    """Ingest and extract; payload per sample is (opcode seq, api seq).

    Samples without code-section instructions are dropped and logged;
    an empty API sequence is kept (its feature rows are all zero).
    """
    asm_files, labels = ingest_corpus(cfg.corpus, cfg.labels)
    pairs = []
    for asm in asm_files:
        op_seq = extract_opcode_sequence(asm)
        if not op_seq.tokens:
            log.warning("sample %s has no code instructions, dropped", asm.sample_id)
            continue
        graph = build_relation_graph(asm)
        api_seq = extract_key_api_sequence(graph, asm)
        pairs.append((asm.sample_id, (op_seq, api_seq)))
    return join_with_labels(pairs, labels)


def fit_embedding(sequences, settings, seed: int) -> EmbeddingTable:
    """Vocabulary, co-occurrence and GloVe training on one fold's split."""
    vocab = build_vocab(sequences, min_count=settings.min_count)
    cooc = count_cooccurrence(sequences, vocab, window=settings.window)
    table, _losses = train_glove(
        cooc, vocab, k=settings.k, epochs=settings.epochs,
        learning_rate=settings.learning_rate, x_max=settings.x_max,
        alpha=settings.alpha, seed=seed,
    )
    return table


def fit_tables(which: str, train_split: LabeledDataset,
               cfg: ExperimentConfig, fold: int):
    """(opcode table, api table) fit on the split; None for unused layers."""
    es = cfg.embedding
    op_table = api_table = None
    if which in ("opcode", "fused"):
        seqs = [p[0] for p in train_split.payloads()]
        op_table = fit_embedding(seqs, es, derive_seed(cfg.seed, STAGE_EMBED_OP, fold))
    if which in ("api", "fused"):
        seqs = [p[1] for p in train_split.payloads()]
        api_table = fit_embedding(seqs, es, derive_seed(cfg.seed, STAGE_EMBED_API, fold))
    return op_table, api_table


def matrix_fn(which: str, op_table, api_table, seq_len: int):
    """payload -> (T, k) matrix function over fitted embedding tables."""

    def to_matrix(payload):
        op_seq, api_seq = payload
        if which == "opcode":
            return sequence_to_matrix(op_seq, op_table, seq_len)
        if which == "api":
            return sequence_to_matrix(api_seq, api_table, seq_len)
        return fuse(
            sequence_to_matrix(op_seq, op_table, seq_len),
            sequence_to_matrix(api_seq, api_table, seq_len),
        )

    return to_matrix


def glove_matrixer(which: str, train_split: LabeledDataset,
                   cfg: ExperimentConfig, fold: int):
    """payload -> (T, k) matrix function with embeddings fit on the split."""
    op_table, api_table = fit_tables(which, train_split, cfg, fold)
    return matrix_fn(which, op_table, api_table, cfg.model.seq_len)


class _Report:
    """Ordered experiment rows with deterministic text rendering."""

    def __init__(self, experiment: str):
        self.experiment = experiment
        self.rows: list[tuple[str, str, str]] = []

    def add(self, fold, metric: str, value) -> None:
        self.rows.append((str(fold), metric, repr(value)))

    def add_fold_metrics(self, fold: int, variant: str, cm) -> None:
        std = standard_metrics(cm)
        self.add(fold, f"{variant}/ovr_accuracy", ovr_accuracy(cm))
        self.add(fold, f"{variant}/micro_accuracy", std["micro_accuracy"])
        self.add(fold, f"{variant}/macro_f1", std["macro_f1"])

    def fold_values(self) -> dict[str, list[float]]:
        """metric -> values from numeric-fold rows, in insertion order."""
        out: dict[str, list[float]] = {}
        for fold, metric, value in self.rows:
            if fold.isdigit():
                out.setdefault(metric, []).append(float(value))
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
            f"{self.experiment},{fold},{metric},{value}"
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
    ts = cfg.train
    return TrainConfig(
        learning_rate=ts.learning_rate, epochs=ts.epochs,
        hidden=cfg.model.hidden, batch_size=ts.batch_size,
        seed=derive_seed(cfg.seed, STAGE_MODEL, fold),
        optimizer=ts.optimizer,
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


def _run_nn(variant, arch, to_matrix, cfg, fold, train_split, test_split, rep, l):
    params, _history = train(
        model_cfg_for(cfg, arch), train_split, train_cfg_for(cfg, fold),
        to_matrix=to_matrix,
    )
    preds = predict(params, [to_matrix(p) for p in test_split.payloads()])
    rep.add_fold_metrics(fold, variant, confusion(preds.tolist(), test_split.labels(), l))


def _experiment_a(cfg, dataset, rep):
    ms = cfg.model
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        op_train = [p[0] for p in train_split.payloads()]
        for n in cfg.ngram.sweep:
            fs = select_ngram_features(op_train, n, cfg.ngram.limit)
            dim = len(fs.grams)

            def onehot_of(payload, fs=fs, dim=dim):
                return onehot_matrix(ngram_id_sequence(payload[0], fs, ms.seq_len), dim)

            _run_nn(f"ngram{n}_lstm", "lstm", onehot_of, cfg, fold,
                    train_split, test_split, rep, dataset.l)
        to_matrix = glove_matrixer("opcode", train_split, cfg, fold)
        _run_nn("glove_lstm", "lstm", to_matrix, cfg, fold,
                train_split, test_split, rep, dataset.l)


def _experiment_b1(cfg, dataset, rep):
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        to_matrix = glove_matrixer("opcode", train_split, cfg, fold)
        for variant, arch in (
            ("opcode_lstm", "lstm"),
            ("opcode_gcnn", "gcnn"),
            ("opcode_mccrcnn", "mcc_rcnn"),
        ):
            _run_nn(variant, arch, to_matrix, cfg, fold,
                    train_split, test_split, rep, dataset.l)
        # linear SVM on the time average of the embedded sequence
        xtr = np.stack([to_matrix(p).mean(axis=0) for p in train_split.payloads()])
        xte = np.stack([to_matrix(p).mean(axis=0) for p in test_split.payloads()])
        ytr = np.array(train_split.labels())
        std = Standardizer.fit(xtr)
        model, _ = train_svm(std.transform(xtr), ytr, l=dataset.l)
        preds = model.predict(std.transform(xte))
        rep.add_fold_metrics(
            fold, "opcode_svm", confusion(preds.tolist(), test_split.labels(), dataset.l)
        )


def _experiment_b2(cfg, dataset, rep):
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        to_matrix = glove_matrixer("fused", train_split, cfg, fold)
        _run_nn("fused_mccrcnn", "mcc_rcnn", to_matrix, cfg, fold,
                train_split, test_split, rep, dataset.l)
        op_train = [p[0] for p in train_split.payloads()]
        ytr = np.array(train_split.labels())
        ytest = test_split.labels()
        for n in cfg.ngram.sweep:
            fs = select_ngram_features(op_train, n, cfg.ngram.limit)
            xtr = np.stack([ngram_vector(p[0], fs) for p in train_split.payloads()])
            xte = np.stack([ngram_vector(p[0], fs) for p in test_split.payloads()])
            xtr_f = xtr.astype(np.float64)
            xte_f = xte.astype(np.float64)
            std = Standardizer.fit(xtr_f)
            logi, _ = train_logistic(std.transform(xtr_f), ytr, l=dataset.l)
            preds = logi.predict(std.transform(xte_f))
            rep.add_fold_metrics(
                fold, f"logistic_ngram{n}", confusion(preds.tolist(), ytest, dataset.l)
            )
            nb = train_nb(xtr_f, ytr, l=dataset.l)
            preds = nb.predict(xte_f)
            rep.add_fold_metrics(
                fold, f"nb_ngram{n}", confusion(preds.tolist(), ytest, dataset.l)
            )
            preds = knn_predict(std.transform(xtr_f), ytr, std.transform(xte_f))
            rep.add_fold_metrics(
                fold, f"knn_ngram{n}", confusion(preds.tolist(), ytest, dataset.l)
            )


def _experiment_c(cfg, dataset, rep):
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        # each table is fit once: its seed depends on the layer and fold only
        op_table, api_table = fit_tables("fused", train_split, cfg, fold)
        for which in ("opcode", "api", "fused"):
            to_matrix = matrix_fn(which, op_table, api_table, cfg.model.seq_len)
            _run_nn(f"{which}_mccrcnn", "mcc_rcnn", to_matrix, cfg, fold,
                    train_split, test_split, rep, dataset.l)


EXPERIMENTS = {
    "A": _experiment_a,
    "B1": _experiment_b1,
    "B2": _experiment_b2,
    "C": _experiment_c,
}


def run_experiment(name: str, cfg: ExperimentConfig) -> Path:
    """Run one suite and write its report files; returns the CSV path."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}, expected one of "
                         f"{sorted(EXPERIMENTS)}")
    dataset = prepare_dataset(cfg)
    rep = _Report(name)
    rep.add("-", "seed", cfg.seed)
    EXPERIMENTS[name](cfg, dataset, rep)
    rep.finish(cfg.folds)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"report_{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rep.csv_text())
    with open(out / f"summary_{name}.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rep.summary_text(cfg))
    return csv_path
