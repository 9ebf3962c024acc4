"""The benchmark workloads: cv_fused and scan.

Each workload class is built from a seed and a size ("full" or the
smoke-test "tiny") and offers:

* ``setup()``: everything before the timed phase; may run several times
  and must leave the same state each time.
* ``run_pass()``: one pass of the timed unit.  It counts attempted and
  failed operations and collects what the checks need.
* ``finish()``: correctness checks outside the timed phase; returns the
  workload's own metrics as {name: (value, unit)}.

The package is called through its module attributes
(``experiments.run_experiment``, not a name imported here), so the
tracer's hooks see every call.  See README.md for why each workload was
chosen and which layers it exercises.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from mccrcnn import asmlite, extraction, neural
from mccrcnn.errors import PipelineError
from mccrcnn.harness import experiments, persist, synth
from mccrcnn.harness.config import (
    EmbeddingSettings,
    ExperimentConfig,
    ModelSettings,
    TrainSettings,
)
from mccrcnn.harness.synth import SyntheticCorpusSpec
from mccrcnn.metrics import kfold_split

#: settings that shrink every workload for the smoke test
TINY = dict(
    embedding=EmbeddingSettings(k=6, window=4, epochs=4),
    model=ModelSettings(seq_len=16, hidden=6, conv_channels=6),
    train=TrainSettings(epochs=2, batch_size=4),
)


def _corpus(workdir: Path, spec: SyntheticCorpusSpec) -> Path:
    corpus = workdir / "corpus"
    if corpus.exists():
        shutil.rmtree(corpus)
    synth.generate_synthetic_corpus(spec, corpus)
    return corpus


def _config(seed: int, corpus: Path, out: Path, tiny: bool, **kw) -> ExperimentConfig:
    extra = dict(TINY) if tiny else {}
    extra.update(kw)
    return ExperimentConfig(seed=seed, corpus=corpus, labels=corpus / "labels.csv",
                            out_dir=out, **extra)


class Workload:
    warmup_s = 0.0
    #: chance is 1/3.  On some seeds the fused model's training stalls
    #: with two families merged (final loss ~0.3..0.5, accuracy ~2/3 on
    #: that fit), so the floor catches a pipeline that stopped learning,
    #: not a stalled fit; accuracy and train_loss are printed per run
    accuracy_floor = 0.5

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.tiny = size == "tiny"
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def paused_wall(self) -> float:
        """Wall seconds the benchmark has spent inside the program's calls
        on its own business so far (host-speed reference runs); the runner
        replaces it when it runs any."""
        return 0.0

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


class CvFused(Workload):
    """run_experiment("B2") on the criterion-08 corpus (3 x 100 samples).

    An operation is one fold variant: the fused model or one n-gram
    baseline on one fold.  Every pass reruns the same seed, so every
    pass must write byte-identical report and summary files.
    """

    #: fewer folds than the suite's default 10 keep one pass near 6 s, so
    #: that three passes fit a run
    folds = 2

    def setup(self) -> None:
        per_family = 6 if self.tiny else 100
        corpus = _corpus(self.workdir, SyntheticCorpusSpec(
            families=3, samples_per_family=per_family, seed=self.seed))
        self.cfg = _config(self.seed, corpus, self.workdir / "report", self.tiny,
                           folds=self.folds)
        self.variants = ["fused_mccrcnn"] + [
            f"{model}_ngram{n}" for n in self.cfg.ngram.sweep
            for model in ("logistic", "nb", "knn")
        ]
        self.first: dict[str, bytes] | None = None

    def run_pass(self) -> None:
        expected = self.folds * len(self.variants)
        self.attempted += expected
        try:
            experiments.run_experiment("B2", self.cfg)
        except PipelineError as exc:
            self.failed += expected
            self.problems.append(f"B2 failed: {exc}")
            return
        out = Path(self.cfg.out_dir)
        files = {name: (out / name).read_bytes() for name in ("report_B2.csv", "summary_B2.txt")}
        if self.first is None:
            self.first = files
        elif not self.check(files == self.first, "B2 reports differ between same-seed runs"):
            self.failed += expected
            return
        rows = [line.split(",") for line in files["report_B2.csv"].decode().splitlines()[1:]]
        seen = {
            (fold, metric.split("/")[0]) for _e, fold, metric, value in rows
            if fold.isdigit() and metric.endswith("/micro_accuracy")
            and np.isfinite(float(value))
        }
        missing = expected - len(seen & {
            (str(f), v) for f in range(1, self.folds + 1) for v in self.variants})
        self.failed += missing
        self.check(missing == 0, f"{missing} fold variants have no finite accuracy")

    def finish(self) -> dict:
        accuracy = 0.0
        if self.first is not None:
            for line in self.first["report_B2.csv"].decode().splitlines():
                if line.startswith("B2,mean,fused_mccrcnn/micro_accuracy,"):
                    accuracy = float(line.rsplit(",", 1)[1])
        floor = 0.0 if self.tiny else self.accuracy_floor
        self.check(accuracy >= floor, f"fused accuracy {accuracy} below {floor}")
        return {"accuracy": (accuracy, "ratio")}


class Scan(Workload):
    """Classify held-out listings one at a time from raw bytes.

    Set-up fits the embedding tables and the fused model on one
    stratified half of a 3 x 100 corpus, saves them as checkpoints and
    loads them back.  An operation is one listing: parse, extract,
    matrix, forward, argmax.
    """

    warmup_s = 2.0

    def setup(self) -> None:
        per_family = 6 if self.tiny else 100
        corpus = _corpus(self.workdir, SyntheticCorpusSpec(
            families=3, samples_per_family=per_family, seed=self.seed))
        cfg = _config(self.seed, corpus, self.workdir / "out", self.tiny)
        dataset = experiments.prepare_dataset(cfg)
        by_id = {sid: y for sid, _p, y in dataset.records}
        train_ids, test_ids = kfold_split(
            dataset.ids(), k=2, stratify_by=by_id,
            seed=experiments.derive_seed(self.seed, experiments.STAGE_FOLDS))[0]
        train_split = dataset.subset(train_ids)
        tables = experiments.fit_tables("fused", train_split, cfg, fold=1)
        to_matrix = experiments.matrix_fn("fused", *tables, cfg.model.seq_len)
        params, history = neural.train(
            experiments.model_cfg_for(cfg, "mcc_rcnn"), train_split,
            experiments.train_cfg_for(cfg, 1), to_matrix=to_matrix)
        self.train_loss = history[-1]["loss"]
        # the scanner runs from checkpoints, as deployed: save, then load
        saved = [self.workdir / f"{name}_glove.ckpt" for name in ("opcode", "api")]
        for path, table in zip(saved, tables):
            persist.save_embedding(path, table)
        persist.save_model(self.workdir / "model.ckpt", params, cfg.model.seq_len)
        self.tables = [persist.load_embedding(path) for path in saved]
        self.params, self.seq_len = persist.load_model(self.workdir / "model.ckpt")
        ok = all(_round_trips(path, persist.save_embedding, table)
                 for path, table in zip(saved, self.tables))
        ok &= _round_trips(self.workdir / "model.ckpt", persist.save_model,
                           self.params, self.seq_len)
        self.check(ok, "checkpoint round trip not bit-exact")
        self.listings = [
            (sid, (corpus / f"{sid}.asm").read_bytes(), by_id[sid]) for sid in test_ids
        ]
        self.latencies: list[float] = []
        self.matrices: list[np.ndarray] | None = None
        self.labels: list[list[int]] = []

    def classify(self, sid: str, raw: bytes, to_matrix):
        asm = asmlite.parse_asm_bytes(raw, sid)
        op_seq = extraction.extract_opcode_sequence(asm)
        api_seq = extraction.extract_key_api_sequence(
            extraction.build_relation_graph(asm), asm)
        matrix = to_matrix((op_seq, api_seq))
        probs = neural.mcc_rcnn_forward(self.params, matrix)
        return int(probs.argmax()) + 1, matrix

    def run_pass(self, record: bool = True) -> None:
        to_matrix = experiments.matrix_fn("fused", *self.tables, self.seq_len)
        labels, matrices = [], []
        for sid, raw, _y in self.listings:
            t, paused = time.perf_counter(), self.paused_wall()
            try:
                label, matrix = self.classify(sid, raw, to_matrix)
            except PipelineError as exc:
                label, matrix = 0, None
                self.problems.append(f"{sid}: {exc}")
            if record:
                self.latencies.append(time.perf_counter() - t - (self.paused_wall() - paused))
            labels.append(label)
            matrices.append(matrix)
        if record:
            self.attempted += len(labels)
            self.labels.append(labels)
            if self.matrices is None:
                self.matrices = matrices

    def finish(self) -> dict:
        batched = []
        if self.matrices is not None and all(m is not None for m in self.matrices):
            batched = neural.predict(self.params, self.matrices).tolist()
        for labels in self.labels:
            bad = sum(a != b for a, b in zip(labels, batched)) + len(labels) - len(batched)
            self.failed += bad
            self.check(bad == 0, f"{bad} one-at-a-time labels differ from batched predict")
        truth = [y for _s, _r, y in self.listings]
        accuracy = float(np.mean([a == b for a, b in zip(batched, truth)])) if batched else 0.0
        floor = 0.0 if self.tiny else self.accuracy_floor
        self.check(accuracy >= floor, f"held-out accuracy {accuracy} below {floor}")
        ms = sorted(1e3 * t for t in self.latencies) or [0.0]
        cuts = statistics.quantiles(ms, n=100) if len(ms) > 1 else ms * 99
        return {
            "scan_ms.p50": (statistics.median(ms), "ms"),
            "scan_ms.p95": (cuts[94], "ms"),
            "scan_listings": (len(self.latencies), "count"),
            "accuracy": (accuracy, "ratio"),
            "train_loss": (self.train_loss, "nats"),
        }


def _round_trips(path: Path, save, obj, *args) -> bool:
    """Saving ``obj``, just loaded from ``path``, again writes the same bytes.

    Checkpoints store floats by repr(), so equal bytes mean the load was
    bit-exact.
    """
    again = path.with_suffix(".again")
    save(again, obj, *args)
    return again.read_bytes() == path.read_bytes()


WORKLOADS = {"cv_fused": CvFused, "scan": Scan}
