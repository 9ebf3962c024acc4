"""Span tracer that times the pipeline's layers from outside the package.

The tracer replaces public functions of the ``mccrcnn`` modules with
wrappers that record one span per call: (name, start, end, parent,
counts).  A function is replaced wherever a loaded ``mccrcnn`` module
holds it, so calls that go through ``from .x import f`` names are seen
too.  Private helpers are never hooked; a span therefore covers a
public function and everything it calls.  Spans stay in memory until
``write`` is called at the end of a run.

Span names are layer metric groups (``asmlite.parse``, ``neural.step``,
...).  ``layer_metrics`` turns the spans under the benchmark's own
``pass``/``setup`` root spans into the per-layer metrics that
BENCHMARK.json lists.  Time metrics are inclusive: the summed duration of
the spans of a group that are not nested in a span of the same group.
The one exception is ``harness.ingest_s``, which is self time (the
parse spans inside ingest are subtracted).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

#: root span names opened by the benchmark itself, not by a layer
ROOTS = ("setup", "pass")

# span record fields
NAME, START, END, PARENT, COUNTS = range(5)


class Hooks:
    """Installs a wrapper around every public function that ``hooks()`` lists.

    A subclass decides what the wrappers do: it provides ``wrap``,
    ``inside`` and ``traced_matrix_fn`` as ``Tracer`` does.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, orig, replacement) -> None:
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for n, m in list(sys.modules.items())
                       if n == "mccrcnn" or n.startswith("mccrcnn.")]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is orig:
                    self._undo.append((target, attr, orig))
                    setattr(target, attr, replacement)

    @contextmanager
    def hooked(self):
        """Install every hook of ``hooks()`` for the duration of the block."""
        try:
            for owner, attr, make in hooks(self):
                orig = vars(owner)[attr]
                self._replace(owner, orig, make(orig))
            yield self
        finally:
            for target, attr, orig in reversed(self._undo):
                setattr(target, attr, orig)
            self._undo.clear()


class Tracer(Hooks):
    """In-memory span recorder plus the function hooks that feed it."""

    def __init__(self):
        super().__init__()
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self._open: list[int] = []
        self._serial = itertools.count()

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._open)

    def wrap(self, name, fn, counter=None):
        """``fn`` recording a span per call.

        ``name`` is a group name or a callable deciding it at call time;
        ``counter(result, args, kwargs)`` returns the span's counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name if isinstance(name, str) else name())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.spans[idx][COUNTS] = counter(result, args, kwargs)
            return result

        return traced

    def traced_matrix_fn(self, orig):
        """matrix_fn whose returned payload -> matrix function is traced.

        Each returned function gets a serial number so that the same
        sample converted twice by one function counts as one matrix.
        """

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            serial = next(self._serial)
            return self.wrap(
                "features.to_matrix", orig(*args, **kwargs),
                lambda _r, args, kwargs: {
                    "matrix": f"{serial}:{_arg(args, kwargs, 0, 'payload')[0].sample_id}"},
            )

        return traced

    # ----------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start": start - self.t0, "end": end - self.t0,
                    "counts": counts,
                }) + "\n")


def _arg(args, kwargs, pos: int, name: str, default=None):
    """Argument ``name`` at position ``pos`` of a call, or its default."""
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _ckpt_bytes(_result, args, kwargs):
    return {"harness.ckpt_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _opcode_counts(result, _args, _kwargs):
    return {
        "extraction.opcode_tokens": len(result.tokens),
        "extraction.dropped": 0 if result.tokens else 1,
    }


def hooks(tracer: Tracer):
    """(owner, attribute, make replacement) for every traced public function."""
    from mccrcnn import asmlite, baselines, embedding, extraction, features, neural
    from mccrcnn.harness import experiments, ingest, persist, synth

    def span(name, counter=None):
        return lambda orig: tracer.wrap(name, orig, counter)

    def predict_name():
        return "neural.epoch_predict" if tracer.inside("neural.train") else "neural.predict"

    epochs_default = inspect.signature(embedding.train_glove).parameters["epochs"].default

    def glove_counts(_result, args, kwargs):
        nnz = len(_arg(args, kwargs, 0, "cooc").entries)
        epochs = _arg(args, kwargs, 3, "epochs", epochs_default)
        return {"embedding.glove_updates": nnz * epochs, "embedding.fits": 1}

    def counted(key, measure):
        return lambda result, args, kwargs: {key: measure(result, args, kwargs)}

    lines = counted("asmlite.lines", lambda r, _a, _k: len(r.lines))
    return [
        (asmlite, "parse_asm_bytes", span("asmlite.parse", lines)),
        (asmlite, "parse_asm_file", span("asmlite.parse", lines)),
        (extraction, "extract_opcode_sequence", span("extraction.opcode", _opcode_counts)),
        (extraction, "build_relation_graph", span("extraction.graph")),
        (extraction, "extract_key_api_sequence", span("extraction.walk", counted(
            "extraction.api_tokens", lambda r, _a, _k: len(r.tokens)))),
        (embedding, "build_vocab", span("embedding.vocab")),
        (embedding, "count_cooccurrence", span("embedding.cooc", counted(
            "embedding.cooc_nnz", lambda r, _a, _k: len(r.entries)))),
        (embedding, "train_glove", span("embedding.glove", glove_counts)),
        (features, "sequence_to_matrix", span("features.to_matrix")),
        (features, "fuse", span("features.to_matrix")),
        (experiments, "matrix_fn", tracer.traced_matrix_fn),
        (features, "select_ngram_features", span("features.ngram_select")),
        (features, "ngram_vector", span("features.ngram_vector")),
        (neural, "train", span("neural.train")),
        (neural, "loss_and_gradients", span(
            "neural.step",
            lambda _r, args, kwargs: {"neural.steps": 1, "neural.forward_samples":
                                      len(_arg(args, kwargs, 1, "batch"))})),
        (neural, "predict", span(predict_name, counted(
            "neural.forward_samples", lambda _r, a, k: len(_arg(a, k, 1, "matrices"))))),
        (neural, "mcc_rcnn_forward", span(
            "neural.forward", counted("neural.forward_samples", lambda _r, _a, _k: 1))),
        (baselines, "train_logistic", span("baselines.logistic")),
        (baselines.LinearModel, "predict", span("baselines.logistic")),
        (baselines, "train_nb", span("baselines.nb")),
        (baselines.NaiveBayesModel, "predict", span("baselines.nb")),
        (baselines, "knn_predict", span("baselines.knn")),
        (synth, "generate_synthetic_corpus", span("harness.synth")),
        (ingest, "ingest_corpus", span("harness.ingest")),
        (persist, "save_embedding", span("harness.persist", _ckpt_bytes)),
        (persist, "save_model", span("harness.persist", _ckpt_bytes)),
        (persist, "load_embedding", span("harness.persist")),
        (persist, "load_model", span("harness.persist")),
    ]


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one span wrapper adds to a call: median over ``batches``.

    A wrapped no-op against the bare no-op.  Counters are not run, so
    this is a lower estimate of what a traced call costs.
    """

    def noop():
        return None

    def seconds(fn) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t

    extra = []
    for _ in range(batches):
        wrapped = Tracer().wrap("probe", noop)
        extra.append(seconds(wrapped) - seconds(noop))
    return max(statistics.median(extra), 0.0) / calls


def probe_neural(reps: int = 30) -> dict[str, float]:
    """Median ms of the public LSTM and gated-conv forwards at the training shape.

    The shape is the default training batch of the fused model:
    (batch_size, seq_len, 2 * k) into the LSTM, (batch_size, seq_len,
    hidden) into the convolution.
    """
    from mccrcnn.harness.config import EmbeddingSettings, ModelSettings, TrainSettings
    from mccrcnn.neural import ModelConfig, gated_conv_forward, init_params, lstm_forward

    ms, ts = ModelSettings(), TrainSettings()
    k = 2 * EmbeddingSettings().k
    params = init_params(ModelConfig(conv_channels=ms.conv_channels,
                                     kernel_width=ms.kernel_width),
                         k, 3, ms.hidden, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((ts.batch_size, ms.seq_len, k))
    h = rng.standard_normal((ts.batch_size, ms.seq_len, ms.hidden))
    return {
        "neural.lstm_forward_ms": _median_ms(lambda: lstm_forward(params.lstm, x), reps),
        "neural.gconv_forward_ms": _median_ms(lambda: gated_conv_forward(params.conv, h), reps),
    }


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over every span below a benchmark root span.

    Also returns ``trace.uncovered_share``: the share of the ``pass``
    roots' wall time that no layer span covers.
    """
    n = len(spans)
    child_time = [0.0] * n
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    matrices: set[str] = set()
    forward_ms: list[float] = []
    pass_time = covered = 0.0
    for idx, (name, start, end, parent, cnt) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
        if name in ROOTS:
            if name == "pass":
                pass_time += dur
            continue
        if spans[parent][NAME] == "pass":
            covered += dur
        up = parent
        while up >= 0 and spans[up][NAME] != name:
            up = spans[up][PARENT]
        if up >= 0:
            continue  # nested in a span of its own group: already counted
        times[name] = times.get(name, 0.0) + dur
        cnt = dict(cnt or {})
        if name == "neural.forward":
            forward_ms.append(1e3 * dur)
        elif name == "features.to_matrix":
            # a conversion outside a matrix_fn function counts as distinct
            matrices.add(cnt.pop("matrix", idx))
            cnt["features.to_matrix_calls"] = 1
        for key, value in cnt.items():
            counts[key] = counts.get(key, 0) + value
    ingest_self = sum(
        (end - start) - child_time[idx]
        for idx, (name, start, end, _p, _c) in enumerate(spans)
        if name == "harness.ingest"
    )

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {f"{group}_s": t for group, t in times.items()}
    out.update(counts)
    out["harness.ingest_s"] = ingest_self
    out["asmlite.parse_us_per_line"] = ratio(
        times.get("asmlite.parse", 0.0), counts.get("asmlite.lines", 0), 1e6)
    out["embedding.glove_us_per_update"] = ratio(
        times.get("embedding.glove", 0.0), counts.get("embedding.glove_updates", 0), 1e6)
    out["features.matrix_reuse"] = ratio(
        len(matrices), counts.get("features.to_matrix_calls", 0))
    out["neural.forward_ms"] = statistics.median(forward_ms) if forward_ms else 0.0
    out["trace.uncovered_share"] = ratio(pass_time - covered, pass_time)
    out["trace.spans"] = n
    return out
