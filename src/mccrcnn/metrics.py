"""Evaluation metrics and stratified cross-validation splits.

A confusion table is a plain (l, l) int64 array, as ``confusion``
returns it: l is ``len(cm)`` and N is ``cm.sum()``.  ``per_class`` and
the metrics below are array arithmetic on it.  ``ovr_accuracy`` is the
averaged one-vs-rest accuracy

    (1 / l) * sum over classes i of (TP_i + TN_i) / N

which differs from plain micro accuracy (trace / N) for l > 2; the two
coincide for every matrix when l = 2 and for perfect classifiers at any
l.  Per-class precision, recall and F1 define 0/0 as 0.
"""

from __future__ import annotations

import numpy as np

from .errors import PipelineError


class LengthMismatch(PipelineError):
    """Prediction and label lists differ in length."""


class LabelOutOfRange(PipelineError):
    """A prediction or label falls outside 1..l."""


class TooFewSamples(PipelineError):
    """Fewer samples than folds."""


def confusion(predictions, labels, l: int) -> np.ndarray:
    """The (l, l) int64 confusion table of parallel prediction/label lists:
    entry [t - 1, p - 1] counts samples of true class t predicted as p."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    cm = np.zeros((l, l), dtype=np.int64)
    for pred, true in zip(predictions, labels):
        if not (1 <= true <= l) or not (1 <= pred <= l):
            raise LabelOutOfRange(f"(pred={pred}, true={true}) outside 1..{l}")
        cm[true - 1, pred - 1] += 1
    return cm


def per_class(cm: np.ndarray):
    """(tp, fp, fn, tn) arrays; tp + fp + fn + tn = N for every class."""
    tp = np.diag(cm).astype(np.int64)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    tn = cm.sum() - tp - fn - fp
    return tp, fp, fn, tn


def _ratio(num, den) -> np.ndarray:
    """num / den element-wise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den != 0)


def ovr_accuracy(cm: np.ndarray) -> float:
    """Averaged one-vs-rest accuracy (see module docstring)."""
    tp, _fp, _fn, tn = per_class(cm)
    n = cm.sum()
    if n == 0:
        raise ValueError("empty confusion matrix")
    return float(np.mean((tp + tn) / n))


def micro_accuracy(cm: np.ndarray) -> float:
    """Plain accuracy: trace / N."""
    n = cm.sum()
    if n == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / n)


def standard_metrics(cm: np.ndarray) -> dict:
    """Micro accuracy plus per-class precision/recall/F1 and macro F1."""
    tp, fp, fn, _tn = per_class(cm)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    return {
        "micro_accuracy": micro_accuracy(cm),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_f1": float(f1.mean()),
    }


def kfold_split(ids, k: int, seed: int, stratify_by: dict):
    """Deterministic stratified k-fold split; ``stratify_by`` maps each id to its label.

    Returns k (train_ids, test_ids) pairs of sorted lists.  Within each
    class, members are shuffled by the seed and dealt cyclically, so
    per-class fold sizes differ by at most one; a running offset keeps
    total fold sizes balanced too.
    """
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValueError("sample ids must be unique")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(ids) < k:
        raise TooFewSamples(f"{len(ids)} samples cannot fill {k} folds")

    missing = [sid for sid in ids if sid not in stratify_by]
    if missing:
        raise ValueError(f"no stratification label for: {missing[:5]}")

    rng = np.random.default_rng(seed)
    folds: list[list[str]] = [[] for _ in range(k)]
    offset = 0
    for label in sorted({stratify_by[sid] for sid in ids}):
        members = sorted(sid for sid in ids if stratify_by[sid] == label)
        perm = rng.permutation(len(members))
        for pos, idx in enumerate(perm):
            folds[(offset + pos) % k].append(members[idx])
        offset = (offset + len(members)) % k

    all_ids = set(ids)
    return [
        (sorted(all_ids - set(fold)), sorted(fold))
        for fold in folds
    ]
