"""Confusion metrics and the stratified k-fold splitter."""

import numpy as np
import pytest

from mccrcnn.metrics import (
    LabelOutOfRange,
    LengthMismatch,
    TooFewSamples,
    confusion,
    kfold_split,
    micro_accuracy,
    ovr_accuracy,
    per_class,
    standard_metrics,
)

# Hand-tallied 3-class matrix: rows true, cols predicted.
HAND = np.array([[3, 1, 0], [0, 4, 1], [1, 0, 0]], dtype=np.int64)


def hand_cm():
    return HAND.copy()


def test_hand_example_values():
    cm = hand_cm()
    assert cm.sum() == 10
    # per class (tp, fp, fn, tn): c1 (3,1,1,5) c2 (4,1,1,4) c3 (0,1,1,8)
    assert ovr_accuracy(cm) == pytest.approx((8 + 8 + 8) / 30)  # 0.8
    assert micro_accuracy(cm) == pytest.approx(0.7)


def test_per_class_quadrants_sum_to_n():
    cm = hand_cm()
    tp, fp, fn, tn = per_class(cm)
    assert np.array_equal(tp, [3, 4, 0])
    assert np.array_equal(fp, [1, 1, 1])
    assert np.array_equal(fn, [1, 1, 1])
    assert np.array_equal(tp + fp + fn + tn, [10, 10, 10])


def brute_force_ovr(counts):
    """Expand to one binary task per class and average plain accuracies."""
    l = counts.shape[0]
    n = counts.sum()
    accs = []
    for c in range(l):
        correct = 0
        for t in range(l):
            for p in range(l):
                # binary task: "is class c" vs "is not class c"
                if (t == c) == (p == c):
                    correct += counts[t, p]
        accs.append(correct / n)
    return sum(accs) / l


def test_ovr_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(17)
    for trial in range(100):
        l = int(rng.integers(2, 7))
        counts = rng.integers(0, 9, size=(l, l)).astype(np.int64)
        if counts.sum() == 0:
            counts[0, 0] = 1
        assert ovr_accuracy(counts) == pytest.approx(brute_force_ovr(counts), abs=1e-12), trial
        assert ovr_accuracy(counts) >= micro_accuracy(counts) - 1e-12, trial


def test_ovr_identity_against_micro():
    # ovr = micro + (l - 2) / l * (1 - micro), checked on random matrices
    rng = np.random.default_rng(4)
    for _ in range(50):
        l = int(rng.integers(2, 8))
        counts = rng.integers(0, 12, size=(l, l)).astype(np.int64)
        counts[0, 0] += 1
        micro = micro_accuracy(counts)
        expected = micro + (l - 2) / l * (1.0 - micro)
        assert ovr_accuracy(counts) == pytest.approx(expected, abs=1e-12)


def test_two_class_ovr_equals_micro():
    rng = np.random.default_rng(8)
    for _ in range(20):
        counts = rng.integers(0, 20, size=(2, 2)).astype(np.int64)
        counts[1, 1] += 1
        assert ovr_accuracy(counts) == pytest.approx(micro_accuracy(counts), abs=1e-12)


def test_confusion_tally_and_errors():
    cm = confusion([1, 2, 2, 1], [1, 2, 1, 3], l=3)
    assert cm[0, 0] == 1 and cm[1, 1] == 1
    assert cm[0, 1] == 1 and cm[2, 0] == 1
    assert cm.sum() == 4
    with pytest.raises(LengthMismatch):
        confusion([1, 2], [1], l=2)
    with pytest.raises(LabelOutOfRange):
        confusion([1, 3], [1, 2], l=2)
    with pytest.raises(LabelOutOfRange):
        confusion([1, 0], [1, 2], l=2)
    empty = np.zeros((2, 2), dtype=np.int64)
    for metric in (ovr_accuracy, micro_accuracy, standard_metrics):
        with pytest.raises(ValueError, match="empty confusion matrix"):
            metric(empty)


def test_confusion_returns_a_contiguous_int64_table():
    for l in (1, 3, 6):
        cm = confusion([1] * 5, [1] * 5, l=l)
        assert type(cm) is np.ndarray and cm.shape == (l, l) and cm.dtype == np.int64
        assert cm.flags.c_contiguous
        assert len(cm) == l and cm[0, 0] == 5 and cm.sum() == 5
    assert confusion([], [], l=2).shape == (2, 2)


def test_standard_metrics_hand_values():
    m = standard_metrics(hand_cm())
    assert m["micro_accuracy"] == pytest.approx(0.7)
    assert m["precision"] == pytest.approx([3 / 4, 4 / 5, 0.0])
    assert m["recall"] == pytest.approx([3 / 4, 4 / 5, 0.0])
    assert m["f1"] == pytest.approx([3 / 4, 4 / 5, 0.0])  # p == r here
    assert m["macro_f1"] == pytest.approx((3 / 4 + 4 / 5 + 0.0) / 3)


def test_zero_denominators_score_zero():
    # class 2 never predicted and never true beyond one miss
    cm = confusion([1, 1, 1], [1, 1, 2], l=2)
    m = standard_metrics(cm)
    assert m["precision"][1] == 0.0
    assert m["recall"][1] == 0.0
    assert m["f1"][1] == 0.0


def loop_standard_metrics(counts):
    """Frozen per-class loop over a confusion table: what standard_metrics
    must equal bit for bit."""
    l = len(counts)
    tp = np.diag(counts).astype(np.int64)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp
    precision = np.zeros(l)
    recall = np.zeros(l)
    f1 = np.zeros(l)
    for i in range(l):
        denom = tp[i] + fp[i]
        precision[i] = tp[i] / denom if denom else 0.0
        denom = tp[i] + fn[i]
        recall[i] = tp[i] / denom if denom else 0.0
        denom = precision[i] + recall[i]
        f1[i] = 2 * precision[i] * recall[i] / denom if denom else 0.0
    micro = float(np.trace(counts) / int(counts.sum()))
    return {"micro_accuracy": micro, "precision": precision, "recall": recall,
            "f1": f1, "macro_f1": float(f1.mean())}


def test_standard_metrics_equal_the_per_class_loop_bit_for_bit():
    """Random tables of l = 1..6, in which some classes are never predicted
    (a zero column) and some never occur in the labels (a zero row)."""
    rng = np.random.default_rng(32)
    seen_unpredicted = seen_absent = 0
    for trial in range(600):
        l = 1 + trial % 6
        counts = rng.integers(0, 9, size=(l, l)).astype(np.int64)
        counts[:, rng.random(l) < 0.3] = 0  # never predicted
        counts[rng.random(l) < 0.3, :] = 0  # absent from the labels
        if counts.sum() == 0:
            counts[l - 1, 0] = 1
        seen_unpredicted += int((counts.sum(axis=0) == 0).any())
        seen_absent += int((counts.sum(axis=1) == 0).any())
        got, want = standard_metrics(counts), loop_standard_metrics(counts)
        assert got.keys() == want.keys()
        for key in ("precision", "recall", "f1"):
            assert got[key].dtype == np.float64, (trial, key)
            assert got[key].tobytes() == want[key].tobytes(), (trial, key, counts)
        for key in ("micro_accuracy", "macro_f1"):
            assert type(got[key]) is float and repr(got[key]) == repr(want[key]), (trial, key)
    assert seen_unpredicted > 100 and seen_absent > 100


# ------------------------------------------------------------------ splits

def toy_ids(per_class):
    ids, labels = [], {}
    for c, count in enumerate(per_class, start=1):
        for i in range(count):
            sid = f"c{c}_{i:03d}"
            ids.append(sid)
            labels[sid] = c
    return ids, labels


def test_kfold_is_deterministic_and_sorted():
    ids, labels = toy_ids([10, 13, 7])
    a = kfold_split(ids, k=5, seed=3, stratify_by=labels)
    b = kfold_split(ids, k=5, seed=3, stratify_by=labels)
    assert a == b
    c = kfold_split(ids, k=5, seed=4, stratify_by=labels)
    assert a != c
    for train, test in a:
        assert train == sorted(train) and test == sorted(test)
        assert not set(train) & set(test)
        assert sorted(train + test) == sorted(ids)


def test_kfold_every_id_tested_exactly_once():
    ids, labels = toy_ids([9, 9, 9])
    folds = kfold_split(ids, k=4, seed=0, stratify_by=labels)
    tested = [sid for _tr, te in folds for sid in te]
    assert sorted(tested) == sorted(ids)


def test_kfold_per_class_counts_balanced():
    ids, labels = toy_ids([11, 23, 8])
    folds = kfold_split(ids, k=5, seed=1, stratify_by=labels)
    for cls in (1, 2, 3):
        sizes = [sum(1 for sid in te if labels[sid] == cls) for _tr, te in folds]
        assert max(sizes) - min(sizes) <= 1, (cls, sizes)
    totals = [len(te) for _tr, te in folds]
    assert max(totals) - min(totals) <= 1, totals


def test_kfold_errors():
    ids, labels = toy_ids([3])
    with pytest.raises(TooFewSamples):
        kfold_split(ids, k=4, seed=0, stratify_by=labels)
    with pytest.raises(ValueError):
        kfold_split(["a", "a", "b"], k=2, seed=0, stratify_by={"a": 1, "b": 1})
    with pytest.raises(ValueError):
        kfold_split(ids, k=1, seed=0, stratify_by=labels)
    with pytest.raises(ValueError):
        kfold_split(ids, k=2, seed=0, stratify_by={"c1_000": 1})
