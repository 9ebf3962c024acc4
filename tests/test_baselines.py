"""Logistic regression, naive Bayes, KNN, and linear SVM baselines."""

import math

import numpy as np
import pytest

from mccrcnn import baselines
from mccrcnn.baselines import (
    DivergedLoss,
    EmptyTrainSet,
    Standardizer,
    _knn_candidates,
    knn_predict,
    logistic_loss_and_grad,
    svm_loss_and_grad,
    train_logistic,
    train_nb,
    train_svm,
)
from mccrcnn.errors import ShapeMismatch


def set_constants(monkeypatch, **constants):
    """Give baseline settings the pipeline keeps fixed other values, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(baselines, name, value)


def blobs(seed=0, per_class=20, l=3, d=4, spread=0.4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(l, d))
    x = np.vstack([
        centers[c] + rng.normal(scale=spread, size=(per_class, d))
        for c in range(l)
    ])
    y = np.repeat(np.arange(1, l + 1), per_class)
    return x, y


# ---------------------------------------------------------------- logistic

def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 3))
    y_idx = rng.integers(0, 4, size=7)
    weights = rng.normal(scale=0.3, size=(4, 3))
    biases = rng.normal(scale=0.3, size=4)
    _, dw, db = logistic_loss_and_grad(weights, biases, x, y_idx)
    step = 1e-6
    for arr, grad in ((weights, dw), (biases, db)):
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + step
            up = logistic_loss_and_grad(weights, biases, x, y_idx)[0]
            arr.flat[idx] = orig - step
            down = logistic_loss_and_grad(weights, biases, x, y_idx)[0]
            arr.flat[idx] = orig
            numeric = (up - down) / (2 * step)
            assert abs(numeric - grad.flat[idx]) <= 1e-6, idx


def test_logistic_starts_at_uniform_and_learns(monkeypatch):
    set_constants(monkeypatch, LOGISTIC_EPOCHS=150)
    x, y = blobs(seed=1)
    x = Standardizer.fit(x).transform(x)
    model, losses = train_logistic(x, y, l=3)
    assert losses[0] == pytest.approx(math.log(3))  # zero weights, 3 classes
    assert losses[-1] < 0.2 * losses[0]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert (model.predict(x) == y).mean() >= 0.95


def test_logistic_is_deterministic(monkeypatch):
    set_constants(monkeypatch, LOGISTIC_EPOCHS=20)
    x, y = blobs(seed=5, per_class=8)
    m1, l1 = train_logistic(x, y, l=3)
    m2, l2 = train_logistic(x, y, l=3)
    assert l1 == l2
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.biases, m2.biases)


def test_logistic_respects_explicit_class_count(monkeypatch):
    set_constants(monkeypatch, LOGISTIC_EPOCHS=5)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    model, _ = train_logistic(x, np.array([1, 2]), l=4)
    assert model.weights.shape == (4, 2)
    with pytest.raises(ValueError):
        train_logistic(x, np.array([1, 5]), l=4)


def diverging_points():
    rng = np.random.default_rng(0)
    return rng.standard_normal((30, 4)), np.repeat([1, 2, 3], 10)


def test_logistic_diverges_with_absurd_rate(monkeypatch):
    set_constants(monkeypatch, LOGISTIC_STEP=1e6)
    x, y = diverging_points()
    with pytest.raises(DivergedLoss, match="logistic loss became non-finite"):
        with np.errstate(all="ignore"):
            train_logistic(x, y, l=3)


# ------------------------------------------------------------- naive Bayes

def test_nb_matches_hand_computation():
    x = np.array([[2, 0, 1], [1, 1, 0], [0, 3, 0]], dtype=np.float64)
    y = np.array([1, 1, 2])
    assert baselines.NB_ALPHA == 1.0
    model = train_nb(x, y, l=2)
    assert model.log_priors == pytest.approx([math.log(2 / 3), math.log(1 / 3)])
    # class 1 totals (3, 1, 1), sum 5, d = 3: (count + 1) / (5 + 3)
    assert model.log_likelihood[0] == pytest.approx(
        [math.log(4 / 8), math.log(2 / 8), math.log(2 / 8)]
    )
    # class 2 totals (0, 3, 0), sum 3
    assert model.log_likelihood[1] == pytest.approx(
        [math.log(1 / 6), math.log(4 / 6), math.log(1 / 6)]
    )


def test_nb_brute_force_oracle_random_counts(monkeypatch):
    rng = np.random.default_rng(7)
    for trial in range(20):
        n, d, l = int(rng.integers(4, 15)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
        x = rng.integers(0, 8, size=(n, d)).astype(np.float64)
        y = rng.integers(1, l + 1, size=n)
        y[:l] = np.arange(1, l + 1)  # every class occupied
        alpha = float(rng.uniform(0.5, 2.0))
        set_constants(monkeypatch, NB_ALPHA=alpha)
        model = train_nb(x, y, l=l)
        for c in range(l):
            rows = [x[i] for i in range(n) if y[i] == c + 1]
            assert model.log_priors[c] == pytest.approx(math.log(len(rows) / n))
            totals = [sum(r[j] for r in rows) for j in range(d)]
            for j in range(d):
                want = math.log((totals[j] + alpha) / (sum(totals) + alpha * d))
                assert model.log_likelihood[c, j] == pytest.approx(want), (trial, c, j)


def test_nb_empty_class_never_wins():
    x = np.array([[3.0, 0.0], [0.0, 3.0]])
    model = train_nb(x, np.array([1, 2]), l=3)
    assert model.log_priors[2] == -math.inf
    preds = model.predict(np.array([[5.0, 0.0], [0.0, 5.0], [1.0, 1.0]]))
    assert 3 not in preds


def test_nb_rejects_negative_counts():
    with pytest.raises(ValueError):
        train_nb(np.array([[1.0, -0.5]]), np.array([1]), l=1)


def test_nb_separates_blobby_counts():
    rng = np.random.default_rng(3)
    x1 = rng.poisson(lam=[8, 1, 1], size=(25, 3)).astype(np.float64)
    x2 = rng.poisson(lam=[1, 8, 1], size=(25, 3)).astype(np.float64)
    x = np.vstack([x1, x2])
    y = np.repeat([1, 2], 25)
    model = train_nb(x, y, l=2)
    assert (model.predict(x) == y).mean() >= 0.95


# --------------------------------------------------------------------- KNN

def knn_oracle(train_x, train_y, q, k):
    dist = [float(np.sqrt(((train_x[i] - q) ** 2).sum())) for i in range(len(train_x))]
    order = sorted(range(len(dist)), key=lambda i: (dist[i], i))[:k]
    votes = {}
    for i in order:
        votes.setdefault(int(train_y[i]), []).append(dist[i])
    top = max(len(v) for v in votes.values())
    tied = sorted(
        (c for c, v in votes.items() if len(v) == top),
        key=lambda c: (sum(votes[c]) / len(votes[c]), c),
    )
    return tied[0]


def test_knn_matches_brute_force_oracle(monkeypatch):
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 5))
        train_x = rng.integers(0, 4, size=(n, d)).astype(np.float64)  # many ties
        train_y = rng.integers(1, 4, size=n)
        queries = rng.integers(0, 4, size=(6, d)).astype(np.float64)
        k = int(rng.integers(1, 8))
        set_constants(monkeypatch, KNN_NEIGHBORS=k)
        got = knn_predict(train_x, train_y, queries)
        want = [knn_oracle(train_x, train_y, q, min(k, n)) for q in queries]
        assert got.tolist() == want, trial


def reference_knn_predict(train_x, train_y, queries, k_neighbors):
    """knn_predict as it ranked before argsort: sorted() on (distance, index)."""
    k = min(k_neighbors, len(train_x))
    out = []
    for q in np.atleast_2d(queries):
        dist = np.sqrt(((train_x - q) ** 2).sum(axis=1))
        order = sorted(range(len(dist)), key=lambda i: (dist[i], i))[:k]
        votes = {}
        for i in order:
            votes.setdefault(int(train_y[i]), []).append(float(dist[i]))
        best = max(votes.values(), key=len)
        tied = [c for c, ds in votes.items() if len(ds) == len(best)]
        if len(tied) > 1:
            tied.sort(key=lambda c: (float(np.mean(votes[c])), c))
        out.append(tied[0])
    return out


def test_knn_argsort_ranking_matches_sorted_ranking_under_ties(monkeypatch):
    # points on a small integer grid: many exactly equal distances, and
    # with two or three classes and even k, many vote ties
    rng = np.random.default_rng(5)
    ties = 0
    for trial in range(40):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 4))
        train_x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        train_y = rng.integers(1, int(rng.integers(2, 4)) + 1, size=n)
        queries = rng.integers(0, 3, size=(12, d)).astype(np.float64)
        for k in (1, 2, 4, 6, n + 3):
            set_constants(monkeypatch, KNN_NEIGHBORS=k)
            got = knn_predict(train_x, train_y, queries)
            assert got.tolist() == reference_knn_predict(train_x, train_y, queries, k), (trial, k)
        dist = np.sqrt(((train_x - queries[0]) ** 2).sum(axis=1))
        ties += len(dist) - len(np.unique(dist))
    assert ties > 100


def test_knn_vote_tie_breaks_on_mean_distance_then_class(monkeypatch):
    set_constants(monkeypatch, KNN_NEIGHBORS=2)
    # classes 1 and 2 each get one vote; class 2's neighbour is closer
    train_x = np.array([[0.0], [3.0]])
    train_y = np.array([1, 2])
    assert knn_predict(train_x, train_y, np.array([[2.0]]))[0] == 2
    # equidistant vote tie falls back to the smaller class id
    assert knn_predict(train_x, train_y, np.array([[1.5]]))[0] == 1


def test_knn_rank_tie_prefers_earlier_training_row(monkeypatch):
    set_constants(monkeypatch, KNN_NEIGHBORS=1)
    train_x = np.array([[1.0], [1.0], [5.0]])
    train_y = np.array([2, 1, 1])
    # both [1.0] rows are equidistant from the query; k=1 keeps index 0
    assert knn_predict(train_x, train_y, np.array([[1.0]]))[0] == 2


def test_knn_k_larger_than_train_set_uses_all_rows(monkeypatch):
    set_constants(monkeypatch, KNN_NEIGHBORS=50)
    train_x = np.array([[0.0], [1.0], [2.0]])
    train_y = np.array([1, 1, 2])
    assert knn_predict(train_x, train_y, np.array([[2.0]]))[0] == 1


def frozen_knn_predict(train_x, train_y, queries, k_neighbors=5):
    """knn_predict before its screen: each query's distance to every
    training row, a stable argsort and the vote."""
    k = min(k_neighbors, len(train_x))
    out = np.zeros(len(queries), dtype=np.int64)
    for qi, q in enumerate(queries):
        dist = np.sqrt(((train_x - q) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:k]
        votes: dict[int, list[float]] = {}
        for i in order:
            votes.setdefault(int(train_y[i]), []).append(float(dist[i]))
        best = max(votes.values(), key=len)
        tied = [c for c, ds in votes.items() if len(ds) == len(best)]
        if len(tied) > 1:
            tied.sort(key=lambda c: (float(np.mean(votes[c])), c))
        out[qi] = tied[0]
    return out


def standardized_counts(rng, n, d, queries):
    """Sparse n-gram-like counts with duplicated rows, standardized on the
    training rows as suite B2 does."""
    lam = rng.exponential(0.5, size=(3, d)) * (rng.random((3, d)) < 0.3)
    y = rng.integers(1, 4, size=n + queries)
    x = rng.poisson(lam[y - 1]).astype(np.float64)
    dup = rng.integers(0, n, size=n // 4)
    x[n - len(dup):n], y[n - len(dup):n] = x[dup], y[dup]
    std = Standardizer.fit(x[:n])
    return std.transform(x[:n]), y[:n], std.transform(x[n:])


def knn_cases(name, rng):
    """(train_x, train_y, queries, k) tuples for one kind of input."""
    if name == "grid":  # duplicate rows, equal distances, vote ties, k > n
        for _ in range(30):
            n, d = int(rng.integers(3, 40)), int(rng.integers(1, 5))
            x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
            y = rng.integers(1, int(rng.integers(2, 4)) + 1, size=n)
            q = rng.integers(0, 3, size=(10, d)).astype(np.float64)
            for k in (1, 2, 4, n + 3):
                yield x, y, q, k
    elif name == "one_column":
        for _ in range(10):
            n = int(rng.integers(2, 60))
            x = rng.normal(size=(n, 1)).round(1)
            yield x, rng.integers(1, 4, size=n), rng.normal(size=(20, 1)).round(1), 5
    elif name == "counts_700":
        for _ in range(3):
            x, y, q = standardized_counts(rng, 150, 700, 150)
            yield x, y, q, 5
    elif name == "query_is_row":  # true distance 0; the screen may read < 0
        for d in (29, 700):
            x, y, _ = standardized_counts(rng, 120, d, 0)
            yield x, y, x[rng.permutation(120)[:60]], 5
    elif name == "common_offset":  # the screen's expansion cancels most
        for d in (1, 3, 50):
            x = 1e4 + rng.integers(0, 3, size=(40, d)) * 0.1
            q = 1e4 + rng.integers(0, 3, size=(20, d)) * 0.1
            for k in (1, 3, 7):
                yield x, rng.integers(1, 4, size=40), q, k
    elif name == "subnormal":  # squared distances below the smallest normal
        for d in (1, 4):
            x = rng.integers(0, 9, size=(40, d)) * 3e-162
            q = rng.integers(0, 9, size=(20, d)) * 3e-162 + 1e-162
            for k in (1, 3):
                yield x, rng.integers(1, 4, size=40), q, k
    elif name == "no_queries":
        x, y, _ = standardized_counts(rng, 30, 12, 0)
        yield x, y, np.zeros((0, 12)), 5


@pytest.mark.parametrize("name", ["grid", "one_column", "counts_700", "query_is_row",
                                  "common_offset", "subnormal", "no_queries"])
def test_knn_screen_keeps_every_neighbour_of_the_full_distances(name, monkeypatch):
    """knn_predict ranks only the rows its product screen keeps; the kept
    rows must include every row the full distances rank within the k-th,
    with the same distance bits, so the predictions are the frozen copy's."""
    rng = np.random.default_rng(28)
    for train_x, train_y, queries, k in knn_cases(name, rng):
        set_constants(monkeypatch, KNN_NEIGHBORS=k)
        got = knn_predict(train_x, train_y, queries)
        assert got.tolist() == frozen_knn_predict(train_x, train_y, queries, k).tolist()
        k = min(k, len(train_x))
        for q, (cand, dist) in zip(queries, _knn_candidates(train_x, queries, k)):
            full = np.sqrt(((train_x - q) ** 2).sum(axis=1))
            assert (np.diff(cand) > 0).all()
            assert dist.tobytes() == full[cand].tobytes()
            within = np.flatnonzero(full <= np.sort(full)[k - 1])
            assert np.isin(within, cand).all(), (name, k)


def test_knn_screen_in_blocks_matches_frozen_copy(monkeypatch):
    """The screen takes at most _SCREEN_ENTRIES entries at a time; blocks
    of one query and of seven give the frozen copy's predictions."""
    rng = np.random.default_rng(29)
    x, y, q = standardized_counts(rng, 30, 12, 25)
    want = frozen_knn_predict(x, y, q, 3).tolist()
    set_constants(monkeypatch, KNN_NEIGHBORS=3)
    for entries in (1, 7 * 30):
        monkeypatch.setattr(baselines, "_SCREEN_ENTRIES", entries)
        assert knn_predict(x, y, q).tolist() == want

def test_knn_refuses_queries_of_another_width():
    train_x, train_y = np.zeros((4, 3)), np.array([1, 2, 1, 2])
    with pytest.raises(ShapeMismatch, match="3 columns"):
        knn_predict(train_x, train_y, np.zeros((2, 4)))


def test_knn_refuses_non_finite_queries_and_overflowing_norms():
    train_x, train_y = np.eye(3), np.array([1, 2, 3])
    with pytest.raises(ValueError, match="queries must be finite"):
        knn_predict(train_x, train_y, np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="overflow"):
        knn_predict(train_x * 1e200, train_y, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="overflow"):
        knn_predict(train_x, train_y, np.full((1, 3), 1e154))

# --------------------------------------------------------------------- SVM

def svm_targets(y, l):
    return np.where(np.arange(1, l + 1)[None, :] == y[:, None], 1.0, -1.0)


def test_svm_gradient_matches_finite_differences(monkeypatch):
    set_constants(monkeypatch, SVM_C=1.5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 3))
    targets = svm_targets(rng.integers(1, 5, size=7), 4)
    weights = rng.normal(size=(4, 3))
    biases = rng.normal(size=4)
    step = 1e-6
    # both sides of the hinge occur, and no term lies within a step of its kink
    slack = 1.0 - targets * (x @ weights.T + biases)
    assert (slack > 0).any() and (slack < 0).any()
    assert np.abs(slack).min() > 1e-3
    _, dw, db = svm_loss_and_grad(weights, biases, x, targets)
    for arr, grad in ((weights, dw), (biases, db)):
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + step
            up = svm_loss_and_grad(weights, biases, x, targets)[0]
            arr.flat[idx] = orig - step
            down = svm_loss_and_grad(weights, biases, x, targets)[0]
            arr.flat[idx] = orig
            numeric = (up - down) / (2 * step)
            assert abs(numeric - grad.flat[idx]) <= 1e-6, idx


def test_svm_objective_at_zero_weights(monkeypatch):
    set_constants(monkeypatch, SVM_C=2.0)
    x, y = blobs(seed=2, per_class=5, l=3, d=2)
    weights = np.zeros((3, 2))
    biases = np.zeros(3)
    # zero margins leave every hinge term at 1, one per class per sample
    loss = svm_loss_and_grad(weights, biases, x, svm_targets(y, 3))[0]
    assert loss == pytest.approx(2.0 * 3)


def test_svm_history_recorded_before_each_update(monkeypatch):
    set_constants(monkeypatch, SVM_EPOCHS=40, SVM_STEP=0.05)
    x, y = blobs(seed=4, per_class=6, l=2, d=3)
    x = Standardizer.fit(x).transform(x)
    model, history = train_svm(x, y, l=2)
    assert history[0] == pytest.approx(1.0 * 2)  # untrained objective
    assert history[-1] < history[0]
    assert (model.predict(x) == y).mean() == 1.0


def test_svm_first_step_matches_hand_computation(monkeypatch):
    set_constants(monkeypatch, SVM_EPOCHS=1, SVM_STEP=0.1)
    assert baselines.SVM_C == 1.0
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1, 2])
    model, _ = train_svm(x, y, l=2)
    # all hinges active at zero weights: step = lr * (c/n) * targets.T @ x
    assert np.allclose(model.weights, [[0.05, -0.05], [-0.05, 0.05]], atol=1e-12)
    assert model.biases == pytest.approx([0.0, 0.0])


def test_svm_with_zero_penalty_stays_at_zero(monkeypatch):
    set_constants(monkeypatch, SVM_EPOCHS=10, SVM_C=0.0)
    x, y = blobs(seed=6, per_class=4, l=2, d=2)
    model, history = train_svm(x, y, l=2)
    assert not model.weights.any() and not model.biases.any()
    assert history == [0.0] * 10


def test_svm_diverges_with_absurd_rate(monkeypatch):
    """The step overshoots until the objective overflows; this returned
    NaN weights that predict class 1 for every row."""
    set_constants(monkeypatch, SVM_STEP=5.0, SVM_EPOCHS=600)
    x, y = diverging_points()
    with pytest.raises(DivergedLoss, match="SVM objective became non-finite"):
        with np.errstate(all="ignore"):
            train_svm(x, y, l=3)


# ------------------------------------------------------------ standardizer

def test_standardizer_centers_and_scales():
    rng = np.random.default_rng(9)
    x = rng.normal(loc=5.0, scale=3.0, size=(40, 3))
    x[:, 2] = 7.0  # constant column
    s = Standardizer.fit(x)
    z = s.transform(x)
    assert z.mean(axis=0) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert z[:, :2].std(axis=0) == pytest.approx([1.0, 1.0])
    assert not z[:, 2].any()  # zero variance maps to zeros, not NaN
    # new data reuses the fitted statistics
    assert s.transform(np.array([[s.mean[0], s.mean[1], 7.0]]))[0] == pytest.approx(
        [0.0, 0.0, 0.0]
    )


def test_standardizer_refuses_rows_of_another_width():
    s = Standardizer.fit(np.arange(12.0).reshape(4, 3))
    for bad in (np.zeros((2, 4)), np.zeros((2, 2)), np.zeros(3)):
        with pytest.raises(ShapeMismatch, match="3 columns"):
            s.transform(bad)


@pytest.mark.parametrize("fit", [
    lambda x, y: train_logistic(x, y, l=2)[0],
    lambda x, y: train_svm(x, y, l=2)[0],
    lambda x, y: train_nb(x, y, l=2),
], ids=["logistic", "svm", "nb"])
def test_fitted_models_refuse_non_finite_and_wrong_width_rows(fit):
    """A NaN row used to get class 1 silently, and a row of another width
    numpy's bare matmul error."""
    x = np.array([[1.0, 2.0], [0.0, 3.0], [2.0, 0.0], [3.0, 1.0]])
    model = fit(x, np.array([1, 1, 2, 2]))
    calls = [model.predict] + ([model.scores] if hasattr(model, "scores") else [])
    for call in calls:
        assert call(x).shape[0] == 4
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                call(np.array([[0.0, 1.0], [bad, 0.0]]))
        for wrong in (np.zeros((1, 3)), np.zeros((1, 1)), np.zeros(2)):
            with pytest.raises(ShapeMismatch, match="2 columns"):
                call(wrong)


def test_empty_train_set_raises():
    with pytest.raises(EmptyTrainSet):
        train_logistic(np.zeros((0, 3)), np.array([], dtype=np.int64), l=3)
    with pytest.raises(ValueError):
        train_svm(np.zeros((2, 1)), np.array([1]), l=1)


@pytest.mark.parametrize("fit", [
    lambda x, y: train_logistic(x, y, l=2),
    lambda x, y: train_nb(x, y, l=2),
    lambda x, y: train_svm(x, y, l=2),
    lambda x, y: knn_predict(x, y, np.ones((1, 2))),
], ids=["logistic", "nb", "svm", "knn"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_rows_are_refused(fit, bad):
    x = np.array([[1.0, 2.0], [bad, 0.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="x must be finite"):
        fit(x, np.array([1, 2, 1]))
