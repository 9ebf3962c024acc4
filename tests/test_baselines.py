"""Logistic regression, naive Bayes, KNN, and linear SVM baselines."""

import math

import numpy as np
import pytest

from mccrcnn.baselines import (
    EmptyTrainSet,
    Standardizer,
    knn_predict,
    logistic_loss_and_grad,
    svm_objective,
    train_logistic,
    train_nb,
    train_svm,
)


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


def test_logistic_starts_at_uniform_and_learns():
    x, y = blobs(seed=1)
    x = Standardizer.fit(x).transform(x)
    model, losses = train_logistic(x, y, epochs=150)
    assert losses[0] == pytest.approx(math.log(3))  # zero weights, 3 classes
    assert losses[-1] < 0.2 * losses[0]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert (model.predict(x) == y).mean() >= 0.95


def test_logistic_is_deterministic():
    x, y = blobs(seed=5, per_class=8)
    m1, l1 = train_logistic(x, y, epochs=20)
    m2, l2 = train_logistic(x, y, epochs=20)
    assert l1 == l2
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.biases, m2.biases)


def test_logistic_respects_explicit_class_count():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    model, _ = train_logistic(x, np.array([1, 2]), l=4, epochs=5)
    assert model.weights.shape == (4, 2)
    with pytest.raises(ValueError):
        train_logistic(x, np.array([1, 5]), l=4)


# ------------------------------------------------------------- naive Bayes

def test_nb_matches_hand_computation():
    x = np.array([[2, 0, 1], [1, 1, 0], [0, 3, 0]], dtype=np.float64)
    y = np.array([1, 1, 2])
    model = train_nb(x, y, alpha=1.0)
    assert model.log_priors == pytest.approx([math.log(2 / 3), math.log(1 / 3)])
    # class 1 totals (3, 1, 1), sum 5, d = 3: (count + 1) / (5 + 3)
    assert model.log_likelihood[0] == pytest.approx(
        [math.log(4 / 8), math.log(2 / 8), math.log(2 / 8)]
    )
    # class 2 totals (0, 3, 0), sum 3
    assert model.log_likelihood[1] == pytest.approx(
        [math.log(1 / 6), math.log(4 / 6), math.log(1 / 6)]
    )


def test_nb_brute_force_oracle_random_counts():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n, d, l = int(rng.integers(4, 15)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
        x = rng.integers(0, 8, size=(n, d)).astype(np.float64)
        y = rng.integers(1, l + 1, size=n)
        y[:l] = np.arange(1, l + 1)  # every class occupied
        alpha = float(rng.uniform(0.5, 2.0))
        model = train_nb(x, y, l=l, alpha=alpha)
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
        train_nb(np.array([[1.0, -0.5]]), np.array([1]))


def test_nb_separates_blobby_counts():
    rng = np.random.default_rng(3)
    x1 = rng.poisson(lam=[8, 1, 1], size=(25, 3)).astype(np.float64)
    x2 = rng.poisson(lam=[1, 8, 1], size=(25, 3)).astype(np.float64)
    x = np.vstack([x1, x2])
    y = np.repeat([1, 2], 25)
    model = train_nb(x, y)
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


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 5))
        train_x = rng.integers(0, 4, size=(n, d)).astype(np.float64)  # many ties
        train_y = rng.integers(1, 4, size=n)
        queries = rng.integers(0, 4, size=(6, d)).astype(np.float64)
        k = int(rng.integers(1, 8))
        got = knn_predict(train_x, train_y, queries, k_neighbors=k)
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


def test_knn_argsort_ranking_matches_sorted_ranking_under_ties():
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
            got = knn_predict(train_x, train_y, queries, k_neighbors=k)
            assert got.tolist() == reference_knn_predict(train_x, train_y, queries, k), (trial, k)
        dist = np.sqrt(((train_x - queries[0]) ** 2).sum(axis=1))
        ties += len(dist) - len(np.unique(dist))
    assert ties > 100


def test_knn_vote_tie_breaks_on_mean_distance_then_class():
    # classes 1 and 2 each get one vote; class 2's neighbour is closer
    train_x = np.array([[0.0], [3.0]])
    train_y = np.array([1, 2])
    assert knn_predict(train_x, train_y, np.array([[2.0]]), k_neighbors=2)[0] == 2
    # equidistant vote tie falls back to the smaller class id
    assert knn_predict(train_x, train_y, np.array([[1.5]]), k_neighbors=2)[0] == 1


def test_knn_rank_tie_prefers_earlier_training_row():
    train_x = np.array([[1.0], [1.0], [5.0]])
    train_y = np.array([2, 1, 1])
    # both [1.0] rows are equidistant from the query; k=1 keeps index 0
    assert knn_predict(train_x, train_y, np.array([[1.0]]), k_neighbors=1)[0] == 2


def test_knn_k_larger_than_train_set_uses_all_rows():
    train_x = np.array([[0.0], [1.0], [2.0]])
    train_y = np.array([1, 1, 2])
    assert knn_predict(train_x, train_y, np.array([[2.0]]), k_neighbors=50)[0] == 1
    with pytest.raises(ValueError):
        knn_predict(train_x, train_y, np.array([[0.0]]), k_neighbors=0)


# --------------------------------------------------------------------- SVM

def test_svm_objective_at_zero_weights():
    x, y = blobs(seed=2, per_class=5, l=3, d=2)
    weights = np.zeros((3, 2))
    biases = np.zeros(3)
    # zero margins leave every hinge term at 1, one per class per sample
    assert svm_objective(weights, biases, x, y, c_reg=2.0) == pytest.approx(2.0 * 3)


def test_svm_history_recorded_before_each_update():
    x, y = blobs(seed=4, per_class=6, l=2, d=3)
    x = Standardizer.fit(x).transform(x)
    model, history = train_svm(x, y, epochs=40, learning_rate=0.05)
    assert history[0] == pytest.approx(1.0 * 2)  # untrained objective
    assert history[-1] < history[0]
    assert (model.predict(x) == y).mean() == 1.0


def test_svm_first_step_matches_hand_computation():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1, 2])
    model, _ = train_svm(x, y, epochs=1, learning_rate=0.1, c_reg=1.0)
    # all hinges active at zero weights: step = lr * (c/n) * targets.T @ x
    assert np.allclose(model.weights, [[0.05, -0.05], [-0.05, 0.05]], atol=1e-12)
    assert model.biases == pytest.approx([0.0, 0.0])


def test_svm_with_zero_penalty_stays_at_zero():
    x, y = blobs(seed=6, per_class=4, l=2, d=2)
    model, history = train_svm(x, y, epochs=10, c_reg=0.0)
    assert not model.weights.any() and not model.biases.any()
    assert history == [0.0] * 10


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


def test_empty_train_set_raises():
    with pytest.raises(EmptyTrainSet):
        train_logistic(np.zeros((0, 3)), np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        train_svm(np.zeros((2, 1)), np.array([1]))
