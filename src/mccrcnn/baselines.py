"""Classic-ML baselines on count and embedding feature vectors.

All four models are small, deterministic numpy implementations:
multinomial logistic regression (full-batch gradient descent on mean
cross-entropy), multinomial naive Bayes with Laplace smoothing, K nearest
neighbours with explicit tie-breaking, and a one-vs-rest linear SVM
trained by subgradient descent on hinge loss plus L2.  Logistic, SVM and
KNN expect standardized inputs (fit the Standardizer on training folds
only); naive Bayes consumes raw non-negative counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, EmptyTrainSet
from .neural import cross_entropy, softmax_rows


@dataclass
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        return cls(mean=mean, scale=scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.scale


@dataclass
class LinearModel:
    """Shared container for logistic and SVM: one weight row per class."""

    weights: np.ndarray  # (l, d)
    biases: np.ndarray   # (l,)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights.T + self.biases

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.scores(x).argmax(axis=1) + 1


@dataclass
class NaiveBayesModel:
    log_priors: np.ndarray     # (l,)
    log_likelihood: np.ndarray  # (l, d)

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = np.asarray(x, dtype=np.float64) @ self.log_likelihood.T + self.log_priors
        return scores.argmax(axis=1) + 1


def _check_xy(x, y, l=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d array")
    if len(x) == 0:
        raise EmptyTrainSet("no training rows")
    if len(x) != len(y):
        raise ValueError("x and y length mismatch")
    classes = int(y.max()) if l is None else l
    if y.min() < 1 or y.max() > classes:
        raise ValueError(f"labels must lie in 1..{classes}")
    return x, y, classes


def logistic_loss_and_grad(weights, biases, x, y_idx):
    """Mean cross-entropy and its gradient; y_idx is 0-based."""
    loss, d = cross_entropy(softmax_rows(x @ weights.T + biases), y_idx)
    return loss, d.T @ x, d.sum(axis=0)


def _descend(loss_and_grad, args, shape, learning_rate: float, epochs: int, what: str):
    """Full-batch descent on loss_and_grad(weights, biases, *args) from zero
    weights.  Returns (model, objective before each update); raises
    DivergedLoss when the objective is non-finite."""
    weights = np.zeros(shape)
    biases = np.zeros(shape[0])
    history = []
    for _ in range(epochs):
        loss, dw, db = loss_and_grad(weights, biases, *args)
        if not np.isfinite(loss):
            raise DivergedLoss(f"{what} became non-finite")
        history.append(loss)
        weights -= learning_rate * dw
        biases -= learning_rate * db
    return LinearModel(weights=weights, biases=biases), history


def train_logistic(x, y, l=None, learning_rate: float = 0.5, epochs: int = 200):
    """Multinomial logistic regression by full-batch gradient descent.

    Weights start at zero (the untrained model predicts the uniform
    distribution), so runs are deterministic.  Returns (model, per-epoch
    loss history).
    """
    x, y, classes = _check_xy(x, y, l)
    return _descend(logistic_loss_and_grad, (x, y - 1), (classes, x.shape[1]),
                    learning_rate, epochs, "logistic loss")


def train_nb(x, y, l=None, alpha: float = 1.0) -> NaiveBayesModel:
    """Multinomial naive Bayes with Laplace smoothing on raw counts."""
    x, y, classes = _check_xy(x, y, l)
    if (x < 0).any():
        raise ValueError("naive Bayes needs non-negative counts")
    d = x.shape[1]
    log_priors = np.zeros(classes)
    log_likelihood = np.zeros((classes, d))
    n = len(x)
    for c in range(classes):
        rows = x[y == c + 1]
        # empty classes keep a -inf prior and never win argmax
        log_priors[c] = np.log(len(rows) / n) if len(rows) else -np.inf
        totals = rows.sum(axis=0) if len(rows) else np.zeros(d)
        log_likelihood[c] = np.log((totals + alpha) / (totals.sum() + alpha * d))
    return NaiveBayesModel(log_priors=log_priors, log_likelihood=log_likelihood)


def knn_predict(train_x, train_y, queries, k_neighbors: int = 5) -> np.ndarray:
    """Euclidean K nearest neighbours with deterministic tie handling.

    Neighbour ranking ties break on training index; vote ties go to the
    class with the smallest mean distance among its voting neighbours,
    then to the lowest class id.
    """
    train_x, train_y, _ = _check_xy(train_x, train_y)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
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


def svm_loss_and_grad(weights, biases, x, targets, c_reg: float):
    """0.5 ||W||^2 + C mean one-vs-rest hinge and its subgradient; targets is (n, l) of ±1."""
    slack = 1.0 - targets * (x @ weights.T + biases)
    loss = float(0.5 * (weights ** 2).sum() + c_reg * np.maximum(0.0, slack).sum(axis=1).mean())
    coef = np.where(slack > 0.0, -targets, 0.0) * (c_reg / len(x))  # hinge subgradient support
    return loss, weights + coef.T @ x, coef.sum(axis=0)


def train_svm(x, y, l=None, learning_rate: float = 0.01, epochs: int = 200,
              c_reg: float = 1.0):
    """One-vs-rest linear SVM by full-batch subgradient descent.

    With c_reg = 0 only the L2 term remains and the weights shrink toward
    zero.  Returns (model, per-epoch objective history).
    """
    x, y, classes = _check_xy(x, y, l)
    targets = np.where((np.arange(classes) + 1)[None, :] == y[:, None], 1.0, -1.0)
    return _descend(svm_loss_and_grad, (x, targets, c_reg), (classes, x.shape[1]),
                    learning_rate, epochs, "SVM objective")
