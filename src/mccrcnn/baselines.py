"""Classic-ML baselines on count and embedding feature vectors.

All four models are small, deterministic numpy implementations:
multinomial logistic regression (full-batch gradient descent on mean
cross-entropy), multinomial naive Bayes with Laplace smoothing, K nearest
neighbours with explicit tie-breaking, and a one-vs-rest linear SVM
trained by subgradient descent on hinge loss plus L2.  Logistic, SVM and
KNN expect standardized inputs (fit the Standardizer on training folds
only); naive Bayes consumes raw non-negative counts.  Their settings are
the fixed constants below.  Every trainer takes the class count l from
its caller, so a training split that lacks its top class still builds an
l-class model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, EmptyTrainSet, ShapeMismatch
from .neural import cross_entropy, softmax_rows

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# floats one block of the KNN screen may hold: 8 MB
_SCREEN_ENTRIES = 1 << 20

#: logistic regression: gradient-descent step and epochs
LOGISTIC_STEP = 0.5
LOGISTIC_EPOCHS = 200
#: naive Bayes: Laplace smoothing
NB_ALPHA = 1.0
#: KNN: neighbours that vote
KNN_NEIGHBORS = 5
#: linear SVM: subgradient step, epochs and the hinge weight C
SVM_STEP = 0.01
SVM_EPOCHS = 200
SVM_C = 1.0


def _of_width(x, width: int, what: str = "x") -> np.ndarray:
    """``x`` as a float64 (n, width) array; ShapeMismatch for any other shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeMismatch(f"{what} of shape {x.shape}, training rows have {width} columns")
    return x


def _finite_rows(x, width: int, what: str = "x") -> np.ndarray:
    """As _of_width, and ValueError when an entry is not finite."""
    x = _of_width(x, width, what)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


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
        return (_of_width(x, len(self.mean)) - self.mean) / self.scale


@dataclass
class LinearModel:
    """Shared container for logistic and SVM: one weight row per class.

    ``scores`` and ``predict`` take finite (n, d) rows: ValueError for a
    non-finite entry, ShapeMismatch for another width.
    """

    weights: np.ndarray  # (l, d)
    biases: np.ndarray   # (l,)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return _finite_rows(x, self.weights.shape[1]) @ self.weights.T + self.biases

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.scores(x).argmax(axis=1) + 1


@dataclass
class NaiveBayesModel:
    """``predict`` takes finite (n, d) rows, as LinearModel's does."""

    log_priors: np.ndarray     # (l,)
    log_likelihood: np.ndarray  # (l, d)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = _finite_rows(x, self.log_likelihood.shape[1])
        scores = x @ self.log_likelihood.T + self.log_priors
        return scores.argmax(axis=1) + 1


def _check_xy(x, y, l):
    """Checked float rows and int labels; labels lie in 1..l, or are >= 1
    when l is None (knn_predict needs no class count)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d array")
    if len(x) == 0:
        raise EmptyTrainSet("no training rows")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if len(x) != len(y):
        raise ValueError("x and y length mismatch")
    if y.min() < 1:
        raise ValueError("labels must be >= 1")
    if l is not None and y.max() > l:
        raise ValueError(f"labels must lie in 1..{l}")
    return x, y


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


def train_logistic(x, y, l: int):
    """Multinomial logistic regression by full-batch gradient descent.

    Weights start at zero (the untrained model predicts the uniform
    distribution), so runs are deterministic.  Returns (model, per-epoch
    loss history).
    """
    x, y = _check_xy(x, y, l)
    return _descend(logistic_loss_and_grad, (x, y - 1), (l, x.shape[1]),
                    LOGISTIC_STEP, LOGISTIC_EPOCHS, "logistic loss")


def train_nb(x, y, l: int) -> NaiveBayesModel:
    """Multinomial naive Bayes with Laplace smoothing on raw counts."""
    x, y = _check_xy(x, y, l)
    if (x < 0).any():
        raise ValueError("naive Bayes needs non-negative counts")
    d = x.shape[1]
    log_priors = np.zeros(l)
    log_likelihood = np.zeros((l, d))
    n = len(x)
    for c in range(l):
        rows = x[y == c + 1]
        # empty classes keep a -inf prior and never win argmax
        log_priors[c] = np.log(len(rows) / n) if len(rows) else -np.inf
        totals = rows.sum(axis=0) if len(rows) else np.zeros(d)
        log_likelihood[c] = np.log((totals + NB_ALPHA) / (totals.sum() + NB_ALPHA * d))
    return NaiveBayesModel(log_priors=log_priors, log_likelihood=log_likelihood)


def _knn_candidates(train_x, queries, k):
    """For each query, the training rows that may lie among its k nearest,
    in index order, with their exact Euclidean distances.

    The caller has checked that both arrays are finite and equally wide and
    that 1 <= k <= len(train_x).  See knn_predict for the screen and band.
    """
    d = train_x.shape[1]
    with np.errstate(over="ignore"):
        train_sq = np.einsum("ij,ij->i", train_x, train_x)
        query_sq = np.einsum("ij,ij->i", queries, queries)
        if not np.isfinite(4.0 * (train_sq.max() + np.max(query_sq, initial=0.0))):
            raise ValueError("squared row norms overflow or come within a factor 4 of it")
    band = 4 * (d + 6) * _EPS * (query_sq + train_sq.max() + 2 * _TINY)
    rows = max(1, _SCREEN_ENTRIES // len(train_x))
    for lo in range(0, len(queries), rows):
        block = queries[lo:lo + rows]
        screen = query_sq[lo:lo + rows, None] + train_sq - 2.0 * (block @ train_x.T)
        limits = np.partition(screen, k - 1, axis=1)[:, k - 1] + band[lo:lo + rows]
        for q, row, limit in zip(block, screen, limits):
            cand = np.flatnonzero(row <= limit)
            yield cand, np.sqrt(((train_x[cand] - q) ** 2).sum(axis=1))


def knn_predict(train_x, train_y, queries) -> np.ndarray:
    """Euclidean KNN_NEIGHBORS nearest neighbours with deterministic tie handling.

    Neighbour ranking ties break on training index; vote ties go to the
    class with the smallest mean distance among its voting neighbours,
    then to the lowest class id.  Raises ShapeMismatch when the queries
    are not as wide as the training rows, and ValueError on non-finite
    input or on squared row norms that come within a factor 4 of
    overflow.

    The distance of a query q to row t is, as it always was,
    ``sqrt(sum((t - q) ** 2))``, but it is taken only for the rows a
    screen keeps.  The screen is one product per block of queries:
    ``A = |q|^2 + |t|^2 - 2 q.t``, whose k-th smallest entry per query is
    ``A_k``.  Every row with ``A <= A_k + band`` is kept, where, with
    ``eps`` the float64 machine epsilon, ``u = eps / 2``,
    ``gamma_n = n u / (1 - n u)`` and ``tiny`` the smallest normal float,

        band = 4 (d + 6) eps (|q|^2 + max_t |t|^2 + 2 tiny).

    Then every row whose exact distance is at most the k-th smallest
    exact distance is kept, so the neighbours, their tie order and the
    vote's mean distances are bit for bit those of the distances taken
    over all rows.  The argument, with S the true squared distance and
    N = |q|^2 + |t|^2 (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3: a d-term dot product or sum of squares is within
    gamma_d of the sum of its absolute terms, in any order and with or
    without fused multiply-adds):

    1. Screen: both squared norms carry gamma_d, their sum one rounding
       more, the product 2 q.t is within gamma_d N, and the subtraction
       adds one rounding of a value at most 2 N, so
       ``|A - S| <= 2 gamma_{d+2} N``.
    2. Exact formula: each term is rounded three times (difference,
       square) and the d-term sum adds d - 1, so the computed sum s is
       ``S (1 + theta)`` with ``|theta| <= gamma_{d+2}``.
    3. sqrt is correctly rounded and monotone, so sqrt(s_i) <= sqrt(s_m)
       in floating point means ``s_i <= (1 + gamma_4) s_m``: either
       s_i <= s_m, or both round to one value r and both lie in
       [r^2 / (1 + u)^2, r^2 / (1 - u)^2], whose ends differ by a factor
       below 1 + gamma_4.
    4. Let row i have exact distance at most the k-th.  At least k rows
       have ``A <= A_k`` and at least n - k + 1 rows have exact distance
       at least the k-th, so some row m has both.  By 2 and 3,
       ``S_i <= (1 + gamma_4)(1 + gamma_{d+2}) / (1 - gamma_{d+2}) S_m
       <= (1 + gamma_{2d+8}) S_m``, and by 1 and ``S_m <= 2 N_m``,
       ``A_i <= A_m + (4 gamma_{d+2} + 2 gamma_{2d+8}) N_max
       <= A_k + 4 gamma_{2d+8} N_max`` with N_max = |q|^2 + max_t |t|^2,
       where ``4 gamma_{2d+8} = 4 (d + 4) eps / (1 - (d + 4) eps)``.
    5. The band's 4 (d + 6) eps leaves 16 u N_max beyond that for the
       roundings of the norms, of the band and of ``A_k + band``, which
       cost at most 2 u N_max plus terms of order d^2 u^2 N_max; that
       holds while d stays below 10^7.  The ``2 tiny`` term covers
       gradual underflow: at rows i and m, the screen's 3 d products
       (q.t counting twice) and the exact formula's d squares may each
       lose up to half the smallest subnormal, 5 d subnormals in all,
       and the term adds 8 (d + 6) of them.

    The factor-4 overflow limit keeps every sum in the screen and the
    band finite.  Worst case: if every row ties, every row is kept and
    the cost is that of the full distances; the result is never wrong.
    The screen holds at most ``_SCREEN_ENTRIES`` floats at once.
    """
    train_x, train_y = _check_xy(train_x, train_y, None)
    queries = _finite_rows(np.atleast_2d(queries), train_x.shape[1], "queries")
    k = min(KNN_NEIGHBORS, len(train_x))
    out = np.zeros(len(queries), dtype=np.int64)
    for qi, (cand, dist) in enumerate(_knn_candidates(train_x, queries, k)):
        order = np.argsort(dist, kind="stable")[:k]
        votes: dict[int, list[float]] = {}
        for j in order:
            votes.setdefault(int(train_y[cand[j]]), []).append(float(dist[j]))
        best = max(votes.values(), key=len)
        tied = [c for c, ds in votes.items() if len(ds) == len(best)]
        if len(tied) > 1:
            tied.sort(key=lambda c: (float(np.mean(votes[c])), c))
        out[qi] = tied[0]
    return out


def svm_loss_and_grad(weights, biases, x, targets):
    """0.5 ||W||^2 + SVM_C mean one-vs-rest hinge and its subgradient; targets is (n, l) of ±1."""
    slack = 1.0 - targets * (x @ weights.T + biases)
    loss = float(0.5 * (weights ** 2).sum() + SVM_C * np.maximum(0.0, slack).sum(axis=1).mean())
    coef = np.where(slack > 0.0, -targets, 0.0) * (SVM_C / len(x))  # hinge subgradient support
    return loss, weights + coef.T @ x, coef.sum(axis=0)


def train_svm(x, y, l: int):
    """One-vs-rest linear SVM by full-batch subgradient descent.

    With SVM_C = 0 only the L2 term remains and the weights shrink toward
    zero.  Returns (model, per-epoch objective history).
    """
    x, y = _check_xy(x, y, l)
    targets = np.where((np.arange(l) + 1)[None, :] == y[:, None], 1.0, -1.0)
    return _descend(svm_loss_and_grad, (x, targets), (l, x.shape[1]),
                    SVM_STEP, SVM_EPOCHS, "SVM objective")
