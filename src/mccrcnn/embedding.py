"""Token vocabulary, windowed co-occurrence counting, and GloVe training.

The trainer minimizes the weighted least-squares objective

    J = sum over nonzero X[i][j] of f(X[i][j]) * (w[i] . wt[j] + b[i] + bt[j] - ln X[i][j])^2
    f(x) = (x / x_max)^alpha  for x < x_max, else 1

at GloVe's own weighting, x_max = GLOVE_X_MAX and alpha = GLOVE_ALPHA,
with per-parameter AdaGrad updates of step GLOVE_STEP (accumulators start
at 1.0, so the first step uses the raw step) over seeded shuffled passes
of the nonzero co-occurrence entries (Pennington, Socher & Manning 2014).
Everything is float64 and fully deterministic under a seed.  The final
embedding of a token is the sum of its center and context vectors,
centered over the vocabulary (``EmbeddingTable.vectors``).

The updates are sequential in the shuffled order, but they are applied
one dependency level at a time.  Entry (i, j) touches only center row i
and context row j, so its level is one more than the highest level of
any earlier entry that shares its i or its j.  The state is one packed
table: row r holds center token r as [w | b | acc_w | acc_b] and row
|V| + r its context side.  Entries of one level share no row, so a level
is one gather of its rows, one compute and one scatter, and each reads
exactly the state the one-entry-at-a-time loop would have given it.  The
arithmetic is the same element-wise IEEE operations in the same order,
and each dot product goes through the same BLAS routine, so the result
is bit for bit that of the one-entry loop.

Co-occurrence counting uses a symmetric window: tokens at positions p and
q of the same sequence with 0 < |p - q| <= window contribute 1/|p - q| to
both X[i][j] and X[j][i].  Both directions are accumulated back to back
per position pair, so the matrix is symmetric bit for bit, not just up to
rounding.  Zero entries are never stored.

The counts are taken on integer ids, a chunk of whole sequences at a
time, expanding at most COOC_CHUNK_TOKENS center positions at once, so
the temporaries stay bounded however long the corpus or a sequence is.  Each chunk adds its
increments in stream order into one running table, never as a chunk
subtotal, so every entry is the same sum of the same terms in the same
order as counting one pair at a time.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DivergedLoss, PipelineError

log = logging.getLogger(__name__)


class EmptyVocabulary(PipelineError):
    """The corpus holds no token."""


class EmptyCooccurrence(PipelineError):
    """No two tokens co-occur, so GloVe has nothing to fit."""


class ZeroVector(PipelineError):
    """Cosine similarity is undefined for an all-zero embedding."""


#: id 0 is reserved for padding and never assigned to a token
PAD_ID = 0

#: positions (tokens and the gaps between sequences) counted per
#: co-occurrence chunk; the temporaries scale with this times the window
COOC_CHUNK_TOKENS = 1024

#: passes over the co-occurrence entries, the default of train_glove and
#: of the ``[embedding] epochs`` config key
GLOVE_EPOCHS = 30
#: the weighting f(x) = min(1, (x / GLOVE_X_MAX) ** GLOVE_ALPHA) and the
#: AdaGrad step of train_glove, as in the GloVe paper
GLOVE_X_MAX = 100.0
GLOVE_ALPHA = 0.75
GLOVE_STEP = 0.05


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Sparse symmetric co-occurrence counts keyed by (id, id) pairs."""

    entries: dict[tuple[int, int], float]
    window: int
    vocab_size: int


@dataclass
class EmbeddingTable:
    """Trained GloVe parameters; row r holds the token with id r + 1, and
    ``vectors`` is the one read of final rows."""

    tokens: tuple[str, ...]
    w: np.ndarray        # center vectors, (|V|, k)
    w_ctx: np.ndarray    # context vectors, (|V|, k)
    b: np.ndarray        # center biases, (|V|,)
    b_ctx: np.ndarray    # context biases, (|V|,)
    _row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._row = {tok: r for r, tok in enumerate(self.tokens)}

    @property
    def k(self) -> int:
        return self.w.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self._row

    def vectors(self, tokens) -> np.ndarray:
        """Final embeddings of ``tokens`` as a (len(tokens), k) array, in
        order: center plus context vector less the mean of those sums over
        the table's tokens, which removes the offset GloVe gives them all
        (Mu & Viswanath 2018).  A token not in the table, and the token of
        a one-token table, reads a zero row."""
        n = len(self.tokens)
        final = np.zeros((n + 1, self.k))  # row n is the OOV row
        np.add(self.w, self.w_ctx, out=final[:n])
        final[:n] -= final[:n].sum(axis=0) / n
        return final[[self._row.get(tok, n) for tok in tokens]]


def build_vocab(corpus) -> dict[str, int]:
    """Count tokens across all sequences and assign ids; every token is kept.

    Returns {token: id} with ids from 1 by descending count, ties by
    name, inserted in id order.  ``corpus`` is an iterable of
    TokenSequence (or anything with a ``tokens`` attribute).  Raises
    EmptyVocabulary when it holds no token.
    """
    counts: Counter[str] = Counter()
    for seq in corpus:
        counts.update(seq.tokens)
    if not counts:
        raise EmptyVocabulary("no token in any sequence")
    ordered = sorted(counts, key=lambda tok: (-counts[tok], tok))
    return {tok: i + 1 for i, tok in enumerate(ordered)}


def count_cooccurrence(corpus, vocab: dict[str, int], window: int) -> CooccurrenceMatrix:
    """Windowed co-occurrence counts with 1/distance weighting.

    Out-of-vocabulary tokens occupy positions (distances are measured in
    the original sequence) but contribute no entries.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    base = len(vocab) + 1  # pair key i * base + j for ids i <= j in 1..|V|
    gap = np.zeros(window, dtype=np.int64)  # no pair spans a gap, nor two sequences
    keys = np.zeros(0, dtype=np.int64)
    sums = np.zeros(0, dtype=np.float64)
    chunk, size = [], 0
    for seq in corpus:
        toks = seq.tokens
        chunk += [np.fromiter(map(vocab.get, toks, repeat(PAD_ID)), np.int64, len(toks)), gap]
        size += len(toks) + window
        if size >= COOC_CHUNK_TOKENS:
            keys, sums = _add_pairs(keys, sums, np.concatenate(chunk), window, base)
            chunk, size = [], 0
    if chunk:
        keys, sums = _add_pairs(keys, sums, np.concatenate(chunk), window, base)
    lo, hi, sums = (keys // base).tolist(), (keys % base).tolist(), sums.tolist()
    entries = dict(zip(zip(lo, hi), sums))
    entries.update(zip(zip(hi, lo), sums))
    return CooccurrenceMatrix(entries=entries, window=window, vocab_size=len(vocab))


def _add_pairs(keys, sums, ids, window, base):
    """Add the pairs of one chunk of sequences to the sorted table (keys, sums).

    ``ids`` holds whole sequences, each followed by ``window`` PAD_IDs.
    The table holds X[i][j] for i <= j only: X[j][i] gets the same
    increments in the same order.  A pair of equal tokens adds its
    increment twice, back to back, as its two directions do.  Increments
    go in stream order (center position, then distance) straight into the
    running sums, so each entry is ((0.0 + a1) + a2) + ... exactly as
    when counting one pair at a time.  At most COOC_CHUNK_TOKENS centers
    are expanded at once, so one long sequence needs no more memory.
    """
    inc = 1.0 / np.arange(1, window + 1)
    for lo in range(0, len(ids) - window, COOC_CHUNK_TOKENS):
        a = ids[lo:lo + COOC_CHUNK_TOKENS + window]
        center = np.broadcast_to(a[:-window, None], (len(a) - window, window))
        other = np.lib.stride_tricks.sliding_window_view(a[1:], window)  # [p, d-1] = a[p+d]
        hit = (center != PAD_ID) & (other != PAD_ID)
        center, other = center[hit], other[hit]
        times = 1 + (center == other)
        pair_keys = np.repeat(np.minimum(center, other) * base + np.maximum(center, other), times)
        # return_index makes np.unique sort stably, the sort train_glove
        # already runs; its default sort alone maps ~0.6 MB more of numpy
        merged, _, where = np.unique(np.concatenate([keys, pair_keys]),
                                     return_index=True, return_inverse=True)
        total = np.zeros(len(merged))
        total[where[:len(keys)]] = sums
        np.add.at(total, where[len(keys):], np.repeat(np.broadcast_to(inc, hit.shape)[hit], times))
        keys, sums = merged, total
    return keys, sums


def _weight(x: np.ndarray) -> np.ndarray:
    return np.where(x < GLOVE_X_MAX, (x / GLOVE_X_MAX) ** GLOVE_ALPHA, 1.0)


def _entry_arrays(cooc: CooccurrenceMatrix):
    items = sorted(cooc.entries.items())
    ii = np.array([i - 1 for (i, _j), _v in items], dtype=np.intp)
    jj = np.array([j - 1 for (_i, j), _v in items], dtype=np.intp)
    xs = np.array([v for _k, v in items], dtype=np.float64)
    return ii, jj, xs


def _objective(w, w_ctx, b, b_ctx, ii, jj, logx, fx) -> float:
    """J = Σ f(X_ij) (w[i]·w̃[j] + b[i] + b̃[j] − ln X_ij)² over the nonzero entries."""
    diff = np.einsum("nk,nk->n", w[ii], w_ctx[jj]) + b[ii] + b_ctx[jj] - logx
    return float(np.sum(fx * diff * diff))


def glove_loss(cooc: CooccurrenceMatrix, table: EmbeddingTable) -> float:
    """Exact objective J for the given parameters."""
    ii, jj, xs = _entry_arrays(cooc)
    return _objective(table.w, table.w_ctx, table.b, table.b_ctx, ii, jj, np.log(xs), _weight(xs))


def _entry_gradients(pair, fx2, logx) -> np.ndarray:
    """Gradients of f(x) (w[i]·w̃[j] + b[i] + b̃[j] − ln x)² for each entry's rows.

    pair is (n, 2, k + 1), center row [w | b] then context row [w̃ | b̃]; fx2 is 2 f(x).
    """
    # one (1, k) @ (k, 1) per entry is the BLAS dot of w[i] @ w_ctx[j];
    # einsum or a row sum would add the k terms in another order
    dot = (pair[:, 0, None, :-1] @ pair[:, 1, :-1, None])[:, 0, 0]
    coef = fx2 * (dot + pair[:, 0, -1] + pair[:, 1, -1] - logx)
    # the center row's gradient is coef w_ctx[j], the context row's coef w[i]
    g = coef[:, None, None] * pair[:, ::-1]
    g[:, :, -1] = coef[:, None]
    return g


def glove_gradients(cooc: CooccurrenceMatrix, table: EmbeddingTable):
    """Analytic gradient of J: the sum of the entry gradients train_glove applies.

    Returns a dict with keys "w", "w_ctx", "b", "b_ctx" shaped like the
    corresponding table arrays.
    """
    ii, jj, xs = _entry_arrays(cooc)
    n, k = table.w.shape
    packed = np.column_stack([np.vstack([table.w, table.w_ctx]), np.r_[table.b, table.b_ctx]])
    rows = np.stack([ii, jj + n], axis=1)  # as in train_glove: n + j is context row j
    g = _entry_gradients(packed[rows], 2.0 * _weight(xs), np.log(xs))
    grad = np.zeros_like(packed)
    np.add.at(grad, rows, g)
    return {"w": grad[:n, :k], "w_ctx": grad[n:, :k], "b": grad[:n, k], "b_ctx": grad[n:, k]}


def train_glove(cooc: CooccurrenceMatrix, vocab: dict[str, int], k: int,
                epochs: int = GLOVE_EPOCHS, seed: int = 0) -> tuple[EmbeddingTable, list[float]]:
    """Train embeddings by per-entry AdaGrad on shuffled nonzero entries.

    Each epoch draws a permutation and runs its entries level by level
    (see the module docstring): an entry's level is one past the last
    level of an earlier entry with the same center or context row, and a
    level updates the packed rows of all its entries at once.  The tables
    and the losses are bit-identical to applying the entries one at a
    time in permutation order.

    Returns the table, copied out of the packed state, and the loss
    history: element 0 is J at initialization, element e is J after epoch
    e.  Raises EmptyCooccurrence when the matrix has no entry and
    DivergedLoss if J ever becomes non-finite.
    """
    if not cooc.entries:
        raise EmptyCooccurrence(f"no two tokens lie within {cooc.window} positions of "
                                "each other, so GloVe has nothing to fit")
    if cooc.vocab_size != len(vocab):
        raise ValueError("vocabulary size does not match co-occurrence matrix")
    if k < 1 or epochs < 0:
        raise ValueError(f"need k >= 1 and epochs >= 0, got k={k}, epochs={epochs}")
    n = cooc.vocab_size
    rng = np.random.default_rng(seed)
    span = 0.5 / k
    # row r is center token r as [w | b | acc_w | acc_b], row n + r its context row
    state = np.ones((2 * n, 2 * (k + 1)))
    w, w_ctx, b, b_ctx = state[:n, :k], state[n:, :k], state[:n, k], state[n:, k]
    w[:] = rng.uniform(-span, span, size=(n, k))
    w_ctx[:] = rng.uniform(-span, span, size=(n, k))
    b[:] = rng.uniform(-span, span, size=n)
    b_ctx[:] = rng.uniform(-span, span, size=n)

    ii, jj, xs = _entry_arrays(cooc)
    logx = np.log(xs)
    fx = _weight(xs)
    rows = np.stack([ii, jj + n], axis=1)
    i_list, j_list = ii.tolist(), jj.tolist()
    losses = [_objective(w, w_ctx, b, b_ctx, ii, jj, logx, fx)]
    for epoch in range(epochs):
        perm = rng.permutation(len(xs))
        # level of an entry: one past the last level that touched its rows
        last_i, last_j = [0] * n, [0] * n
        levels = []
        for t in perm.tolist():
            i, j = i_list[t], j_list[t]
            lv = max(last_i[i], last_j[j]) + 1
            last_i[i] = last_j[j] = lv
            levels.append(lv)
        order = perm[np.argsort(levels, kind="stable")]
        bounds = np.cumsum(np.bincount(levels)).tolist()
        # doubling is exact, so (2 fx) diff has the bits of 2 fx diff
        rid, logx_o, fx2_o = rows[order].ravel(), logx[order], 2.0 * fx[order]
        for lo, hi in zip(bounds, bounds[1:]):
            flat = state[rid[2 * lo:2 * hi]]
            pair = flat.reshape(hi - lo, 2, 2 * (k + 1))  # [:, 0] center, [:, 1] context
            g = _entry_gradients(pair[..., :k + 1], fx2_o[lo:hi], logx_o[lo:hi])
            pair[..., :k + 1] -= GLOVE_STEP * g / np.sqrt(pair[..., k + 1:])
            pair[..., k + 1:] += g * g
            state[rid[2 * lo:2 * hi]] = flat
        j_epoch = _objective(w, w_ctx, b, b_ctx, ii, jj, logx, fx)
        if not np.isfinite(j_epoch):
            raise DivergedLoss(f"objective became non-finite at epoch {epoch + 1}")
        losses.append(j_epoch)
        log.debug("glove epoch %d: J=%.6f", epoch + 1, j_epoch)

    tokens = tuple(sorted(vocab, key=vocab.get))  # row r is the token with id r + 1
    table = EmbeddingTable(tokens, *(a.copy() for a in (w, w_ctx, b, b_ctx)))
    return table, losses


def cosine_similarity(table: EmbeddingTable, token_a: str, token_b: str) -> float:
    """Cosine of the final vectors of two in-vocabulary tokens."""
    for tok in (token_a, token_b):
        if tok not in table:
            raise KeyError(f"token not in embedding table: {tok!r}")
    va, vb = table.vectors([token_a, token_b])
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero embedding")
    return float(va @ vb / (na * nb))


def write_text_embeddings(path, table: EmbeddingTable) -> None:
    """Classic text export: header `|V| k`, then one `token v1..vk` row each.

    Rows hold the final vectors (center + context, centered over the
    vocabulary) printed with repr(), so every float parses back to the
    same bits.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.tokens)} {table.k}\n")
        for tok, vec in zip(table.tokens, table.vectors(table.tokens)):
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
