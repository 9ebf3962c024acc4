"""Token vocabulary, windowed co-occurrence counting, and GloVe training.

The trainer minimizes the weighted least-squares objective

    J = sum over nonzero X[i][j] of f(X[i][j]) * (w[i] . wt[j] + b[i] + bt[j] - ln X[i][j])^2
    f(x) = (x / x_max)^alpha  for x < x_max, else 1

with per-parameter AdaGrad updates (accumulators start at 1.0, so the
first step uses the raw learning rate) over seeded shuffled passes of the
nonzero co-occurrence entries.  Everything is float64 and fully
deterministic under a seed.  The final embedding of a token is the sum of
its center and context vectors.

The updates are sequential in the shuffled order, but they are applied
one dependency level at a time.  Entry (i, j) touches only center row i
and context row j, so its level is one more than the highest level of
any earlier entry that shares its i or its j.  Entries of one level share
no row, so they run as one gather -> compute -> scatter, and each reads
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

from .errors import PipelineError

log = logging.getLogger(__name__)


class EmptyVocabulary(PipelineError):
    """No token survived the frequency threshold."""


class DivergedLoss(PipelineError):
    """The training objective became non-finite."""


class ZeroVector(PipelineError):
    """Cosine similarity is undefined for an all-zero embedding."""


#: id 0 is reserved for padding and never assigned to a token
PAD_ID = 0

#: positions (tokens and the gaps between sequences) counted per
#: co-occurrence chunk; the temporaries scale with this times the window
COOC_CHUNK_TOKENS = 1024


@dataclass(frozen=True)
class Vocabulary:
    """Token ids assigned from 1 by descending frequency, ties lexicographic."""

    token_to_id: dict[str, int]
    counts: dict[str, int]
    min_count: int

    def __len__(self) -> int:
        return len(self.token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def ordered_tokens(self) -> tuple[str, ...]:
        """Tokens sorted by id (row order of the embedding table)."""
        return tuple(sorted(self.token_to_id, key=self.token_to_id.get))


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Sparse symmetric co-occurrence counts keyed by (id, id) pairs."""

    entries: dict[tuple[int, int], float]
    window: int
    vocab_size: int


@dataclass
class EmbeddingTable:
    """Trained GloVe parameters; row r holds the token with id r + 1."""

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

    def vector(self, token: str) -> np.ndarray:
        """Final embedding: center plus context vector."""
        r = self._row[token]
        return self.w[r] + self.w_ctx[r]


def build_vocab(corpus, min_count: int = 1) -> Vocabulary:
    """Count tokens across all sequences and assign ids.

    ``corpus`` is an iterable of TokenSequence (or anything with a
    ``tokens`` attribute).  Raises EmptyVocabulary when nothing survives
    min_count.
    """
    counts: Counter[str] = Counter()
    for seq in corpus:
        counts.update(seq.tokens)
    kept = {tok: c for tok, c in counts.items() if c >= min_count}
    if not kept:
        raise EmptyVocabulary(f"no token reached min_count={min_count}")
    ordered = sorted(kept, key=lambda tok: (-kept[tok], tok))
    token_to_id = {tok: i + 1 for i, tok in enumerate(ordered)}
    return Vocabulary(token_to_id=token_to_id, counts=kept, min_count=min_count)


def count_cooccurrence(corpus, vocab: Vocabulary, window: int = 8) -> CooccurrenceMatrix:
    """Windowed co-occurrence counts with 1/distance weighting.

    Out-of-vocabulary tokens occupy positions (distances are measured in
    the original sequence) but contribute no entries.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    base = len(vocab) + 1  # pair key i * base + j for ids i <= j in 1..|V|
    get_id = vocab.token_to_id.get
    gap = np.zeros(window, dtype=np.int64)  # no pair spans a gap, nor two sequences
    keys = np.zeros(0, dtype=np.int64)
    sums = np.zeros(0, dtype=np.float64)
    chunk, size = [], 0
    for seq in corpus:
        toks = seq.tokens
        chunk += [np.fromiter(map(get_id, toks, repeat(PAD_ID)), np.int64, len(toks)), gap]
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


def _weight(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    return np.where(x < x_max, (x / x_max) ** alpha, 1.0)


def _entry_arrays(cooc: CooccurrenceMatrix):
    items = sorted(cooc.entries.items())
    ii = np.array([i - 1 for (i, _j), _v in items], dtype=np.intp)
    jj = np.array([j - 1 for (_i, j), _v in items], dtype=np.intp)
    xs = np.array([v for _k, v in items], dtype=np.float64)
    return ii, jj, xs


def glove_loss(cooc: CooccurrenceMatrix, table: EmbeddingTable,
               x_max: float = 100.0, alpha: float = 0.75) -> float:
    """Exact objective J for the given parameters."""
    ii, jj, xs = _entry_arrays(cooc)
    diff = (
        np.einsum("nk,nk->n", table.w[ii], table.w_ctx[jj])
        + table.b[ii] + table.b_ctx[jj] - np.log(xs)
    )
    return float(np.sum(_weight(xs, x_max, alpha) * diff * diff))


def glove_gradients(cooc: CooccurrenceMatrix, table: EmbeddingTable,
                    x_max: float = 100.0, alpha: float = 0.75):
    """Analytic gradient of J with respect to all four parameter tensors.

    Returns a dict with keys "w", "w_ctx", "b", "b_ctx" shaped like the
    corresponding table arrays.
    """
    ii, jj, xs = _entry_arrays(cooc)
    diff = (
        np.einsum("nk,nk->n", table.w[ii], table.w_ctx[jj])
        + table.b[ii] + table.b_ctx[jj] - np.log(xs)
    )
    coef = 2.0 * _weight(xs, x_max, alpha) * diff
    dw = np.zeros_like(table.w)
    dw_ctx = np.zeros_like(table.w_ctx)
    db = np.zeros_like(table.b)
    db_ctx = np.zeros_like(table.b_ctx)
    np.add.at(dw, ii, coef[:, None] * table.w_ctx[jj])
    np.add.at(dw_ctx, jj, coef[:, None] * table.w[ii])
    np.add.at(db, ii, coef)
    np.add.at(db_ctx, jj, coef)
    return {"w": dw, "w_ctx": dw_ctx, "b": db, "b_ctx": db_ctx}


def train_glove(cooc: CooccurrenceMatrix, vocab: Vocabulary, k: int,
                epochs: int = 50, learning_rate: float = 0.05,
                x_max: float = 100.0, alpha: float = 0.75,
                seed: int = 0) -> tuple[EmbeddingTable, list[float]]:
    """Train embeddings by per-entry AdaGrad on shuffled nonzero entries.

    Each epoch draws a permutation and runs its entries level by level
    (see the module docstring): an entry's level is one past the last
    level of an earlier entry with the same center or context row, and a
    level updates all its entries at once.  The tables and the losses are
    bit-identical to applying the entries one at a time in permutation
    order.

    Returns the table and the loss history: element 0 is J at
    initialization, element e is J after epoch e.  Raises DivergedLoss if
    J ever becomes non-finite.
    """
    if not cooc.entries:
        raise ValueError("co-occurrence matrix has no entries")
    if cooc.vocab_size != len(vocab):
        raise ValueError("vocabulary size does not match co-occurrence matrix")
    n = cooc.vocab_size
    rng = np.random.default_rng(seed)
    span = 0.5 / k
    w = rng.uniform(-span, span, size=(n, k))
    w_ctx = rng.uniform(-span, span, size=(n, k))
    b = rng.uniform(-span, span, size=n)
    b_ctx = rng.uniform(-span, span, size=n)
    acc_w = np.ones_like(w)
    acc_wc = np.ones_like(w_ctx)
    acc_b = np.ones_like(b)
    acc_bc = np.ones_like(b_ctx)

    ii, jj, xs = _entry_arrays(cooc)
    logx = np.log(xs)
    fx = _weight(xs, x_max, alpha)
    tokens = vocab.ordered_tokens()

    def current_loss() -> float:
        diff = np.einsum("nk,nk->n", w[ii], w_ctx[jj]) + b[ii] + b_ctx[jj] - logx
        return float(np.sum(fx * diff * diff))

    i_list, j_list = ii.tolist(), jj.tolist()
    losses = [current_loss()]
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
        for lo, hi in zip(bounds, bounds[1:]):
            t = order[lo:hi]
            i, j = ii[t], jj[t]
            wi, wj = w[i], w_ctx[j]
            # one (1, k) @ (k, 1) per entry is the BLAS dot of wi @ wj;
            # einsum or a row sum would add the k terms in another order
            dot = (wi[:, None, :] @ wj[:, :, None])[:, 0, 0]
            diff = dot + b[i] + b_ctx[j] - logx[t]
            coef = 2.0 * fx[t] * diff
            gw = coef[:, None] * wj
            gwc = coef[:, None] * wi
            w[i] = wi - learning_rate * gw / np.sqrt(acc_w[i])
            w_ctx[j] = wj - learning_rate * gwc / np.sqrt(acc_wc[j])
            b[i] -= learning_rate * coef / np.sqrt(acc_b[i])
            b_ctx[j] -= learning_rate * coef / np.sqrt(acc_bc[j])
            acc_w[i] += gw * gw
            acc_wc[j] += gwc * gwc
            acc_b[i] += coef * coef
            acc_bc[j] += coef * coef
        j_epoch = current_loss()
        if not np.isfinite(j_epoch):
            raise DivergedLoss(f"objective became non-finite at epoch {epoch + 1}")
        losses.append(j_epoch)
        log.debug("glove epoch %d: J=%.6f", epoch + 1, j_epoch)

    table = EmbeddingTable(tokens=tokens, w=w, w_ctx=w_ctx, b=b, b_ctx=b_ctx)
    return table, losses


def cosine_similarity(table: EmbeddingTable, token_a: str, token_b: str) -> float:
    """Cosine of the final vectors of two in-vocabulary tokens."""
    for tok in (token_a, token_b):
        if tok not in table:
            raise KeyError(f"token not in embedding table: {tok!r}")
    va, vb = table.vector(token_a), table.vector(token_b)
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero embedding")
    return float(va @ vb / (na * nb))


def write_text_embeddings(path, table: EmbeddingTable) -> None:
    """Classic text export: header `|V| k`, then one `token v1..vk` row each.

    Rows hold the final (center + context) vectors printed with repr(),
    so every float parses back to the same bits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.tokens)} {table.k}\n")
        for tok in table.tokens:
            vec = table.vector(tok)
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
