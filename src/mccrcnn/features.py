"""Feature construction: embedding matrices, opcode/API fusion, n-grams.

A token sequence becomes a fixed-size T x k float64 matrix by embedding
lookup, truncating to the head and zero-padding at the tail; tokens
missing from the table map to zero rows.  Fusion concatenates the opcode
matrix and the API matrix column-wise (opcode columns first), giving
T x 2k.  Matrices are plain numpy arrays.  The n-gram path selects the
NGRAM_LIMIT (700) most frequent contiguous n-grams of a corpus and
represents a sequence either as a count vector (classic-ML baselines) or
as a per-position gram-id sequence (sequence models).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .embedding import EmbeddingTable
from .errors import PipelineError, ShapeMismatch
from .extraction import TokenSequence

#: grams kept per n by select_ngram_features
NGRAM_LIMIT = 700


@dataclass(frozen=True)
class NgramFeatureSet:
    """The selected grams of one fitted n-gram featurizer: gram -> rank,
    inserted in rank order."""

    n: int
    grams: dict[tuple[str, ...], int]


@dataclass(frozen=True)
class LabeledDataset:
    """(sample_id, payload, label) records sorted by sample id.

    Labels are integers 1..l; ``l`` is the largest label among the
    records it was built from and is preserved by subset().
    """

    records: tuple[tuple[str, object, int], ...]
    l: int

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [sid for sid, _p, _y in self.records]

    def labels(self) -> list[int]:
        return [y for _s, _p, y in self.records]

    def payloads(self) -> list:
        return [p for _s, p, _y in self.records]

    def subset(self, ids) -> "LabeledDataset":
        wanted = set(ids)
        kept = tuple(r for r in self.records if r[0] in wanted)
        return LabeledDataset(records=kept, l=self.l)


def _zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """np.zeros, raising PipelineError when a seq_len makes it too large."""
    try:
        return np.zeros(shape, dtype=dtype)
    except (MemoryError, ValueError) as exc:  # numpy: past memory / past intp
        raise PipelineError(f"cannot allocate an array of shape {shape}: "
                            f"seq_len {shape[0]} is too large") from exc


def sequence_to_matrix(seq: TokenSequence, table: EmbeddingTable, t: int) -> np.ndarray:
    """Embed a sequence into a (t, k) float64 matrix (truncate head / zero pad)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    rows = table.vectors(seq.tokens[:t])
    out = _zeros((t, table.k), np.float64)
    out[:len(rows)] = rows
    return out


def fuse(opcode_m: np.ndarray, api_m: np.ndarray) -> np.ndarray:
    """Column-wise concatenation, opcode columns first."""
    if opcode_m.shape != api_m.shape:
        raise ShapeMismatch(f"opcode matrix {opcode_m.shape} vs api matrix {api_m.shape}")
    return np.hstack([opcode_m, api_m])


def select_ngram_features(corpus, n: int) -> NgramFeatureSet:
    """Pick the NGRAM_LIMIT most frequent contiguous n-grams of the corpus.

    Ties break lexicographically on the gram tuple, so selection is
    deterministic.

    Grams are counted as integer keys.  A token's key is its rank in
    sorted order, and an m-gram's key is the rank of the pair (key of
    its (m-1)-gram prefix, key of its last token), so keys sort exactly
    as the gram tuples do and never exceed the number of positions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seqs = [seq.tokens for seq in corpus]
    vocab = sorted(set(chain.from_iterable(seqs)))
    rank = {tok: r for r, tok in enumerate(vocab)}
    lengths = np.array([len(toks) for toks in seqs], dtype=np.int64)
    total = int(lengths.sum())
    ids = np.fromiter(map(rank.__getitem__, chain.from_iterable(seqs)), np.int64, total)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(total)  # tokens from p on
    starts = np.flatnonzero(left >= n)
    key = np.zeros(len(starts), dtype=np.int64)
    for m in range(n):
        _, first, key, counts = np.unique(
            key * len(vocab) + ids[starts + m],
            return_index=True, return_inverse=True, return_counts=True)
    top = np.argsort(-counts, kind="stable")[:NGRAM_LIMIT]  # count ties stay in gram order
    grams = {tuple(vocab[r] for r in ids[p:p + n].tolist()): rank
             for rank, p in enumerate(starts[first[top]].tolist())}
    return NgramFeatureSet(n=n, grams=grams)


def ngram_vector(seq: TokenSequence, feature_set: NgramFeatureSet) -> np.ndarray:
    """Raw count vector over the selected grams (int64)."""
    size = len(feature_set.grams)
    toks = seq.tokens
    grams = zip(*(toks[i:] for i in range(feature_set.n)))
    # unselected grams count in one extra slot that is cut off
    hits = np.fromiter(map(feature_set.grams.get, grams, repeat(size)), dtype=np.int64)
    return np.bincount(hits, minlength=size + 1)[:size]


def ngram_id_sequence(seq: TokenSequence, feature_set: NgramFeatureSet, t: int) -> np.ndarray:
    """Per-position gram ids for sequence models.

    Position p maps to 1 + rank of the gram starting at p, or 0 when that
    gram was not selected (or p is past the end).  Truncated/padded to t.
    """
    out = _zeros((t,), np.int64)
    grams = islice(zip(*(seq.tokens[i:] for i in range(feature_set.n))), t)
    # unselected grams get rank -1, so id 0
    ids = np.fromiter(map(feature_set.grams.get, grams, repeat(-1)), dtype=np.int64) + 1
    out[:len(ids)] = ids
    return out


def onehot_matrix(ids: np.ndarray, dim: int) -> np.ndarray:
    """Expand a gram-id sequence to one-hot rows; id 0 gives a zero row."""
    out = _zeros((len(ids), dim), np.float64)
    pos = np.nonzero(ids)[0]
    out[pos, ids[pos] - 1] = 1.0
    return out
