"""Feature construction: embedding matrices, opcode/API fusion, n-grams.

A token sequence becomes a fixed-size T x k float64 matrix by embedding
lookup, truncating to the head and zero-padding at the tail; tokens
missing from the table map to zero rows.  Fusion concatenates the opcode
matrix and the API matrix column-wise (opcode columns first), giving
T x 2k.  Matrices are plain numpy arrays.  The n-gram path selects the
``limit`` most frequent contiguous n-grams of a corpus and represents a
sequence either as a count vector (classic-ML baselines) or as a
per-position gram-id sequence (sequence models).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .embedding import EmbeddingTable
from .errors import PipelineError
from .extraction import TokenSequence

log = logging.getLogger(__name__)


class ShapeMismatch(PipelineError):
    """Two matrices, or a matrix and a model, disagree in shape."""


class DuplicateId(PipelineError):
    """A sample id occurs more than once on the feature side of a join."""


class EmptyJoin(PipelineError):
    """No sample id is shared between features and labels."""


@dataclass(frozen=True)
class NgramFeatureSet:
    """The selected grams of one fitted n-gram featurizer, in rank order."""

    n: int
    grams: tuple[tuple[str, ...], ...]
    limit: int
    _index: dict[tuple[str, ...], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(self.grams)})

    def index(self) -> dict[tuple[str, ...], int]:
        """Gram -> rank, built once per feature set."""
        return self._index


@dataclass(frozen=True)
class LabeledDataset:
    """Joined (sample_id, payload, label) records sorted by sample id.

    Labels are integers 1..l; ``l`` is the largest label seen at join
    time and is preserved by subset().
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


def sequence_to_matrix(seq: TokenSequence, table: EmbeddingTable, t: int = 512) -> np.ndarray:
    """Embed a sequence into a (t, k) float64 matrix (truncate head / zero pad)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    # final vectors plus one trailing zero row that every OOV token reads
    vectors = np.vstack([table.w + table.w_ctx, np.zeros((1, table.k))])
    oov = len(vectors) - 1
    rows = [table._row.get(tok, oov) for tok in seq.tokens[:t]]
    out = np.zeros((t, table.k), dtype=np.float64)
    out[:len(rows)] = vectors[rows]
    return out


def fuse(opcode_m: np.ndarray, api_m: np.ndarray) -> np.ndarray:
    """Column-wise concatenation, opcode columns first."""
    if opcode_m.shape != api_m.shape:
        raise ShapeMismatch(f"opcode matrix {opcode_m.shape} vs api matrix {api_m.shape}")
    return np.hstack([opcode_m, api_m])


def join_with_labels(features, labels: dict[str, int]) -> LabeledDataset:
    """Inner join of (sample_id, payload) pairs and labels on id, sorted by id.

    Unmatched rows on either side are dropped and logged.
    """
    by_id: dict[str, object] = {}
    for sid, payload in features:
        if sid in by_id:
            raise DuplicateId(f"duplicate sample id in features: {sid}")
        by_id[sid] = payload

    for sid, y in labels.items():
        if not isinstance(y, int) or isinstance(y, bool) or y < 1:
            raise ValueError(f"label for {sid} must be an integer >= 1, got {y!r}")

    matched = sorted(set(by_id) & set(labels))
    for sid in sorted(set(by_id) - set(labels)):
        log.warning("sample %s has features but no label, dropped", sid)
    for sid in sorted(set(labels) - set(by_id)):
        log.warning("sample %s has a label but no features, dropped", sid)
    if not matched:
        raise EmptyJoin("no sample id shared between features and labels")

    records = tuple((sid, by_id[sid], labels[sid]) for sid in matched)
    return LabeledDataset(records=records, l=max(labels[sid] for sid in matched))


def select_ngram_features(corpus, n: int, limit: int = 700) -> NgramFeatureSet:
    """Pick the ``limit`` most frequent contiguous n-grams of the corpus.

    Ties break lexicographically on the gram tuple, so selection is
    deterministic.

    Grams are counted as integer keys.  A token's key is its rank in
    sorted order, and an m-gram's key is the rank of the pair (key of
    its (m-1)-gram prefix, key of its last token), so keys sort exactly
    as the gram tuples do and never exceed the number of positions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
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
    top = np.argsort(-counts, kind="stable")[:limit]  # count ties stay in gram order
    grams = tuple(tuple(vocab[r] for r in ids[p:p + n].tolist())
                  for p in starts[first[top]].tolist())
    return NgramFeatureSet(n=n, grams=grams, limit=limit)


def ngram_vector(seq: TokenSequence, feature_set: NgramFeatureSet) -> np.ndarray:
    """Raw count vector over the selected grams (int64)."""
    size = len(feature_set.grams)
    toks = seq.tokens
    grams = zip(*(toks[i:] for i in range(feature_set.n)))
    # unselected grams count in one extra slot that is cut off
    hits = np.fromiter(map(feature_set.index().get, grams, repeat(size)), dtype=np.int64)
    return np.bincount(hits, minlength=size + 1)[:size]


def ngram_id_sequence(seq: TokenSequence, feature_set: NgramFeatureSet, t: int) -> np.ndarray:
    """Per-position gram ids for sequence models.

    Position p maps to 1 + rank of the gram starting at p, or 0 when that
    gram was not selected (or p is past the end).  Truncated/padded to t.
    """
    idx = feature_set.index()
    out = np.zeros(t, dtype=np.int64)
    toks = seq.tokens
    n = feature_set.n
    for p in range(min(t, max(0, len(toks) - n + 1))):
        j = idx.get(tuple(toks[p:p + n]))
        if j is not None:
            out[p] = j + 1
    return out


def onehot_matrix(ids: np.ndarray, dim: int) -> np.ndarray:
    """Expand a gram-id sequence to one-hot rows; id 0 gives a zero row."""
    out = np.zeros((len(ids), dim), dtype=np.float64)
    pos = np.nonzero(ids)[0]
    out[pos, ids[pos] - 1] = 1.0
    return out
