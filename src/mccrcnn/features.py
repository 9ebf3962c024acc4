"""Feature construction: embedding matrices, opcode/API fusion, n-grams.

A token sequence becomes a fixed-size T x k float64 matrix by embedding
lookup, truncating to the head and zero-padding at the tail; tokens
missing from the table map to zero rows.  Fusion concatenates the opcode
matrix and the API matrix column-wise (opcode columns first), giving
T x 2m.  The n-gram path selects the ``limit`` most frequent contiguous
n-grams of a corpus and represents a sequence either as a count vector
(classic-ML baselines) or as a per-position gram-id sequence (sequence
models).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat

import numpy as np

from .embedding import EmbeddingTable
from .errors import PipelineError
from .extraction import SequenceKind, TokenSequence

log = logging.getLogger(__name__)


class Provenance(Enum):
    OPCODE_GLOVE = "opcode_glove"
    API_GLOVE = "api_glove"
    FUSED = "fused"


class ShapeMismatch(PipelineError):
    """Fusion inputs disagree on row count or column count."""


class IdMismatch(PipelineError):
    """Fusion inputs belong to different samples."""


class DuplicateId(PipelineError):
    """A sample id occurs more than once on the feature side of a join."""


class EmptyJoin(PipelineError):
    """No sample id is shared between features and labels."""


_KIND_TO_PROVENANCE = {
    SequenceKind.OPCODE: Provenance.OPCODE_GLOVE,
    SequenceKind.API: Provenance.API_GLOVE,
}


@dataclass(frozen=True)
class FeatureMatrix:
    sample_id: str
    values: np.ndarray  # (T, cols) float64
    provenance: Provenance

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


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


def sequence_to_matrix(seq: TokenSequence, table: EmbeddingTable, t: int = 512) -> FeatureMatrix:
    """Embed a sequence into a T x k matrix (truncate head / zero pad)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    # final vectors plus one trailing zero row that every OOV token reads
    vectors = np.vstack([table.w + table.w_ctx, np.zeros((1, table.k))])
    oov = len(vectors) - 1
    rows = [table._row.get(tok, oov) for tok in seq.tokens[:t]]
    out = np.zeros((t, table.k), dtype=np.float64)
    out[:len(rows)] = vectors[rows]
    return FeatureMatrix(
        sample_id=seq.sample_id, values=out,
        provenance=_KIND_TO_PROVENANCE[seq.kind],
    )


def fuse(opcode_m: FeatureMatrix, api_m: FeatureMatrix) -> FeatureMatrix:
    """Column-wise concatenation, opcode columns first."""
    if opcode_m.sample_id != api_m.sample_id:
        raise IdMismatch(f"{opcode_m.sample_id} vs {api_m.sample_id}")
    if opcode_m.rows != api_m.rows or opcode_m.cols != api_m.cols:
        raise ShapeMismatch(
            f"{opcode_m.sample_id}: {opcode_m.values.shape} vs {api_m.values.shape}"
        )
    return FeatureMatrix(
        sample_id=opcode_m.sample_id,
        values=np.hstack([opcode_m.values, api_m.values]),
        provenance=Provenance.FUSED,
    )


def _payload_id(item) -> str:
    if hasattr(item, "sample_id"):
        return item.sample_id
    return item[0]


def _payload_value(item):
    if hasattr(item, "sample_id"):
        return item
    return item[1]


def join_with_labels(features, labels: dict[str, int]) -> LabeledDataset:
    """Inner join of features and labels on sample id, sorted by id.

    ``features`` items are FeatureMatrix objects or (sample_id, payload)
    pairs.  Unmatched rows on either side are dropped with a warning.
    """
    seen: set[str] = set()
    by_id: dict[str, object] = {}
    for item in features:
        sid = _payload_id(item)
        if sid in seen:
            raise DuplicateId(f"duplicate sample id in features: {sid}")
        seen.add(sid)
        by_id[sid] = _payload_value(item)

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
