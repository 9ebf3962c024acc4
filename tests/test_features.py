"""Feature matrices, labelled datasets, and n-gram featurizers."""

from collections import Counter

import numpy as np
import pytest

from mccrcnn import features
from mccrcnn.embedding import EmbeddingTable
from mccrcnn.errors import ShapeMismatch
from mccrcnn.extraction import TokenSequence
from mccrcnn.features import (
    LabeledDataset,
    NgramFeatureSet,
    fuse,
    ngram_id_sequence,
    ngram_vector,
    onehot_matrix,
    select_ngram_features,
    sequence_to_matrix,
)
from mccrcnn.harness.experiments import matrix_fn


def table_for(tokens, k=3, scale=1.0):
    n = len(tokens)
    w = np.arange(n * k, dtype=np.float64).reshape(n, k) * scale
    return EmbeddingTable(
        tokens=tuple(tokens), w=w, w_ctx=np.zeros((n, k)),
        b=np.zeros(n), b_ctx=np.zeros(n),
    )


def seq(tokens, sid="s1"):
    return TokenSequence(sid, tuple(tokens))


# --------------------------------------------------------- embed to matrix

def test_matrix_pads_short_sequences_with_zero_rows():
    t = table_for(["mov", "push"])
    m = sequence_to_matrix(seq(["push", "mov"]), t, t=5)
    assert m.shape == (5, 3) and m.dtype == np.float64
    assert np.array_equal(m[0], t.vectors(["push"])[0])
    assert np.array_equal(m[1], t.vectors(["mov"])[0])
    assert not m[2:].any()


def test_matrix_truncates_long_sequences_at_the_head():
    t = table_for(["a", "b", "c"])
    m = sequence_to_matrix(seq(["a", "b", "c", "a"]), t, t=2)
    assert m.shape == (2, 3)
    assert np.array_equal(m[1], t.vectors(["b"])[0])


def test_matrix_unknown_tokens_become_zero_rows():
    # two tokens: the rows of a one-token table center to zero
    t = table_for(["mov", "push"])
    m = sequence_to_matrix(seq(["mov", "mystery", "push"]), t, t=3)
    assert m[0].any() and m[2].any()
    assert not m[1].any()


def test_matrix_matches_per_token_vectors():
    rng = np.random.default_rng(8)
    toks = ["mov", "push", "pop", "xor"]
    k = 4
    table = EmbeddingTable(
        tokens=tuple(toks), w=rng.normal(size=(4, k)), w_ctx=rng.normal(size=(4, k)),
        b=np.zeros(4), b_ctx=np.zeros(4),
    )
    pool = toks + ["mystery", "nop"]
    cases = [[], ["mystery", "nop", "mystery"]]  # empty and all-OOV
    cases += [[pool[int(i)] for i in rng.integers(6, size=int(rng.integers(1, 12)))]
              for _ in range(20)]
    for tokens in cases:
        for t in (1, 3, 8, 15):  # shorter and longer than the sequence
            got = sequence_to_matrix(seq(tokens), table, t=t)
            want = np.zeros((t, k))
            for pos, tok in enumerate(tokens[:t]):
                if tok in table:
                    want[pos] = table.vectors([tok])[0]
            assert np.array_equal(got, want), (tokens, t)


def test_matrix_rejects_zero_length():
    with pytest.raises(ValueError):
        sequence_to_matrix(seq(["mov"]), table_for(["mov"]), t=0)


def test_matrix_fn_equals_sequence_to_matrix_and_fuse():
    """matrix_fn reads each table's final rows once and gathers from
    them; every layer's matrix is the per-stream sequence_to_matrix,
    fused, bit for bit."""
    rng = np.random.default_rng(21)
    k = 4

    def random_table(tokens):
        n = len(tokens)
        return EmbeddingTable(tokens=tuple(tokens), w=rng.normal(size=(n, k)),
                              w_ctx=rng.normal(size=(n, k)), b=np.zeros(n), b_ctx=np.zeros(n))

    def random_seq(pool):
        return seq([pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(1, 12)))])

    ops, apis = ["mov", "push", "pop", "xor"], ["Sleep", "ReadFile", "WriteFile"]
    pairs = [(random_table(ops), random_table(apis)),
             (random_table(["mov"]), random_table(apis)),  # one-token tables
             (random_table(ops), random_table(["Sleep"]))]
    for op_table, api_table in pairs:
        # empty, all out of the table, then random mixes with OOV tokens
        payloads = [(seq([]), seq([])), (seq(["mystery", "nop"]), seq(["Unknown"]))]
        payloads += [(random_seq(ops + ["mystery", "nop"]), random_seq(apis + ["Unknown"]))
                     for _ in range(20)]
        for t in (1, 3, 8, 15):  # shorter and longer than the sequences
            fns = {which: matrix_fn(which, op_table, api_table, t)
                   for which in ("opcode", "api", "fused")}
            for payload in payloads:
                om = sequence_to_matrix(payload[0], op_table, t)
                am = sequence_to_matrix(payload[1], api_table, t)
                for which, want in (("opcode", om), ("api", am), ("fused", fuse(om, am))):
                    got = fns[which](payload)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.array_equal(got, want), (which, payload, t)
                    assert got.tobytes() == want.tobytes(), (which, payload, t)
    # the one-layer functions need only their own table
    assert matrix_fn("api", None, api_table, 3)(payloads[-1]).shape == (3, k)
    with pytest.raises(ShapeMismatch):
        matrix_fn("fused", table_for(["a"], k=2), table_for(["x"], k=3), 2)


# ------------------------------------------------------------------ fusion

def test_fuse_puts_opcode_columns_first():
    top = table_for(["a"], k=2, scale=1.0)
    tap = table_for(["x"], k=2, scale=10.0)
    om = sequence_to_matrix(seq(["a"]), top, t=2)
    am = sequence_to_matrix(seq(["x"]), tap, t=2)
    f = fuse(om, am)
    assert f.shape == (2, 4)
    assert np.array_equal(f[:, :2], om)
    assert np.array_equal(f[:, 2:], am)


def test_fuse_rejects_mismatched_shapes():
    t = table_for(["a"], k=2)
    a = sequence_to_matrix(seq(["a"]), t, t=2)
    longer = sequence_to_matrix(seq(["a"]), t, t=3)
    wider = sequence_to_matrix(seq(["a"]), table_for(["a"], k=3), t=2)
    for other in (longer, wider):
        with pytest.raises(ShapeMismatch):
            fuse(a, other)


# ------------------------------------------------------- labelled dataset
# Which samples are in and with which label is decided by ingest and
# prepare_dataset (tests/test_harness.py); label values by read_labels.

def test_labeled_dataset_subset_keeps_l():
    ds = LabeledDataset(records=(("s1", "anything", 1), ("s2", 42, 4)), l=4)
    sub = ds.subset(["s1"])
    assert sub.ids() == ["s1"] and sub.payloads() == ["anything"] and sub.labels() == [1]
    assert sub.l == 4 and len(sub) == 1


# ----------------------------------------------------------------- n-grams

def test_ngram_selection_orders_by_count_then_gram(monkeypatch):
    corpus = [seq(["b", "a", "b", "a", "b"])]  # bigrams: (b,a) x2, (a,b) x2
    fs = select_ngram_features(corpus, n=2)
    assert tuple(fs.grams) == (("a", "b"), ("b", "a"))
    monkeypatch.setattr(features, "NGRAM_LIMIT", 1)
    fs1 = select_ngram_features(corpus, n=2)
    assert tuple(fs1.grams) == (("a", "b"),)
    with pytest.raises(ValueError):
        select_ngram_features(corpus, n=0)


def test_ngram_vector_counts_every_window_when_all_selected():
    corpus = [seq(["a", "b", "a", "b", "c"])]
    fs = select_ngram_features(corpus, n=2)
    vec = ngram_vector(corpus[0], fs)
    assert vec.dtype == np.int64
    assert vec.sum() == len(corpus[0].tokens) - 2 + 1
    idx = fs.grams
    assert vec[idx[("a", "b")]] == 2
    assert vec[idx[("b", "c")]] == 1


def test_ngram_vector_ignores_unselected_grams():
    fs = select_ngram_features([seq(["a", "a", "a"])], n=1)
    vec = ngram_vector(seq(["a", "z", "a"]), fs)
    assert vec.tolist() == [2]


def test_ngram_id_sequence_ranks_and_pads():
    corpus = [seq(["a", "b", "a", "b", "a"])]  # (a,b) x2 beats (b,a) x2 on name
    fs = select_ngram_features(corpus, n=2)
    ids = ngram_id_sequence(seq(["a", "b", "a", "z"]), fs, t=6)
    # positions: (a,b)=rank0 -> 1, (b,a)=rank1 -> 2, (a,z) unselected -> 0,
    # position 3 has no full bigram, positions 4..5 are padding
    assert ids.tolist() == [1, 2, 0, 0, 0, 0]
    assert ngram_id_sequence(seq(["a", "b", "a"]), fs, t=1).tolist() == [1]


def test_ngram_index_is_rank_of_each_gram():
    fs = select_ngram_features([seq(["a", "b", "c", "a", "b"])], n=2)
    assert fs.grams == {g: r for r, g in enumerate(fs.grams)}
    assert fs == select_ngram_features([seq(["a", "b", "c", "a", "b"])], n=2)


def test_ngram_vector_and_ids_match_naive_recount(monkeypatch):
    rng = np.random.default_rng(4)
    alphabet = ["a", "b", "c", "d", "e"]
    for trial in range(30):
        corpus = [seq([alphabet[int(i)] for i in rng.integers(5, size=int(rng.integers(0, 25)))])
                  for _ in range(4)]
        n = int(rng.integers(1, 4))
        monkeypatch.setattr(features, "NGRAM_LIMIT", int(rng.integers(1, 12)))
        fs = select_ngram_features(corpus, n=n)
        for s in corpus:
            grams = [tuple(s.tokens[p:p + n]) for p in range(len(s.tokens) - n + 1)]
            want = [sum(g == sel for g in grams) for sel in fs.grams]
            assert ngram_vector(s, fs).tolist() == want, trial
            t = 10
            ids = [fs.grams[g] + 1 if g in fs.grams else 0 for g in grams[:t]]
            assert ngram_id_sequence(s, fs, t).tolist() == ids + [0] * (t - len(ids)), trial


# ----------------------------- exactness of the integer-id n-gram counting

def reference_select_ngram_features(corpus, n, limit=700):
    """Frozen tuple-Counter selection: what select_ngram_features must equal."""
    counts = Counter()
    for s in corpus:
        toks = s.tokens
        for i in range(len(toks) - n + 1):
            counts[tuple(toks[i:i + n])] += 1
    ordered = sorted(counts, key=lambda g: (-counts[g], g))
    return NgramFeatureSet(n=n, grams={g: r for r, g in enumerate(ordered[:limit])})


def reference_ngram_vector(s, feature_set):
    """Frozen per-position lookup loop: what ngram_vector must equal."""
    idx = feature_set.grams
    out = np.zeros(len(feature_set.grams), dtype=np.int64)
    toks = s.tokens
    n = feature_set.n
    for i in range(len(toks) - n + 1):
        j = idx.get(tuple(toks[i:i + n]))
        if j is not None:
            out[j] += 1
    return out


def ngram_corpora():
    """Random corpora plus the edge cases, each with held-out sequences."""
    rng = np.random.default_rng(17)
    corpora = [
        [],
        [seq([]), seq(["a"]), seq([])],  # empty and shorter than most n
        [seq(["a"] * 30), seq(["a", "a"])],  # |V| = 1
        [seq(["b", "a"] * 6), seq(["a", "b"] * 6)],  # every n-gram count tied
        [seq(["é", "Z", "a", "10", "9", "a b", ""])],  # code-point order, odd tokens
    ]
    for _ in range(25):
        nv = int(rng.integers(1, 30))
        corpora.append([
            seq([f"t{int(nv * rng.random() ** 2)}" for _ in range(int(rng.integers(0, 60)))])
            for _ in range(int(rng.integers(1, 7)))
        ])
    # held-out sequences carry grams and tokens the selection never saw
    held_out = [seq([]), seq(["a"]), seq(["oov", "a", "a", "t0", "t1", "t0", "t1", "oov"])]
    return [(corpus, corpus + held_out) for corpus in corpora]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ngram_selection_and_vectors_match_tuple_counting(n, monkeypatch):
    for corpus, apply_to in ngram_corpora():
        distinct = len(reference_select_ngram_features(corpus, n, limit=10**9).grams)
        for limit in sorted({1, 3, max(1, distinct - 1), max(1, distinct), distinct + 5}):
            monkeypatch.setattr(features, "NGRAM_LIMIT", limit)
            got = select_ngram_features(corpus, n)
            want = reference_select_ngram_features(corpus, n, limit)
            assert got == want and tuple(got.grams) == tuple(want.grams), (n, limit)
            for s in apply_to:
                vec = ngram_vector(s, got)
                assert vec.dtype == np.int64
                assert np.array_equal(vec, reference_ngram_vector(s, want)), (n, limit)


def test_ngram_selection_accepts_a_one_shot_iterable():
    corpus = [seq(["a", "b", "a", "c"]), seq(["c", "a", "b"])]
    assert select_ngram_features(iter(corpus), 2) == select_ngram_features(corpus, 2)


def test_onehot_rows():
    m = onehot_matrix(np.array([2, 0, 1]), dim=3)
    assert m.shape == (3, 3)
    assert m[0].tolist() == [0.0, 1.0, 0.0]
    assert not m[1].any()
    assert m[2].tolist() == [1.0, 0.0, 0.0]
