"""Vocabulary, co-occurrence counting, and the GloVe trainer."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mccrcnn import embedding, neural
from mccrcnn.embedding import (
    PAD_ID,
    CooccurrenceMatrix,
    EmbeddingTable,
    EmptyCooccurrence,
    EmptyVocabulary,
    ZeroVector,
    build_vocab,
    cosine_similarity,
    count_cooccurrence,
    glove_gradients,
    glove_loss,
    train_glove,
    write_text_embeddings,
)
from mccrcnn.extraction import TokenSequence
from mccrcnn.harness import experiments
from mccrcnn.harness.config import (
    EmbeddingSettings,
    ExperimentConfig,
    ModelSettings,
    TrainSettings,
)
from mccrcnn.harness.synth import SyntheticCorpusSpec, generate_synthetic_corpus


def seqs(*token_lists):
    return [
        TokenSequence(f"s{i}", tuple(toks))
        for i, toks in enumerate(token_lists)
    ]


#: a weighting and step other than GloVe's, under which some entries of
#: the test corpora reach x_max, so the f = 1 branch is trained through too
OTHER_SETTINGS = {"GLOVE_X_MAX": 3.0, "GLOVE_ALPHA": 0.5, "GLOVE_STEP": 0.2}


def set_constants(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(embedding, name, value)


def zero_table(n, k):
    return EmbeddingTable(
        tokens=tuple(f"t{i}" for i in range(n)),
        w=np.zeros((n, k)), w_ctx=np.zeros((n, k)),
        b=np.zeros(n), b_ctx=np.zeros(n),
    )


# ------------------------------------------------------------- vocabulary

def test_vocab_ids_by_frequency_then_lexicographic():
    v = build_vocab(seqs(["b", "a", "b", "a", "c", "b", "a"]))
    assert v == {"a": 1, "b": 2, "c": 3}  # a ties b at 3, wins on name
    assert list(v) == ["a", "b", "c"]  # inserted in id order
    assert PAD_ID == 0 and 0 not in v.values()


def test_vocab_keeps_every_token_and_needs_one():
    v = build_vocab(seqs(["a", "a", "b"], ["c"]))
    assert v == {"a": 1, "b": 2, "c": 3}
    with pytest.raises(EmptyVocabulary, match="^no token"):
        build_vocab(seqs([], []))


# ---------------------------------------------------------- co-occurrence

def test_cooc_hand_example_window_one():
    v = build_vocab(seqs(["a", "b", "a"]))
    x = count_cooccurrence(seqs(["a", "b", "a"]), v, window=1)
    a, b = v["a"], v["b"]
    assert x.entries == {(a, b): 2.0, (b, a): 2.0}


def test_cooc_hand_example_window_two_adds_self_pair():
    v = build_vocab(seqs(["a", "b", "a"]))
    x = count_cooccurrence(seqs(["a", "b", "a"]), v, window=2)
    a, b = v["a"], v["b"]
    assert x.entries[(a, a)] == 1.0  # 0.5 from each direction of the (0,2) pair
    assert x.entries[(a, b)] == 2.0
    assert x.window == 2 and x.vocab_size == 2


def test_cooc_oov_tokens_keep_their_distance():
    corpus = seqs(["a", "x", "b"])
    v = {"a": 1, "b": 2}
    assert count_cooccurrence(corpus, v, window=1).entries == {}
    x2 = count_cooccurrence(corpus, v, window=2)
    assert x2.entries == {(1, 2): 0.5, (2, 1): 0.5}


def test_cooc_brute_force_oracle_random_corpora():
    rng = np.random.default_rng(11)
    alphabet = [f"t{i}" for i in range(12)]
    for trial in range(40):
        corpus = seqs(*[
            [alphabet[int(rng.integers(12))] for _ in range(int(rng.integers(1, 40)))]
            for _ in range(int(rng.integers(1, 6)))
        ])
        v = build_vocab(corpus)
        window = int(rng.integers(1, 9))
        got = count_cooccurrence(corpus, v, window=window).entries
        want: dict = {}
        for seq in corpus:
            ids = [v.get(t, PAD_ID) for t in seq.tokens]
            for p in range(len(ids)):
                for q in range(len(ids)):
                    d = abs(p - q)
                    if p != q and d <= window and ids[p] and ids[q]:
                        key = (ids[p], ids[q])
                        want[key] = want.get(key, 0.0) + 1.0 / d
        assert got.keys() == want.keys(), trial
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12), (trial, key)


def test_cooc_symmetry_is_bitwise():
    rng = np.random.default_rng(5)
    alphabet = [f"t{i}" for i in range(9)]
    for _ in range(20):
        corpus = seqs(*[
            [alphabet[int(rng.integers(9))] for _ in range(int(rng.integers(2, 60)))]
            for _ in range(int(rng.integers(1, 4)))
        ])
        v = build_vocab(corpus)
        x = count_cooccurrence(corpus, v, window=int(rng.integers(1, 6)))
        for (i, j), value in x.entries.items():
            assert x.entries[(j, i)] == value  # exact equality, no tolerance


# ------------------------------- exactness of the chunked integer counting

def reference_count_cooccurrence(corpus, vocab, window=8):
    """Frozen one-pair-at-a-time dict loop: what count_cooccurrence must equal."""
    entries = {}
    get_id = vocab.get
    for seq in corpus:
        ids = [get_id(tok, PAD_ID) for tok in seq.tokens]
        n = len(ids)
        for p in range(n):
            center = ids[p]
            if center == PAD_ID:
                continue
            for q in range(p + 1, min(n, p + window + 1)):
                other = ids[q]
                if other == PAD_ID:
                    continue
                inc = 1.0 / (q - p)
                key = (center, other)
                entries[key] = entries.get(key, 0.0) + inc
                key = (other, center)
                entries[key] = entries.get(key, 0.0) + inc
    return CooccurrenceMatrix(entries=entries, window=window, vocab_size=len(vocab))


def assert_same_counts(got, want):
    assert (got.window, got.vocab_size) == (want.window, want.vocab_size)
    assert sorted(got.entries) == sorted(want.entries)
    for key, value in want.entries.items():
        assert type(got.entries[key]) is float
        assert got.entries[key].hex() == value.hex(), key


def vocab_of_common(corpus, min_count):
    """build_vocab's ids over the tokens seen at least min_count times, so
    the rarer ones are out of the vocabulary; None when none is."""
    counts = Counter(tok for seq in corpus for tok in seq.tokens)
    kept = sorted((tok for tok, c in counts.items() if c >= min_count),
                  key=lambda tok: (-counts[tok], tok))
    return {tok: i + 1 for i, tok in enumerate(kept)} if kept else None


def cooc_cases():
    """(corpus, min_count, window): random corpora plus the edge cases;
    tokens seen fewer than min_count times are left out of the vocabulary."""
    rng = np.random.default_rng(31)
    cases = [
        (seqs([]), 1, 3),
        (seqs([], ["a"], [], ["b", "a"]), 1, 4),  # empty and shorter than the window
        (seqs(["a"] * 40, ["a", "a"]), 1, 5),  # |V| = 1: only self pairs
        (seqs(["a", "b", "c"], ["c", "b", "a", "a"]), 1, 12),
        (seqs(["a", "x", "b", "y", "a", "b"], ["x", "a", "a", "b"]), 2, 3),  # OOV x, y
    ]
    for _ in range(30):
        nv = int(rng.integers(1, 40))
        corpus = seqs(*[
            # a skewed draw, so some tokens fall under min_count and are OOV
            [f"t{int(nv * rng.random() ** 2)}" for _ in range(int(rng.integers(0, 90)))]
            for _ in range(int(rng.integers(1, 8)))
        ])
        cases.append((corpus, int(rng.integers(1, 4)), int(rng.integers(1, 13))))
    return cases


@pytest.mark.parametrize("chunk", [1, 3, 16, None])
def test_cooc_bit_identical_to_one_pair_loop(chunk, monkeypatch):
    """Every entry is the same float, with chunks down to one position."""
    if chunk is not None:
        monkeypatch.setattr(embedding, "COOC_CHUNK_TOKENS", chunk)
    for corpus, min_count, window in cooc_cases():
        v = vocab_of_common(corpus, min_count)
        if v is None:
            continue
        assert_same_counts(count_cooccurrence(corpus, v, window=window),
                           reference_count_cooccurrence(corpus, v, window=window))
    all_oov = seqs([], ["a", "b", "a"], [])
    v = build_vocab(seqs(["q"]))
    assert_same_counts(count_cooccurrence(all_oov, v, window=2),
                       reference_count_cooccurrence(all_oov, v, window=2))


@pytest.fixture(scope="module")
def seed1_streams(tmp_path_factory):
    """Opcode and API sequences of the seed-1 corpus, 3 families x 100."""
    corpus = tmp_path_factory.mktemp("seed1") / "corpus"
    generate_synthetic_corpus(
        SyntheticCorpusSpec(families=3, samples_per_family=100, seed=1), corpus)
    cfg = ExperimentConfig(seed=1, corpus=corpus, labels=corpus / "labels.csv")
    payloads = experiments.prepare_dataset(cfg).payloads()
    return [p[0] for p in payloads], [p[1] for p in payloads]


def test_cooc_bit_identical_on_seed1_streams(seed1_streams):
    for stream in seed1_streams:
        v = build_vocab(stream)
        assert_same_counts(count_cooccurrence(stream, v, window=8),
                           reference_count_cooccurrence(stream, v))


def test_cooc_temporaries_stay_bounded(seed1_streams):
    """The chunked count needs well under a megabyte beyond its result."""
    opcodes = seed1_streams[0]
    assert sum(len(s.tokens) for s in opcodes) > 30 * embedding.COOC_CHUNK_TOKENS
    v = build_vocab(opcodes)
    tracemalloc.start()
    try:
        cooc = count_cooccurrence(opcodes, v, window=8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cooc.entries) > 0
    assert peak - held < 1_000_000


# ------------------------------------------------------------------ loss

def test_glove_loss_zero_parameters():
    # with all parameters zero, J = sum f(x) ln(x)^2
    entries = {(1, 2): math.e, (2, 1): math.e, (1, 1): 150.0}
    cooc = CooccurrenceMatrix(entries=entries, window=2, vocab_size=2)
    expected = 2 * (math.e / 100.0) ** 0.75 * 1.0 + 1.0 * math.log(150.0) ** 2
    assert glove_loss(cooc, zero_table(2, 3)) == pytest.approx(expected, rel=1e-12)


def test_glove_loss_single_entry_weight_saturation():
    cooc = CooccurrenceMatrix(entries={(1, 1): 100.0}, window=1, vocab_size=1)
    # x == x_max uses f = 1 exactly
    assert glove_loss(cooc, zero_table(1, 2)) == pytest.approx(math.log(100.0) ** 2)


def test_glove_gradients_match_finite_differences():
    assert_gradients_match_finite_differences()


def test_glove_gradients_match_finite_differences_at_another_weighting(monkeypatch):
    """Entries run to 30, so some reach x_max and weigh 1 here."""
    set_constants(monkeypatch, OTHER_SETTINGS)
    assert_gradients_match_finite_differences()


def assert_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    n, k = 4, 3
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < 0.7:
                entries[(i, j)] = float(rng.uniform(0.5, 30.0))
    cooc = CooccurrenceMatrix(entries=entries, window=3, vocab_size=n)
    table = EmbeddingTable(
        tokens=tuple(f"t{i}" for i in range(n)),
        w=rng.normal(scale=0.3, size=(n, k)),
        w_ctx=rng.normal(scale=0.3, size=(n, k)),
        b=rng.normal(scale=0.3, size=n),
        b_ctx=rng.normal(scale=0.3, size=n),
    )
    grads = glove_gradients(cooc, table)
    step = 1e-6
    for name in ("w", "w_ctx", "b", "b_ctx"):
        arr = getattr(table, name)
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + step
            up = glove_loss(cooc, table)
            arr.flat[idx] = orig - step
            down = glove_loss(cooc, table)
            arr.flat[idx] = orig
            numeric = (up - down) / (2 * step)
            ana = grads[name].flat[idx]
            assert abs(numeric - ana) <= 1e-5 * max(1.0, abs(ana)), (name, idx)


# -------------------------------------------------------------- training

def small_corpus():
    rng = np.random.default_rng(0)
    words = ["mov", "push", "pop", "xor", "call", "add"]
    return seqs(*[
        [words[int(rng.integers(6))] for _ in range(30)] for _ in range(8)
    ])


def test_train_glove_loss_drops_and_records_initial():
    corpus = small_corpus()
    v = build_vocab(corpus)
    cooc = count_cooccurrence(corpus, v, window=4)
    table, losses = train_glove(cooc, v, k=6, epochs=30, seed=2)
    assert len(losses) == 31
    assert losses[-1] < 0.5 * losses[0]
    # losses[0] must be the untrained objective, which dwarfs the trained one
    assert losses[0] > losses[1]


def test_train_glove_deterministic_under_seed():
    corpus = small_corpus()
    v = build_vocab(corpus)
    cooc = count_cooccurrence(corpus, v, window=3)
    t1, l1 = train_glove(cooc, v, k=4, epochs=5, seed=9)
    t2, l2 = train_glove(cooc, v, k=4, epochs=5, seed=9)
    assert l1 == l2
    assert np.array_equal(t1.w, t2.w) and np.array_equal(t1.b_ctx, t2.b_ctx)
    t3, _ = train_glove(cooc, v, k=4, epochs=5, seed=10)
    assert not np.array_equal(t1.w, t3.w)


@pytest.mark.parametrize("epochs", [0, 1, 5])
def test_train_glove_last_loss_is_glove_loss_of_returned_table(epochs, monkeypatch):
    """The trainer's J curve and glove_loss evaluate one objective, bit for bit."""
    set_constants(monkeypatch, OTHER_SETTINGS)
    corpus = small_corpus()
    v = build_vocab(corpus)
    cooc = count_cooccurrence(corpus, v, window=3)
    assert max(cooc.entries.values()) > OTHER_SETTINGS["GLOVE_X_MAX"]
    table, losses = train_glove(cooc, v, k=4, epochs=epochs, seed=3)
    assert len(losses) == epochs + 1
    assert losses[-1] == glove_loss(cooc, table)


def test_train_glove_validates_inputs():
    corpus = small_corpus()
    v = build_vocab(corpus)
    cooc = count_cooccurrence(corpus, v, window=3)
    with pytest.raises(EmptyCooccurrence):
        train_glove(CooccurrenceMatrix(entries={}, window=1, vocab_size=len(v)), v, k=4)
    bad = CooccurrenceMatrix(entries=cooc.entries, window=3, vocab_size=len(v) + 1)
    with pytest.raises(ValueError):
        train_glove(bad, v, k=4)
    # k = 0 divided by zero and k = -1 failed inside numpy; epochs = -1 ran none
    for kw in (dict(k=0), dict(k=-1), dict(k=4, epochs=-1)):
        with pytest.raises(ValueError):
            train_glove(cooc, v, **kw)


def test_trained_arrays_are_separate_and_own_their_data():
    """No returned array is a view of the training state, so no AdaGrad
    accumulator can reach a checkpoint or a matrix through ``.base``."""
    corpus = small_corpus()
    v = build_vocab(corpus)
    table, _ = train_glove(count_cooccurrence(corpus, v, window=3), v, k=4, epochs=2, seed=1)
    arrays = [table.w, table.w_ctx, table.b, table.b_ctx]
    for a in arrays:
        assert a.flags.c_contiguous and a.flags.owndata and a.base is None
    for x in range(len(arrays)):
        for y in range(x + 1, len(arrays)):
            assert not np.shares_memory(arrays[x], arrays[y])


def final_row(table, tok):
    """The contract of a final row: w[r] + w_ctx[r] less the mean of
    w + w_ctx over the table's tokens, or zeros for OOV."""
    if tok not in table:
        return np.zeros(table.k)
    r = table.tokens.index(tok)
    final = table.w + table.w_ctx
    return final[r] - final.mean(axis=0)


def test_final_vector_is_center_plus_context():
    corpus = small_corpus()
    v = build_vocab(corpus)
    cooc = count_cooccurrence(corpus, v, window=3)
    table, _ = train_glove(cooc, v, k=4, epochs=3, seed=1)
    rows = table.vectors(table.tokens)
    final = table.w + table.w_ctx
    for r, tok in enumerate(table.tokens):
        assert np.array_equal(rows[r], final[r] - final.mean(axis=0))
    # the shared offset is gone: the rows sum to zero over the vocabulary
    assert np.allclose(rows.sum(axis=0), 0.0, atol=1e-12)
    assert not np.allclose(final.sum(axis=0), 0.0, atol=1e-3)


def test_vectors_are_final_vectors_with_zero_rows_for_oov():
    """The one read of final rows: the feature matrices, the text export
    and cosine_similarity all go through ``vectors``."""
    corpus = small_corpus()
    v = build_vocab(corpus)
    table, _ = train_glove(count_cooccurrence(corpus, v, window=3), v, k=4, epochs=3, seed=1)
    tokens = list(table.tokens) + ["mystery", table.tokens[0]]
    rows = table.vectors(tokens)
    assert rows.shape == (len(tokens), 4) and rows.dtype == np.float64
    for tok, row in zip(tokens, rows):
        assert row.tobytes() == final_row(table, tok).tobytes(), tok  # bit for bit
    assert table.vectors([]).shape == (0, 4)
    table.w[0] += 1.0  # tables are mutable: every lookup reads the current arrays
    tok = table.tokens[0]
    assert table.vectors([tok])[0].tobytes() == final_row(table, tok).tobytes()


# ------------------------------------------- exactness of the level schedule

def reference_train_glove(cooc, vocab, k, epochs=50, learning_rate=0.05,
                          x_max=100.0, alpha=0.75, seed=0):
    """Frozen one-entry-at-a-time AdaGrad loop: what train_glove must equal."""
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
    items = sorted(cooc.entries.items())
    ii = np.array([i - 1 for (i, _j), _v in items], dtype=np.intp)
    jj = np.array([j - 1 for (_i, j), _v in items], dtype=np.intp)
    xs = np.array([v for _k, v in items], dtype=np.float64)
    logx = np.log(xs)
    fx = np.where(xs < x_max, (xs / x_max) ** alpha, 1.0)

    def current_loss():
        diff = np.einsum("nk,nk->n", w[ii], w_ctx[jj]) + b[ii] + b_ctx[jj] - logx
        return float(np.sum(fx * diff * diff))

    losses = [current_loss()]
    for _epoch in range(epochs):
        for t in rng.permutation(len(xs)):
            i, j = ii[t], jj[t]
            wi, wj = w[i], w_ctx[j]
            diff = wi @ wj + b[i] + b_ctx[j] - logx[t]
            coef = 2.0 * fx[t] * diff
            gw = coef * wj
            gwc = coef * wi
            w[i] = wi - learning_rate * gw / np.sqrt(acc_w[i])
            w_ctx[j] = wj - learning_rate * gwc / np.sqrt(acc_wc[j])
            b[i] -= learning_rate * coef / np.sqrt(acc_b[i])
            b_ctx[j] -= learning_rate * coef / np.sqrt(acc_bc[j])
            acc_w[i] += gw * gw
            acc_wc[j] += gwc * gwc
            acc_b[i] += coef * coef
            acc_bc[j] += coef * coef
        losses.append(current_loss())
    table = EmbeddingTable(tokens=tuple(sorted(vocab, key=vocab.get)), w=w, w_ctx=w_ctx, b=b, b_ctx=b_ctx)
    return table, losses


def assert_same_fit(got, want):
    (t1, l1), (t2, l2) = got, want
    assert l1 == l2
    assert t1.tokens == t2.tokens
    for name in ("w", "w_ctx", "b", "b_ctx"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name)), name


def exactness_cases():
    """(co-occurrence matrix, vocabulary) pairs for the level schedule."""
    corpora = [seqs(["a", "a", "a"])]  # |V| = 1: a single (1, 1) entry
    rng = np.random.default_rng(21)
    for _ in range(5):
        nv = int(rng.integers(2, 61))
        corpora.append(seqs(*[
            [f"t{int(rng.integers(nv))}" for _ in range(int(rng.integers(2, 70)))]
            for _ in range(int(rng.integers(1, 5)))
        ]))
    cases = []
    for corpus in corpora:
        v = build_vocab(corpus)
        cases.append((count_cooccurrence(corpus, v, window=4), v))
    # a chain: every entry shares center row 1, so each level holds one entry
    chain = {f"t{j}": j for j in range(1, 9)}
    entries = {(1, j): 1.0 + j / 3 for j in range(1, 9)}
    cases.append((CooccurrenceMatrix(entries=entries, window=1, vocab_size=8), chain))
    return cases


@pytest.mark.parametrize("k", [1, 5, 24, 50])
def test_train_glove_bit_identical_to_one_entry_loop(k):
    for cooc, v in exactness_cases():
        for seed in (0, 13):
            assert_same_fit(train_glove(cooc, v, k=k, epochs=5, seed=seed),
                            reference_train_glove(cooc, v, k=k, epochs=5, seed=seed))


def test_train_glove_bit_identical_with_learning_settings(monkeypatch):
    set_constants(monkeypatch, OTHER_SETTINGS)
    corpus = small_corpus()
    v = build_vocab(corpus)
    cooc = count_cooccurrence(corpus, v, window=5)
    assert max(cooc.entries.values()) > OTHER_SETTINGS["GLOVE_X_MAX"]
    assert_same_fit(train_glove(cooc, v, k=7, epochs=4, seed=4),
                    reference_train_glove(cooc, v, k=7, epochs=4, learning_rate=0.2,
                                          x_max=3.0, alpha=0.5, seed=4))


def test_b2_report_unchanged_with_reference_trainer(tmp_path, monkeypatch):
    """End to end: the suite's GloVe fits and its report match the frozen loop."""
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(
        SyntheticCorpusSpec(families=3, samples_per_family=6, seed=5), corpus)

    def run(trainer, name):
        fits = []

        def recording(*args, **kw):
            fits.append(trainer(*args, **kw))
            return fits[-1]

        monkeypatch.setattr(experiments, "train_glove", recording)
        cfg = ExperimentConfig(
            seed=5, corpus=corpus, labels=corpus / "labels.csv", out_dir=tmp_path / name,
            folds=2, embedding=EmbeddingSettings(k=6, window=4, epochs=4),
            model=ModelSettings(seq_len=16, hidden=6, conv_channels=6),
            train=TrainSettings(epochs=2, batch_size=4),
        )
        return experiments.run_experiment("B2", cfg).read_bytes(), fits

    report, fits = run(train_glove, "level")
    want_report, want_fits = run(reference_train_glove, "reference")
    assert report == want_report
    assert len(fits) == len(want_fits) == 4  # opcode and api table per fold
    for got, want in zip(fits, want_fits):
        assert_same_fit(got, want)


def test_suites_fit_each_table_and_train_each_model_once_per_fold(tmp_path, monkeypatch):
    """Each suite alone, and all four in one run, fit each stream's table
    once per fold, in stream order, and train each distinct model once:
    the variants that read the same (arch, layer) share one model, and
    the layers that read a stream share its table."""
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(
        SyntheticCorpusSpec(families=3, samples_per_family=6, seed=5), corpus)
    seeds, trained = [], []

    def recording(*args, **kw):
        seeds.append(kw["seed"])
        return train_glove(*args, **kw)

    def counting(*args, **kw):
        trained.append(args[0].arch)
        return neural.train(*args, **kw)

    monkeypatch.setattr(experiments, "train_glove", recording)
    monkeypatch.setattr(experiments, "train", counting)
    cfg = ExperimentConfig(
        seed=5, corpus=corpus, labels=corpus / "labels.csv", out_dir=tmp_path / "out",
        folds=2, embedding=EmbeddingSettings(k=6, window=4, epochs=4),
        model=ModelSettings(seq_len=16, hidden=6, conv_channels=6),
        train=TrainSettings(epochs=2, batch_size=4),
    )
    stages = (experiments.STAGE_EMBED_OP, experiments.STAGE_EMBED_API)
    for names, streams, models in ((["A"], 1, 5), (["B1"], 1, 3), (["B2"], 2, 1),
                                   (["C"], 2, 3), (["A", "B1", "B2", "C"], 2, 9)):
        seeds.clear()
        trained.clear()
        experiments.run_experiments(names, cfg)
        assert seeds == [experiments.derive_seed(5, stage, fold)
                         for fold in (1, 2) for stage in stages[:streams]], names
        assert len(trained) == cfg.folds * models, (names, trained)


# ---------------------------------------------------------------- cosine

def test_cosine_same_token_is_one():
    corpus = small_corpus()
    v = build_vocab(corpus)
    table, _ = train_glove(count_cooccurrence(corpus, v, 3), v, k=4, epochs=2, seed=0)
    assert cosine_similarity(table, "mov", "mov") == pytest.approx(1.0)
    va, vb = table.vectors(["mov", "push"])  # the final rows, as the matrices read them
    want = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
    assert cosine_similarity(table, "mov", "push") == want


def test_cosine_missing_token_and_zero_vector():
    table = zero_table(2, 3)
    with pytest.raises(KeyError):
        cosine_similarity(table, "t0", "nope")
    with pytest.raises(ZeroVector):
        cosine_similarity(table, "t0", "t1")


# ------------------------------------------------------------ text export

def test_text_export_round_trips_final_vectors(tmp_path):
    corpus = small_corpus()
    v = build_vocab(corpus)
    table, _ = train_glove(count_cooccurrence(corpus, v, 3), v, k=5, epochs=4, seed=3)
    path = tmp_path / "vectors.txt"
    write_text_embeddings(path, table)
    header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert header == f"{len(table.tokens)} {table.k}"
    assert [row.split(" ")[0] for row in rows] == list(table.tokens)
    for row in rows:
        tok, *values = row.split(" ")
        back = np.array([float(v) for v in values])
        assert back.tobytes() == table.vectors([tok])[0].tobytes(), tok  # bit for bit
