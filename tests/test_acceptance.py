"""Acceptance suite.

Each test checks one shipping criterion end to end and prints exactly one
``criterion NN: PASS|FAIL - <what it covers>`` verdict line before
asserting.  Tolerances are pinned as module constants, not tuned at
runtime.  Oracles here are written independently of the library code they
judge: the opcode oracle is a flat line re-scan, the co-occurrence and
one-vs-rest oracles are brute-force loops, and the control-flow programs
were traced by hand.
"""

import re
import time
from pathlib import Path

import numpy as np

from mccrcnn.asmlite import parse_asm_bytes, parse_asm_file
from mccrcnn.embedding import (
    EmbeddingTable,
    build_vocab,
    cosine_similarity,
    count_cooccurrence,
    glove_gradients,
    glove_loss,
    train_glove,
)
from mccrcnn.extraction import (
    TokenSequence,
    build_relation_graph,
    extract_key_api_sequence,
    extract_opcode_sequence,
)
from mccrcnn.harness.cli import main
from mccrcnn.harness.config import (
    EmbeddingSettings,
    ExperimentConfig,
    ModelSettings,
    TrainSettings,
)
from mccrcnn.harness.experiments import (
    REFERENCE_FULL_CORPUS_PCT,
    _iter_folds,
    _Report,
    glove_matrixer,
    model_cfg_for,
    prepare_dataset,
    run_experiment,
    train_cfg_for,
)
from mccrcnn.harness.synth import SyntheticCorpusSpec, generate_synthetic_corpus
from mccrcnn.metrics import confusion, micro_accuracy, ovr_accuracy
from mccrcnn.neural import (
    ModelConfig,
    gradient_check,
    init_params,
    loss_and_gradients,
    predict,
    train,
)

COOC_TOL = 1e-12
GLOVE_FD_STEP = 1e-5
GLOVE_GRAD_TOL = 1e-5
GLOVE_MONOTONE_SLACK = 1e-9
GLOVE_DROP_FACTOR = 0.1
MODEL_FD_STEP = 1e-5
MODEL_GRAD_TOL = 1e-4
CORRUPTION_FLOOR = 1e-2
METRIC_TOL = 1e-12
SCAN_BUDGET_S = 5.0
PIPELINE_BUDGET_S = 600.0


# ------------------------------------------------------------------ verdicts

def _criterion(num, desc, body):
    problems = []
    try:
        body(problems)
    except Exception as exc:  # the verdict line must print either way
        problems.append(f"raised {exc!r}")
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num:02d}: {status} - {desc}")
    assert not problems, f"criterion {num:02d}: " + "; ".join(problems)


def _token_seqs(lists):
    return [
        TokenSequence(f"s{i}", tuple(toks))
        for i, toks in enumerate(lists)
    ]


# ------------------------------------------------- 1. opcode scan vs oracle

def _oracle_opcode_scan(text):
    """Flat re-scan of generated files: .text mnemonics in file order.

    Generated .text lines never quote a semicolon, so the comment cut is a
    plain find; byte columns are always two uppercase hex digits.
    """
    out = []
    for line in text.split("\n"):
        if not line.startswith(".text:"):
            continue
        parts = line.split(" ", 1)
        body = parts[1] if len(parts) == 2 else ""
        cut = body.find(";")
        if cut != -1:
            body = body[:cut]
        toks = body.split()
        while toks and len(toks[0]) == 2 and all(c in "0123456789ABCDEF" for c in toks[0]):
            toks.pop(0)
        if not toks or toks[0].endswith(":") or toks[0] == "align":
            continue
        out.append(toks[0].lower())
    return out


def test_criterion_01_opcode_scan_matches_independent_oracle(tmp_path):
    def body(problems):
        spec = SyntheticCorpusSpec(families=5, samples_per_family=10, seed=11)
        manifest = generate_synthetic_corpus(spec, tmp_path)
        entries = manifest["samples"]
        if len(entries) != 50:
            problems.append(f"expected 50 generated files, got {len(entries)}")
        start = time.perf_counter()
        for entry in entries:
            raw = (tmp_path / entry["file"]).read_bytes()
            got = list(extract_opcode_sequence(parse_asm_bytes(raw, entry["id"])).tokens)
            want = _oracle_opcode_scan(raw.decode("utf-8"))
            if got != want:
                problems.append(f"{entry['id']}: scan disagrees with oracle")
        elapsed = time.perf_counter() - start
        if elapsed >= SCAN_BUDGET_S:
            problems.append(f"scan took {elapsed:.2f}s, budget {SCAN_BUDGET_S}s")

    _criterion(1, "opcode scan equals an independent line-scan oracle on 50 files", body)


# ------------------------------------------------ 2. api walk, hand traces

_IMPORTS = (
    ".idata:0040F000 extrn Alpha:dword",
    ".idata:0040F004 extrn Beta:dword",
    ".idata:0040F008 extrn Gamma:dword",
    ".idata:0040F00C extrn __imp_Omega:dword",
)

# (name, program, hand-traced api sequence); the walk explores the
# fall-through arm of a conditional before its target, a callee before the
# return path, and emits an api once per visited call site.
_WALK_CASES = (
    (
        "straight line",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:Alpha",
            ".text:00401005 call ds:Beta",
            ".text:0040100A retn",
        ),
        ["Alpha", "Beta"],
    ),
    (
        "callee before return path",
        (
            ".text:00401000 start:",
            ".text:00401000 call sub_401010",
            ".text:00401005 call ds:Beta",
            ".text:0040100A retn",
            ".text:00401010 sub_401010:",
            ".text:00401010 call ds:Alpha",
            ".text:00401015 retn",
        ),
        ["Alpha", "Beta"],
    ),
    (
        "conditional explores fall-through first",
        (
            ".text:00401000 start:",
            ".text:00401000 jnz short loc_40100C",
            ".text:00401002 call ds:Alpha",
            ".text:00401007 jmp short loc_401011",
            ".text:0040100C loc_40100C:",
            ".text:0040100C call ds:Beta",
            ".text:00401011 loc_401011:",
            ".text:00401011 retn",
        ),
        ["Alpha", "Beta"],
    ),
    (
        "jump skips dead code",
        (
            ".text:00401000 start:",
            ".text:00401000 jmp short loc_401007",
            ".text:00401002 call ds:Alpha",
            ".text:00401007 loc_401007:",
            ".text:00401007 call ds:Beta",
            ".text:0040100C retn",
        ),
        ["Beta"],
    ),
    (
        "backward loop terminates and emits once",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:Alpha",
            ".text:00401005 jnz short start",
            ".text:00401007 retn",
        ),
        ["Alpha"],
    ),
    (
        "return ends the path",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:Alpha",
            ".text:00401005 retn",
            ".text:00401006 call ds:Beta",
        ),
        ["Alpha"],
    ),
    (
        "nested calls walk depth first",
        (
            ".text:00401000 start:",
            ".text:00401000 call sub_401010",
            ".text:00401005 call ds:Gamma",
            ".text:0040100A retn",
            ".text:00401010 sub_401010:",
            ".text:00401010 call sub_401020",
            ".text:00401015 call ds:Beta",
            ".text:0040101A retn",
            ".text:00401020 sub_401020:",
            ".text:00401020 call ds:Alpha",
            ".text:00401025 retn",
        ),
        ["Alpha", "Beta", "Gamma"],
    ),
    (
        "silent callee then return path continues",
        (
            ".text:00401000 start:",
            ".text:00401000 call sub_401010",
            ".text:00401005 call ds:Alpha",
            ".text:0040100A retn",
            ".text:00401010 sub_401010:",
            ".text:00401010 mov eax, 1",
            ".text:00401013 retn",
        ),
        ["Alpha"],
    ),
    (
        "start label beats a lower address",
        (
            ".text:00401000 call ds:Alpha",
            ".text:00401005 start:",
            ".text:00401005 call ds:Beta",
            ".text:0040100A retn",
        ),
        ["Beta"],
    ),
    (
        "underscore start label variant",
        (
            ".text:00401000 call ds:Alpha",
            ".text:00401005 _start:",
            ".text:00401005 call ds:Beta",
            ".text:0040100A retn",
        ),
        ["Beta"],
    ),
    (
        "entry snaps forward to the next instruction",
        (
            ".text:00401000 call ds:Alpha",
            ".text:00401003 start:",
            ".text:00401005 call ds:Beta",
            ".text:0040100A retn",
        ),
        ["Beta"],
    ),
    (
        "no entry label defaults to the lowest address",
        (
            ".text:00401000 call ds:Alpha",
            ".text:00401005 retn",
            ".text:00401006 call ds:Beta",
        ),
        ["Alpha"],
    ),
    (
        "import stub prefix is stripped",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:__imp_Omega",
            ".text:00401005 retn",
        ),
        ["Omega"],
    ),
    (
        "bare imported name is an api site",
        (
            ".text:00401000 start:",
            ".text:00401000 call Alpha",
            ".text:00401005 retn",
        ),
        ["Alpha"],
    ),
    (
        "unresolved call falls through silently",
        (
            ".text:00401000 start:",
            ".text:00401000 call eax",
            ".text:00401002 call ds:Alpha",
            ".text:00401007 retn",
        ),
        ["Alpha"],
    ),
    (
        "indirect jump is a dead end",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:Alpha",
            ".text:00401005 jmp eax",
            ".text:00401007 call ds:Beta",
            ".text:0040100C retn",
        ),
        ["Alpha"],
    ),
    (
        "conditional with register target still falls through",
        (
            ".text:00401000 start:",
            ".text:00401000 jnz eax",
            ".text:00401002 call ds:Alpha",
            ".text:00401007 retn",
        ),
        ["Alpha"],
    ),
    (
        "interrupt return terminates like retn",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:Alpha",
            ".text:00401005 iretd",
            ".text:00401006 call ds:Beta",
        ),
        ["Alpha"],
    ),
    (
        "same api at two sites emits per site",
        (
            ".text:00401000 start:",
            ".text:00401000 call ds:Alpha",
            ".text:00401005 mov eax, 1",
            ".text:00401008 call ds:Alpha",
            ".text:0040100D retn",
        ),
        ["Alpha", "Alpha"],
    ),
    (
        "diamond reconverges without re-emission",
        (
            ".text:00401000 start:",
            ".text:00401000 jnz short loc_401011",
            ".text:00401002 call ds:Alpha",
            ".text:00401007 loc_401007:",
            ".text:00401007 call ds:Gamma",
            ".text:0040100C retn",
            ".text:00401011 loc_401011:",
            ".text:00401011 call ds:Beta",
            ".text:00401016 jmp short loc_401007",
        ),
        ["Alpha", "Gamma", "Beta"],
    ),
)


def test_criterion_02_api_walk_matches_hand_traces():
    def body(problems):
        if len(_WALK_CASES) != 20:
            problems.append(f"battery holds {len(_WALK_CASES)} programs, want 20")
        for name, lines, want in _WALK_CASES:
            asm = parse_asm_file("\n".join(_IMPORTS + lines), "t")
            got = list(extract_key_api_sequence(build_relation_graph(asm), asm).tokens)
            if got != want:
                problems.append(f"{name}: got {got}, want {want}")
            if len(got) > 50:
                problems.append(f"{name}: sequence did not stay finite")

    _criterion(2, "api walk reproduces 20 hand-traced programs and terminates", body)


# --------------------------------------------- 3. co-occurrence brute force

def test_criterion_03_cooccurrence_matches_brute_force():
    def body(problems):
        rng = np.random.default_rng(33)
        pool = [f"t{i}" for i in range(12)]
        for trial in range(100):
            window = int(rng.choice([1, 2, 8]))
            vocab_n = int(rng.integers(2, 13))
            total = int(rng.integers(20, 501))
            toks = [pool[int(rng.integers(vocab_n))] for _ in range(total)]
            n_cuts = int(rng.integers(0, 4))
            cuts = sorted(rng.choice(total, size=n_cuts, replace=False).tolist())
            lists, prev = [], 0
            for c in cuts + [total]:
                if c > prev:
                    lists.append(toks[prev:c])
                prev = c
            corpus = _token_seqs(lists)
            vocab = build_vocab(corpus)
            cooc = count_cooccurrence(corpus, vocab, window=window)

            want = {}
            for seq in lists:
                ids = [vocab[t] for t in seq]
                for i in range(len(ids)):
                    for j in range(i + 1, min(len(ids), i + window + 1)):
                        inc = 1.0 / (j - i)
                        want[(ids[i], ids[j])] = want.get((ids[i], ids[j]), 0.0) + inc
                        want[(ids[j], ids[i])] = want.get((ids[j], ids[i]), 0.0) + inc

            if set(cooc.entries) != set(want):
                problems.append(f"trial {trial}: key sets differ")
                continue
            off = [k for k, v in want.items() if abs(cooc.entries[k] - v) > COOC_TOL]
            if off:
                problems.append(f"trial {trial}: {len(off)} entries off beyond {COOC_TOL}")
            asym = [k for k in cooc.entries
                    if cooc.entries[k] != cooc.entries[(k[1], k[0])]]
            if asym:
                problems.append(f"trial {trial}: symmetry broken at {asym[:3]}")

    _criterion(3, "co-occurrence counts match a brute-force window scan on 100 corpora", body)


# ------------------------------------------- 4. embedding loss and descent

def _glove_fixture():
    rng = np.random.default_rng(44)
    words = [f"op{i}" for i in range(8)]
    lists = [[words[int(rng.integers(8))] for _ in range(60)] for _ in range(3)]
    corpus = _token_seqs(lists)
    vocab = build_vocab(corpus)
    return vocab, count_cooccurrence(corpus, vocab, window=4)


def test_criterion_04_glove_gradient_and_descent():
    def body(problems):
        vocab, cooc = _glove_fixture()
        n, k = len(vocab), 4
        for point in range(10):
            prng = np.random.default_rng(100 + point)
            table = EmbeddingTable(
                tokens=tuple(sorted(vocab, key=vocab.get)),
                w=prng.normal(scale=0.3, size=(n, k)),
                w_ctx=prng.normal(scale=0.3, size=(n, k)),
                b=prng.normal(scale=0.3, size=n),
                b_ctx=prng.normal(scale=0.3, size=n),
            )
            grads = glove_gradients(cooc, table)
            worst = 0.0
            for name in ("w", "w_ctx", "b", "b_ctx"):
                arr = getattr(table, name)
                for idx in range(arr.size):
                    orig = arr.flat[idx]
                    arr.flat[idx] = orig + GLOVE_FD_STEP
                    up = glove_loss(cooc, table)
                    arr.flat[idx] = orig - GLOVE_FD_STEP
                    down = glove_loss(cooc, table)
                    arr.flat[idx] = orig
                    numeric = (up - down) / (2 * GLOVE_FD_STEP)
                    ana = grads[name].flat[idx]
                    worst = max(worst, abs(numeric - ana) / max(1.0, abs(ana)))
            if worst > GLOVE_GRAD_TOL:
                problems.append(f"point {point}: max rel err {worst:.2e}")

        _table, losses = train_glove(cooc, vocab, k=8, epochs=50, seed=4)
        rises = [e for e in range(1, len(losses))
                 if losses[e] > losses[e - 1] + GLOVE_MONOTONE_SLACK]
        if rises:
            problems.append(f"loss rose at epochs {rises[:5]}")
        if not losses[-1] < GLOVE_DROP_FACTOR * losses[0]:
            problems.append(
                f"final J {losses[-1]:.4f} not below "
                f"{GLOVE_DROP_FACTOR} x initial {losses[0]:.4f}")

    _criterion(4, "embedding gradients match finite differences and J drops tenfold", body)


# --------------------------------------------- 5. embedding semantics

def test_criterion_05_shared_contexts_embed_closer():
    def body(problems):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lists = []
            for _ in range(60):
                mid = "alpha" if rng.random() < 0.5 else "beta"
                lists.append(["push", "mov", mid, "pop", "ret_like"])
                lists.append(["xor", "shl", "gamma", "test", "cmp"])
            corpus = _token_seqs(lists)
            vocab = build_vocab(corpus)
            cooc = count_cooccurrence(corpus, vocab, window=2)
            table, _losses = train_glove(cooc, vocab, k=8, epochs=40, seed=seed)
            ab = cosine_similarity(table, "alpha", "beta")
            ac = cosine_similarity(table, "alpha", "gamma")
            if ab > ac:
                wins += 1
        if wins < 9:
            problems.append(f"shared-context pair won only {wins}/10 seeds")

    _criterion(5, "tokens sharing contexts embed closer than disjoint ones in 9/10 seeds", body)


# --------------------------------------------- 6. model gradient check

def test_criterion_06_model_gradients_match_finite_differences():
    def body(problems):
        cfg = ModelConfig(arch="mcc_rcnn", conv_channels=5, kernel_width=3)
        for seed in range(10):
            params = init_params(cfg, input_dim=3, classes=3, hidden=4, seed=seed)
            rng = np.random.default_rng(600 + seed)
            sample = (rng.standard_normal((6, 3)), int(rng.integers(1, 4)))
            err = gradient_check(params, sample, step=MODEL_FD_STEP, max_params=None)
            if err > MODEL_GRAD_TOL:
                problems.append(f"seed {seed}: max rel err {err:.2e}")

        params = init_params(cfg, input_dim=3, classes=3, hidden=4, seed=0)
        rng = np.random.default_rng(600)
        sample = (rng.standard_normal((6, 3)), int(rng.integers(1, 4)))
        _loss, grads = loss_and_gradients(params, sample[0][None], [sample[1]])
        bad = {name: arr.copy() for name, arr in grads.items()}
        bad["dense.w"][0, 0] += 0.05
        err = gradient_check(params, sample, step=MODEL_FD_STEP,
                             max_params=None, grads=bad)
        if err <= CORRUPTION_FLOOR:
            problems.append(f"corrupted gradient scored {err:.2e}, went undetected")

    _criterion(6, "full-parameter gradient check passes 10 seeds and flags corruption", body)


# --------------------------------------------- 7. one-vs-rest accuracy

def _brute_ovr(truths, preds, l):
    accs = []
    for c in range(1, l + 1):
        hits = sum(1 for t, p in zip(truths, preds) if (t == c) == (p == c))
        accs.append(hits / len(truths))
    return sum(accs) / l


def test_criterion_07_ovr_accuracy_matches_binary_expansion():
    def body(problems):
        hand = [[3, 1, 0], [0, 4, 1], [1, 0, 0]]
        truths, preds = [], []
        for t in range(3):
            for p in range(3):
                truths.extend([t + 1] * hand[t][p])
                preds.extend([p + 1] * hand[t][p])
        cm = confusion(preds, truths, 3)
        if abs(ovr_accuracy(cm) - 0.8) > METRIC_TOL:
            problems.append(f"hand example ovr {ovr_accuracy(cm)!r}, want 0.8")
        if abs(micro_accuracy(cm) - 0.7) > METRIC_TOL:
            problems.append(f"hand example micro {micro_accuracy(cm)!r}, want 0.7")

        rng = np.random.default_rng(77)
        for trial in range(100):
            l = int(rng.integers(2, 7))
            n = int(rng.integers(5, 61))
            truths = rng.integers(1, l + 1, size=n).tolist()
            preds = rng.integers(1, l + 1, size=n).tolist()
            cm = confusion(preds, truths, l)
            want = _brute_ovr(truths, preds, l)
            if abs(ovr_accuracy(cm) - want) > METRIC_TOL:
                problems.append(f"trial {trial}: ovr off by more than {METRIC_TOL}")

    _criterion(7, "one-vs-rest accuracy equals its binary expansion on 100 matrices", body)


# --------------------------------------------- 8. end-to-end pipeline

def test_criterion_08_end_to_end_separable_corpus(tmp_path):
    def body(problems):
        t0 = time.perf_counter()
        corpus = tmp_path / "corpus"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(families=3, samples_per_family=100, seed=8), corpus)
        cfg = ExperimentConfig(seed=8, corpus=corpus,
                               labels=corpus / "labels.csv", folds=10)
        dataset = prepare_dataset(cfg)
        if len(dataset.records) != 300:
            problems.append(f"expected 300 usable samples, got {len(dataset.records)}")
        accs = []
        for fold, train_split, test_split in _iter_folds(cfg, dataset):
            to_matrix = glove_matrixer("fused", train_split, cfg, fold)
            params, _hist = train(model_cfg_for(cfg, "mcc_rcnn"), train_split,
                                  train_cfg_for(cfg, fold), to_matrix=to_matrix)
            preds = predict(params, [to_matrix(p) for p in test_split.payloads()])
            cm = confusion(preds.tolist(), test_split.labels(), dataset.l)
            accs.append(micro_accuracy(cm))
        elapsed = time.perf_counter() - t0
        mean_acc = float(np.mean(accs))
        if mean_acc < 0.95:
            problems.append(f"mean 10-fold accuracy {mean_acc:.4f} below 0.95")
        if elapsed >= PIPELINE_BUDGET_S:
            problems.append(f"pipeline took {elapsed:.0f}s, budget {PIPELINE_BUDGET_S}s")

    _criterion(8, "fused model reaches 95% mean 10-fold accuracy within the time budget", body)


# --------------------------------------------- 9. fusion beats single layers

def test_criterion_09_fusion_beats_single_layers(tmp_path):
    def body(problems):
        wins = 0
        for seed in range(5):
            corpus = tmp_path / f"c{seed}"
            generate_synthetic_corpus(
                SyntheticCorpusSpec(families=2, samples_per_family=40,
                                    seed=seed, fusion_mode=True), corpus)
            cfg = ExperimentConfig(seed=seed, corpus=corpus,
                                   labels=corpus / "labels.csv", folds=2)
            dataset = prepare_dataset(cfg)
            means = {}
            for which in ("opcode", "api", "fused"):
                accs = []
                for fold, train_split, test_split in _iter_folds(cfg, dataset):
                    to_matrix = glove_matrixer(which, train_split, cfg, fold)
                    params, _hist = train(
                        model_cfg_for(cfg, "mcc_rcnn"), train_split,
                        train_cfg_for(cfg, fold), to_matrix=to_matrix)
                    preds = predict(params, [to_matrix(p) for p in test_split.payloads()])
                    cm = confusion(preds.tolist(), test_split.labels(), dataset.l)
                    accs.append(micro_accuracy(cm))
                means[which] = float(np.mean(accs))
            if means["fused"] > means["opcode"] and means["fused"] > means["api"]:
                wins += 1
        if wins < 4:
            problems.append(f"fusion won only {wins}/5 seeds")

    _criterion(9, "fused features beat both single layers in at least 4 of 5 seeds", body)


# --------------------------------------------- 10. reproducibility

_CLI_INI = """\
[run]
seed = 5
folds = 2
out = out

[data]
corpus = corpus

[synthetic]
families = 2
samples_per_family = 6
min_len = 40
max_len = 60

[embedding]
k = 6
window = 4
epochs = 4

[model]
seq_len = 16
hidden = 6
conv_channels = 6

[train]
epochs = 2
batch_size = 4
"""


def test_criterion_10_identical_runs_are_byte_identical(tmp_path, capsys):
    def body(problems):
        corpus = tmp_path / "corpus"
        generate_synthetic_corpus(
            SyntheticCorpusSpec(families=2, samples_per_family=6, seed=10,
                                min_len=40, max_len=60), corpus)
        out = tmp_path / "runs"
        cfg = ExperimentConfig(
            seed=10, corpus=corpus, labels=corpus / "labels.csv",
            out_dir=out, folds=2,
            embedding=EmbeddingSettings(k=6, window=4, epochs=5),
            model=ModelSettings(seq_len=16, hidden=6, conv_channels=6),
            train=TrainSettings(epochs=2, batch_size=4),
        )
        run_experiment("C", cfg)
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        run_experiment("C", cfg)
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if set(first) != set(second):
            problems.append("the two runs wrote different file sets")
        for name in sorted(set(first) & set(second)):
            if first[name] != second[name]:
                problems.append(f"report {name} changed between runs")

        ini = tmp_path / "cfg.ini"
        ini.write_text(_CLI_INI, encoding="utf-8")
        for step in ("gen", "ingest", "extract", "embed", "train"):
            if main([step, str(ini)]) != 0:
                problems.append(f"cli step {step} failed")
                return
        cli_out = tmp_path / "out"
        ckpts = {p.name: p.read_bytes() for p in sorted(cli_out.glob("*.ckpt"))}
        if not ckpts or "model.ckpt" not in ckpts:
            problems.append("first cli run left no checkpoints")
        for step in ("ingest", "extract", "embed", "train"):
            if main([step, str(ini)]) != 0:
                problems.append(f"cli rerun step {step} failed")
                return
        for name, data in ckpts.items():
            if (cli_out / name).read_bytes() != data:
                problems.append(f"checkpoint {name} changed between runs")
        capsys.readouterr()

    _criterion(10, "identical config and seed reproduce reports and checkpoints byte for byte", body)


# --------------------------------------------- 11. reference numbers

def test_criterion_11_reference_numbers_labeled_never_asserted():
    def body(problems):
        want = (
            ("ngram_lstm_best", 77.38),
            ("glove_lstm", 83.95),
            ("api_mccrcnn", 86.42),
            ("opcode_mccrcnn", 88.89),
            ("fused_mccrcnn", 97.53),
        )
        if tuple(REFERENCE_FULL_CORPUS_PCT) != want:
            problems.append("reference constant table drifted")

        rep = _Report("C")
        rep.finish(1)
        csv = rep.csv_text()
        for name, pct in want:
            row = f"C,reference,{name}/published_accuracy_pct,{pct}"
            if row not in csv:
                problems.append(f"report missing labeled reference row for {name}")

        src = Path(__file__).resolve().parents[1] / "src" / "mccrcnn"
        table_line = re.compile(r'\("[a-z0-9_]+", \d+\.\d+\),')
        for _name, pct in want:
            needle = repr(pct)
            hits = []
            for py in sorted(src.rglob("*.py")):
                for ln, text in enumerate(py.read_text(encoding="utf-8").splitlines(), 1):
                    if needle in text:
                        hits.append((py.name, ln, text.strip()))
            if not hits:
                problems.append(f"{needle} missing from the source tree")
            for fname, ln, text in hits:
                if fname != "experiments.py":
                    problems.append(f"{needle} leaked into {fname}:{ln}")
                elif not table_line.fullmatch(text):
                    problems.append(f"{needle} used outside the constant table: {text}")
                if "assert" in text:
                    problems.append(f"{needle} asserted at {fname}:{ln}")

    _criterion(11, "published accuracies appear only as labeled reference rows", body)
