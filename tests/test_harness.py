"""Config parsing, synthetic corpora, ingest, checkpoints, and the CLI."""

import csv
import dataclasses
import json
import logging
import subprocess
import sys
import weakref

import numpy as np
import pytest

from mccrcnn import neural
from mccrcnn.asmlite import DATA_DIRECTIVES, parse_asm_bytes
from mccrcnn.baselines import Standardizer, knn_predict, train_logistic, train_nb, train_svm
from mccrcnn.embedding import EmbeddingTable
from mccrcnn.errors import ConfigError
from mccrcnn.extraction import build_relation_graph, extract_key_api_sequence
from mccrcnn.harness.cli import main
from mccrcnn.features import (
    ngram_id_sequence,
    ngram_vector,
    onehot_matrix,
    select_ngram_features,
)
from mccrcnn.harness.config import (
    MAX_CLASSES,
    MAX_CONV_CHANNELS,
    MAX_EMBED_K,
    MAX_HIDDEN,
    MAX_KERNEL_WIDTH,
    MAX_NGRAM_N,
    MAX_WINDOW,
    STREAMS,
    EmbeddingSettings,
    ExperimentConfig,
    ModelSettings,
    NgramSettings,
    SyntheticSettings,
    TrainSettings,
    config_echo,
    load_config,
)
from mccrcnn.harness.experiments import (
    _iter_folds,
    _Report,
    fit_tables,
    matrix_fn,
    model_cfg_for,
    prepare_dataset,
    run_experiment,
    run_experiments,
    train_cfg_for,
)
from mccrcnn.harness.ingest import (
    MissingLabels,
    NoAsmFiles,
    ingest_corpus,
    read_labels,
)
from mccrcnn.harness.persist import (
    _MODEL_VERSION,
    CorruptFile,
    FormatVersionMismatch,
    _append_block,
    _write_checkpoint,
    load_embedding,
    load_model,
    save_embedding,
    save_model,
)
from mccrcnn.harness import experiments, synth
from mccrcnn.harness.synth import (
    DEFAULT_APIS,
    DEFAULT_OPCODES,
    MAX_FAMILIES,
    MAX_LEN,
    MAX_SAMPLES_PER_FAMILY,
    IoFailure,
    SyntheticCorpusSpec,
    _validate_spec,
    generate_synthetic_corpus,
)
from mccrcnn.metrics import confusion, ovr_accuracy, standard_metrics
from mccrcnn.neural import ModelConfig, init_params, named_params, predict, train

def ini_text(**overrides):
    base = {
        "run": {"seed": "5", "folds": "2", "out": "out"},
        "data": {"corpus": "corpus"},
        "synthetic": {"families": "2", "samples_per_family": "6",
                      "min_len": "40", "max_len": "60"},
        "embedding": {"k": "6", "window": "4", "epochs": "4"},
        "model": {"seq_len": "16", "hidden": "6", "conv_channels": "6"},
        "train": {"epochs": "2", "batch_size": "4"},
    }
    for section, kv in overrides.items():
        base.setdefault(section, {}).update(kv)
    chunks = []
    for section, kv in base.items():
        chunks.append(f"[{section}]")
        chunks.extend(f"{key} = {value}" for key, value in kv.items())
        chunks.append("")
    return "\n".join(chunks)


BASE_INI = ini_text()


def write_cfg(tmp_path, text=BASE_INI, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ------------------------------------------------------------------ config

def test_config_values_and_path_resolution(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    assert cfg.seed == 5 and cfg.folds == 2
    assert cfg.out_dir == tmp_path / "out"
    assert cfg.corpus == tmp_path / "corpus"
    assert cfg.labels is None
    assert cfg.synthetic.families == 2
    assert cfg.embedding.k == 6 and cfg.embedding.window == 4
    assert cfg.model.arch == "mcc_rcnn" and cfg.model.kernel_width == 3
    assert cfg.train.batch_size == 4
    assert cfg.ngram.sweep == (1, 2, 3, 4)


def test_config_overrides_win(tmp_path):
    cfg = load_config(write_cfg(tmp_path), seed_override=99, out_override=tmp_path / "elsewhere")
    assert cfg.seed == 99
    assert cfg.out_dir == tmp_path / "elsewhere"


def test_config_requires_a_seed(tmp_path):
    text = BASE_INI.replace("seed = 5\n", "")
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, text))
    cfg = load_config(write_cfg(tmp_path, text), seed_override=3)
    assert cfg.seed == 3


@pytest.mark.parametrize("overrides, needle", [
    ({"mystery": {"x": "1"}}, "unknown config section"),
    ({"train": {"momentum": "0.9"}}, "unknown key"),
    ({"embedding": {"k": "fast"}}, "cannot parse"),
    ({"synthetic": {"families": "1"}}, "families"),
    ({"synthetic": {"fusion_mode": "yes", "families": "3"}}, "fusion_mode"),
    ({"model": {"kernel_width": "4"}}, "odd"),
    ({"model": {"arch": "cnn"}}, "arch"),
    ({"run": {"folds": "1"}}, "folds"),
    # AdaGrad is the only optimizer: the key itself is unknown now
    ({"train": {"optimizer": "adam"}}, "optimizer"),
    ({"synthetic": {"fusion_mode": "maybe"}}, "cannot parse"),
    # the generator needs 30 <= min_len, so loading refuses 1..29 too
    ({"synthetic": {"min_len": "10"}}, "min_len"),
    # loaded, and then wrote untrained tables
    ({"embedding": {"epochs": "-3"}}, "embedding epochs"),
    # min_count is no longer settable: the key itself is unknown now
    ({"embedding": {"min_count": "-7"}}, "min_count"),
    # loaded, and then the generator's per-token loop ran for hours
    ({"synthetic": {"max_len": "1000000000000"}}, "max_len"),
    # loaded, and then B2 wrote every n-gram variant's fold rows twice and
    # no mean row for any of them
    ({"ngram": {"sweep": "1,1"}}, "repeat"),
    # library defaults, no longer settable: x_max or alpha inf trained
    # nothing and exited 0, learning_rate inf exited 3
    ({"embedding": {"x_max": "inf"}}, "unknown key 'x_max'"),
    ({"embedding": {"alpha": "inf"}}, "unknown key 'alpha'"),
    ({"embedding": {"learning_rate": "0.05"}}, "unknown key 'learning_rate'"),
    ({"train": {"learning_rate": "inf"}}, "unknown key 'learning_rate'"),
    ({"ngram": {"limit": "700"}}, "unknown key 'limit'"),
    # reported as a missing seed
    ({"run": {"seed": "-3"}}, "seed must be >= 0"),
])
def test_config_rejects_bad_input(tmp_path, overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write_cfg(tmp_path, ini_text(**overrides)))


@pytest.mark.parametrize("section, key, bound, step", [
    ("embedding", "k", MAX_EMBED_K, 1),
    ("embedding", "window", MAX_WINDOW, 1),
    ("model", "hidden", MAX_HIDDEN, 1),
    ("model", "conv_channels", MAX_CONV_CHANNELS, 1),
    ("model", "kernel_width", MAX_KERNEL_WIDTH, 2),  # odd widths only
    ("ngram", "sweep", MAX_NGRAM_N, 1),
    ("synthetic", "families", MAX_FAMILIES, 1),
    ("synthetic", "samples_per_family", MAX_SAMPLES_PER_FAMILY, 1),
])
def test_config_size_bounds(tmp_path, section, key, bound, step):
    """Each size loads at its bound and is refused one step past it.
    Only the config is loaded: nothing is allocated or generated."""
    cfg = load_config(write_cfg(tmp_path, ini_text(**{section: {key: str(bound)}})))
    assert getattr(getattr(cfg, section), key) in (bound, (bound,))
    with pytest.raises(ConfigError, match=key.split("_")[0]):
        load_config(write_cfg(tmp_path, ini_text(**{section: {key: str(bound + step)}})))


def test_config_booleans_take_configparser_spellings(tmp_path):
    for raw, want in (("1", True), ("yes", True), ("TRUE", True), ("On", True),
                      ("0", False), ("no", False), ("false", False), ("OFF", False)):
        text = ini_text(synthetic={"fusion_mode": raw})
        assert load_config(write_cfg(tmp_path, text)).synthetic.fusion_mode is want, raw


def test_config_echo_lists_every_setting(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    lines = config_echo(cfg)
    assert "run.seed=5" in lines
    assert "model.kernel_width=3" in lines
    assert "ngram.sweep=1,2,3,4" in lines
    # no path: a summary must not depend on where the run lives
    assert not [ln for ln in lines if ln.split("=")[0] in ("run.out", "data.corpus", "data.labels")]
    assert len(lines) == len(set(lines))
    assert sum(1 for ln in lines if ln.startswith("train.")) == 2
    assert len(lines) == 19  # 22 keys less the three paths


def echo_ini(cfg):
    """config_echo(cfg) written back as INI, one section per key prefix."""
    sections: dict[str, list[str]] = {}
    for line in config_echo(cfg):
        key, value = line.split("=", 1)
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {value}")
    return "".join(f"[{section}]\n" + "".join(f"{kv}\n" for kv in kvs) + "\n"
                   for section, kvs in sections.items())


def test_config_echo_round_trips_through_load_config(tmp_path):
    """Every echoed value is settable, and every settable value is echoed:
    the second config sets every key but the paths off its default."""
    default = ExperimentConfig(seed=0)
    off = ExperimentConfig(
        seed=9, folds=3,
        synthetic=SyntheticSettings(families=2, samples_per_family=7, fusion_mode=True,
                                    min_len=31, max_len=77),
        embedding=EmbeddingSettings(k=5, window=3, epochs=2),
        model=ModelSettings(seq_len=20, hidden=7, conv_channels=5, kernel_width=5,
                            arch="gcnn", features="api"),
        train=TrainSettings(epochs=3, batch_size=5),
        ngram=NgramSettings(sweep=(3, 1)),
    )
    assert off.folds != default.folds
    for section in ("synthetic", "embedding", "model", "train", "ngram"):
        for f in dataclasses.fields(getattr(off, section)):
            assert (getattr(getattr(off, section), f.name)
                    != getattr(getattr(default, section), f.name)), (section, f.name)
    for cfg in (default, off):
        loaded = load_config(write_cfg(tmp_path, echo_ini(cfg)))
        assert dataclasses.replace(loaded, corpus=cfg.corpus, labels=cfg.labels,
                                   out_dir=cfg.out_dir) == cfg


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


# --------------------------------------------------------------- synthesis

def small_spec(**kw):
    base = dict(families=2, samples_per_family=4, seed=3, min_len=40, max_len=60)
    base.update(kw)
    return SyntheticCorpusSpec(**base)


def test_synth_is_deterministic(tmp_path):
    m1 = generate_synthetic_corpus(small_spec(), tmp_path / "a")
    m2 = generate_synthetic_corpus(small_spec(), tmp_path / "b")
    assert m1 == m2
    for name in ("01_0000.asm", "02_0003.asm", "labels.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_validation_errors(tmp_path):
    for kw in (
        dict(families=1),
        dict(fusion_mode=True, families=3),
        dict(min_len=10),
        dict(min_len=80, max_len=60),
        dict(max_len=MAX_LEN + 1),
        dict(max_len=10**12),
    ):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(small_spec(**kw), tmp_path / "x")
    assert not (tmp_path / "x").exists()
    _validate_spec(small_spec(min_len=MAX_LEN, max_len=MAX_LEN))  # the ceiling itself holds


def test_default_alphabets_obey_the_generator_rules():
    """The alphabets are fixed; they keep the rules a spec's alphabets were
    held to: distinct tokens, 6 opcodes per fusion-mode half, one 4-name
    motif per fusion-mode style, and no opcode that is a jump or that the
    generator emits itself, so each opcode token comes from a chain."""
    ops, apis = DEFAULT_OPCODES, DEFAULT_APIS
    assert len(set(ops)) == len(ops) >= 12
    structural = DATA_DIRECTIVES | {"extrn", "call", "ret", "retn", "proc"}
    assert [t for t in ops if t in structural or t.startswith("j")] == []
    assert len(set(apis)) == len(apis) >= 2 * synth._MOTIF_LEN


def test_synth_writes_each_listing_as_it_is_drawn(tmp_path, monkeypatch):
    """When a listing is drawn, every earlier one is already on disk."""
    render = synth._render_sample
    on_disk = []

    def counting_render(*args):
        on_disk.append(len(list(tmp_path.glob("*.asm"))))
        return render(*args)

    monkeypatch.setattr(synth, "_render_sample", counting_render)
    generate_synthetic_corpus(small_spec(), tmp_path)
    assert on_disk == list(range(8))


def test_synth_write_failures_are_io_failures(tmp_path):
    """A listing is written as soon as it is drawn; a write that fails part
    way through the corpus, or a directory that cannot be made, raises
    IoFailure."""
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "01_0003.asm").mkdir()  # blocks the fourth listing
    with pytest.raises(IoFailure, match="cannot write corpus under"):
        generate_synthetic_corpus(small_spec(), tmp_path / "a")
    written = sorted(p.name for p in (tmp_path / "a").iterdir() if p.is_file())
    assert written == ["01_0000.asm", "01_0001.asm", "01_0002.asm"]
    generate_synthetic_corpus(small_spec(), tmp_path / "b")
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    (tmp_path / "file").write_text("not a directory")
    with pytest.raises(IoFailure, match="cannot write corpus under"):
        generate_synthetic_corpus(small_spec(), tmp_path / "file")


def test_synth_files_parse_and_match_labels(tmp_path):
    manifest = generate_synthetic_corpus(small_spec(), tmp_path)
    assert len(manifest["samples"]) == 8
    labels = read_labels(tmp_path / "labels.csv")
    assert len(labels) == 8
    for entry in manifest["samples"]:
        assert labels[entry["id"]] == entry["family"]
        asm = parse_asm_bytes((tmp_path / entry["file"]).read_bytes(), entry["id"])
        total = len(asm.lines)
        parsed = sum(1 for ln in asm.lines if ln.kind.name != "UNPARSED")
        assert parsed / total >= 0.8
        text = (tmp_path / entry["file"]).read_text()
        assert "start:" in text or "start " in text
        assert "call ds:" in text
        assert "extrn" in text


def test_manifest_api_sequence_matches_extractor(tmp_path):
    manifest = generate_synthetic_corpus(small_spec(seed=11), tmp_path)
    for entry in manifest["samples"]:
        asm = parse_asm_bytes((tmp_path / entry["file"]).read_bytes(), entry["id"])
        got = extract_key_api_sequence(build_relation_graph(asm), asm)
        assert list(got.tokens) == entry["api_sequence"], entry["id"]


def test_fusion_mode_marginals_and_xor(tmp_path):
    spec = small_spec(fusion_mode=True, samples_per_family=10, seed=7)
    manifest = generate_synthetic_corpus(spec, tmp_path)
    for family in (1, 2):
        fam = [s for s in manifest["samples"] if s["family"] == family]
        op_styles = [s["opcode_style"] for s in fam]
        api_styles = [s["api_style"] for s in fam]
        # each marginal is balanced within the family
        assert sorted(set(op_styles)) == [0, 1]
        assert op_styles.count(0) == op_styles.count(1) == 5
        assert api_styles.count(0) == api_styles.count(1) == 5
        for s in fam:
            if family == 1:
                assert s["opcode_style"] == s["api_style"]
            else:
                assert s["opcode_style"] != s["api_style"]
    # the two api motifs are disjoint
    fam1 = [s for s in manifest["samples"] if s["api_style"] == 0]
    fam2 = [s for s in manifest["samples"] if s["api_style"] == 1]
    apis0 = {t for s in fam1 for t in s["api_sequence"]}
    apis1 = {t for s in fam2 for t in s["api_sequence"]}
    assert apis0 and apis1 and not (apis0 & apis1)


# ------------------------------------------------------------------ ingest

def test_read_labels_header_and_quotes(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text('Id,Class\n"s1",2\ns2,1\n', encoding="utf-8")
    assert read_labels(p) == {"s1": 2, "s2": 1}
    p.write_text("s1,2\ns2,1\n", encoding="utf-8")  # headerless works too
    assert read_labels(p) == {"s1": 2, "s2": 1}


def test_read_labels_ignores_byte_order_mark(tmp_path, caplog):
    p = tmp_path / "labels.csv"
    p.write_bytes(b"\xef\xbb\xbfa,1\nb,2\n")  # headerless, saved with a BOM
    assert read_labels(p) == {"a": 1, "b": 2}
    (tmp_path / "a.asm").write_text(".text:00401000 nop\n")
    with caplog.at_level(logging.WARNING):
        asms, labels = ingest_corpus(tmp_path, p)
    assert [a.sample_id for a in asms] == ["a"] and labels == {"a": 1}
    assert "a.asm" not in caplog.text
    p.write_bytes(b"\xef\xbb\xbfId,Class\na,1\nb,2\n")  # the header is still skipped
    assert read_labels(p) == {"a": 1, "b": 2}
    p.write_bytes(b"\xef\xbb\xbfa,1\n\xff,2\n")  # not UTF-8 after the BOM
    with pytest.raises(MissingLabels, match="not UTF-8"):
        read_labels(p)


@pytest.mark.parametrize("text", [
    "",
    "Id,Class\n",
    "s1,2\ns1,3\n",
    "Id,Class\ns1,zero\n",
    "Id,Class\ns1,0\n",
    f"Id,Class\ns1,{MAX_CLASSES + 1}\n",
    "justonefield\n",
])
def test_read_labels_rejects(tmp_path, text):
    p = tmp_path / "labels.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(MissingLabels):
        read_labels(p)


def test_ingest_drops_unmatched_with_warnings(tmp_path, caplog):
    generate_synthetic_corpus(small_spec(), tmp_path)
    (tmp_path / "99_0000.asm").write_text(".text:00401000 mov eax, 1\n")
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text(
        labels_path.read_text() + "ghost,1\n", encoding="utf-8"
    )
    with caplog.at_level(logging.WARNING):
        asms, labels = ingest_corpus(tmp_path, labels_path)
    asms = list(asms)
    assert "99_0000" in caplog.text and "ghost" in caplog.text
    assert len(asms) == 8 and "ghost" not in labels
    assert [a.sample_id for a in asms] == sorted(a.sample_id for a in asms)


class ParseCounter:
    """Stands in for ingest's parse_asm_bytes and keeps a weakref to each
    AsmFile it returns, and the ids of those still alive as each parse starts."""

    def __init__(self, monkeypatch):
        self.made: list[weakref.ref] = []
        self.alive_at_parse: list[list[str]] = []
        monkeypatch.setattr("mccrcnn.harness.ingest.parse_asm_bytes", self)

    def __call__(self, data, sample_id):
        alive = [ref() for ref in self.made]
        self.alive_at_parse.append([asm.sample_id for asm in alive if asm is not None])
        del alive
        asm = parse_asm_bytes(data, sample_id)
        self.made.append(weakref.ref(asm))
        return asm


def test_ingest_parses_each_file_when_the_iterator_reaches_it(tmp_path, monkeypatch):
    generate_synthetic_corpus(small_spec(), tmp_path)
    parses = ParseCounter(monkeypatch)
    asms, labels = ingest_corpus(tmp_path, tmp_path / "labels.csv")
    assert parses.made == [] and len(labels) == 8
    ids = []
    for n in range(1, 9):
        ids.append(next(asms).sample_id)
        assert len(parses.made) == n
    with pytest.raises(StopIteration):
        next(asms)
    assert ids == sorted(labels) and len(parses.made) == 8


def test_prepare_dataset_holds_one_listing_at_a_time(tmp_path, monkeypatch):
    generate_synthetic_corpus(small_spec(), tmp_path)
    parses = ParseCounter(monkeypatch)
    dataset = prepare_dataset(ExperimentConfig(seed=1, corpus=tmp_path,
                                               labels=tmp_path / "labels.csv"))
    assert len(parses.made) == len(dataset) == 8
    # every earlier AsmFile is dead by the time the next one is parsed
    assert parses.alive_at_parse == [[]] * 8
    assert all(ref() is None for ref in parses.made)


def test_ingest_errors(tmp_path, caplog):
    (tmp_path / "labels.csv").write_text("s1,1\n", encoding="utf-8")
    with pytest.raises(NoAsmFiles):
        ingest_corpus(tmp_path, tmp_path / "labels.csv")
    (tmp_path / "other.asm").write_text(".text:00401000 nop\n")
    # there is an .asm file but nothing the label table covers
    with caplog.at_level(logging.WARNING), pytest.raises(NoAsmFiles):
        ingest_corpus(tmp_path, tmp_path / "labels.csv")
    assert "other.asm" in caplog.text and "'s1'" in caplog.text
    with pytest.raises(MissingLabels):
        ingest_corpus(tmp_path, tmp_path / "absent.csv")


NO_CODE_LISTING = ".data:00402000 db 0\n.idata:0040F000 extrn CreateFileA:dword\n"


def test_prepare_dataset_drops_listing_without_code(tmp_path, caplog):
    """Each dropped sample is one WARNING record across all loggers.

    Beside the labelled listing without code, the corpus has an
    unlabelled file and a label without a file.
    """
    generate_synthetic_corpus(small_spec(), tmp_path)  # families 1 and 2
    (tmp_path / "97_0000.asm").write_bytes((tmp_path / "01_0000.asm").read_bytes())
    (tmp_path / "99_0000.asm").write_text(NO_CODE_LISTING)
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text(labels_path.read_text() + "99_0000,3\nghost,1\n",
                           encoding="utf-8")
    cfg = ExperimentConfig(seed=1, corpus=tmp_path, labels=labels_path)
    with caplog.at_level(logging.WARNING):
        dataset = prepare_dataset(cfg)
    for sid in ("97_0000", "ghost", "99_0000"):
        hits = [r for r in caplog.records if sid in r.getMessage()]
        assert len(hits) == 1 and hits[0].levelno == logging.WARNING, (sid, hits)
    no_code = [r for r in caplog.records if "99_0000" in r.getMessage()]
    assert no_code[0].name == "mccrcnn.harness.experiments"
    assert len(dataset) == 8 and "99_0000" not in dataset.ids()
    assert dataset.l == 2  # the dropped listing's label 3 does not count


def test_prepare_dataset_orders_records_by_id_not_path(tmp_path):
    generate_synthetic_corpus(small_spec(), tmp_path / "src")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for sid, source in (("a", "01_0000"), ("a-b", "02_0000"), ("a_b", "01_0001")):
        (corpus / f"{sid}.asm").write_bytes((tmp_path / "src" / f"{source}.asm").read_bytes())
    (corpus / "labels.csv").write_text("a_b,1\na,1\na-b,2\n", encoding="utf-8")
    assert [p.stem for p in sorted(corpus.glob("*.asm"))] == ["a-b", "a", "a_b"]
    dataset = prepare_dataset(ExperimentConfig(seed=1, corpus=corpus,
                                               labels=corpus / "labels.csv"))
    assert dataset.ids() == ["a", "a-b", "a_b"]
    assert dataset.labels() == [1, 2, 1] and dataset.l == 2


def test_cli_all_listings_without_code_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for sid in ("s1", "s2"):
        (corpus / f"{sid}.asm").write_text(NO_CODE_LISTING)
    (corpus / "labels.csv").write_text("s1,1\ns2,2\n", encoding="utf-8")
    assert main(["extract", str(cfg)]) == 3
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "code-section" in errors[0], err
    assert "Traceback" not in err


# ------------------------------------------------------ experiment suites
# Frozen copy of the suites as they were before each became a per-fold
# generator: every suite ran its own fold loop and scored its own rows.

def reference_fold_metrics(rep, fold, variant, cm):
    std = standard_metrics(cm)
    rep.add(fold, f"{variant}/ovr_accuracy", ovr_accuracy(cm))
    rep.add(fold, f"{variant}/micro_accuracy", std["micro_accuracy"])
    rep.add(fold, f"{variant}/macro_f1", std["macro_f1"])


def reference_run_nn(variant, arch, to_matrix, cfg, fold, train_split, test_split, rep, l):
    params, _history = train(
        model_cfg_for(cfg, arch), train_split, train_cfg_for(cfg, fold),
        to_matrix=to_matrix,
    )
    preds = predict(params, [to_matrix(p) for p in test_split.payloads()])
    reference_fold_metrics(rep, fold, variant, confusion(preds.tolist(), test_split.labels(), l))


def reference_experiment_a(cfg, dataset, rep):
    ms = cfg.model
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        op_train = [p[0] for p in train_split.payloads()]
        for n in cfg.ngram.sweep:
            fs = select_ngram_features(op_train, n)
            dim = len(fs.grams)

            def onehot_of(payload, fs=fs, dim=dim):
                return onehot_matrix(ngram_id_sequence(payload[0], fs, ms.seq_len), dim)

            reference_run_nn(f"ngram{n}_lstm", "lstm", onehot_of, cfg, fold,
                             train_split, test_split, rep, dataset.l)
        to_matrix = matrix_fn("opcode", *fit_tables("opcode", train_split, cfg, fold),
                              cfg.model.seq_len)
        reference_run_nn("glove_lstm", "lstm", to_matrix, cfg, fold,
                         train_split, test_split, rep, dataset.l)


def reference_experiment_b1(cfg, dataset, rep):
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        to_matrix = matrix_fn("opcode", *fit_tables("opcode", train_split, cfg, fold),
                              cfg.model.seq_len)
        for variant, arch in (
            ("opcode_lstm", "lstm"),
            ("opcode_gcnn", "gcnn"),
            ("opcode_mccrcnn", "mcc_rcnn"),
        ):
            reference_run_nn(variant, arch, to_matrix, cfg, fold,
                             train_split, test_split, rep, dataset.l)
        xtr = np.stack([to_matrix(p).mean(axis=0) for p in train_split.payloads()])
        xte = np.stack([to_matrix(p).mean(axis=0) for p in test_split.payloads()])
        ytr = np.array(train_split.labels())
        std = Standardizer.fit(xtr)
        model, _ = train_svm(std.transform(xtr), ytr, l=dataset.l)
        preds = model.predict(std.transform(xte))
        reference_fold_metrics(
            rep, fold, "opcode_svm", confusion(preds.tolist(), test_split.labels(), dataset.l)
        )


def reference_experiment_b2(cfg, dataset, rep):
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        to_matrix = matrix_fn("fused", *fit_tables("fused", train_split, cfg, fold),
                              cfg.model.seq_len)
        reference_run_nn("fused_mccrcnn", "mcc_rcnn", to_matrix, cfg, fold,
                         train_split, test_split, rep, dataset.l)
        op_train = [p[0] for p in train_split.payloads()]
        ytr = np.array(train_split.labels())
        ytest = test_split.labels()
        for n in cfg.ngram.sweep:
            fs = select_ngram_features(op_train, n)
            xtr = np.stack([ngram_vector(p[0], fs) for p in train_split.payloads()])
            xte = np.stack([ngram_vector(p[0], fs) for p in test_split.payloads()])
            xtr_f = xtr.astype(np.float64)
            xte_f = xte.astype(np.float64)
            std = Standardizer.fit(xtr_f)
            logi, _ = train_logistic(std.transform(xtr_f), ytr, l=dataset.l)
            preds = logi.predict(std.transform(xte_f))
            reference_fold_metrics(
                rep, fold, f"logistic_ngram{n}", confusion(preds.tolist(), ytest, dataset.l)
            )
            nb = train_nb(xtr_f, ytr, l=dataset.l)
            preds = nb.predict(xte_f)
            reference_fold_metrics(
                rep, fold, f"nb_ngram{n}", confusion(preds.tolist(), ytest, dataset.l)
            )
            preds = knn_predict(std.transform(xtr_f), ytr, std.transform(xte_f))
            reference_fold_metrics(
                rep, fold, f"knn_ngram{n}", confusion(preds.tolist(), ytest, dataset.l)
            )


def reference_experiment_c(cfg, dataset, rep):
    for fold, train_split, test_split in _iter_folds(cfg, dataset):
        op_table, api_table = fit_tables("fused", train_split, cfg, fold)
        for which in ("opcode", "api", "fused"):
            to_matrix = matrix_fn(which, op_table, api_table, cfg.model.seq_len)
            reference_run_nn(f"{which}_mccrcnn", "mcc_rcnn", to_matrix, cfg, fold,
                             train_split, test_split, rep, dataset.l)


REFERENCE_SUITES = {
    "A": reference_experiment_a,
    "B1": reference_experiment_b1,
    "B2": reference_experiment_b2,
    "C": reference_experiment_c,
}


@pytest.mark.parametrize("name", [*sorted(REFERENCE_SUITES), "A+B1+B2+C"])
def test_suite_reports_equal_frozen_suites(tmp_path, name):
    """Each suite's report and summary are byte-identical to the frozen
    copy, from a run of that suite alone and from one run of all four."""
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(
        SyntheticCorpusSpec(families=3, samples_per_family=8, seed=5), corpus)
    # small, yet long enough that the neural variants leave chance level
    cfg = ExperimentConfig(
        seed=5, corpus=corpus, labels=corpus / "labels.csv", out_dir=tmp_path / "out",
        folds=2, embedding=EmbeddingSettings(k=6, window=4, epochs=8),
        model=ModelSettings(seq_len=24, hidden=6, conv_channels=6),
        train=TrainSettings(epochs=6, batch_size=4),
    )
    names = name.split("+")
    csv_paths = run_experiments(names, cfg)
    assert csv_paths == [tmp_path / "out" / f"report_{suite}.csv" for suite in names]
    for suite, csv_path in zip(names, csv_paths):
        rep = _Report(suite)
        rep.add("-", "seed", cfg.seed)
        REFERENCE_SUITES[suite](cfg, prepare_dataset(cfg), rep)
        rep.finish(cfg.folds)
        assert csv_path.read_text(encoding="utf-8") == rep.csv_text()
        summary = (tmp_path / "out" / f"summary_{suite}.txt").read_text(encoding="utf-8")
        assert summary == rep.summary_text(cfg)
        variants = {m.split("/")[0] for m in rep.fold_values()}
        assert len(variants) == {"A": 5, "B1": 4, "B2": 13, "C": 3}[suite]


def test_b2_holds_one_ngram_size_at_a_time(tmp_path, monkeypatch):
    """Each n's count matrix, which Standardizer.fit receives, is dead by
    the time the next n's features are selected."""
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(small_spec(), corpus)
    counts: list[weakref.ref] = []
    alive_at_select = []
    fit = Standardizer.fit

    def recording_fit(x):
        counts.append(weakref.ref(x))
        return fit(x)

    select = select_ngram_features

    def recording_select(sequences, n):
        alive_at_select.append([ref() is not None for ref in counts].count(True))
        return select(sequences, n)

    monkeypatch.setattr(Standardizer, "fit", recording_fit)
    monkeypatch.setattr("mccrcnn.harness.experiments.select_ngram_features", recording_select)
    cfg = ExperimentConfig(seed=1, corpus=corpus, labels=corpus / "labels.csv",
                           out_dir=tmp_path / "out", folds=2,
                           embedding=EmbeddingSettings(k=6, window=4, epochs=4),
                           model=ModelSettings(seq_len=16, hidden=6, conv_channels=6),
                           train=TrainSettings(epochs=2, batch_size=4))
    run_experiment("B2", cfg)
    assert len(counts) == 2 * len(cfg.ngram.sweep) == 8
    assert alive_at_select == [0] * 8


def test_suite_training_runs_no_epoch_predict(tmp_path, monkeypatch):
    """The suites discard train's history, so train predicts nothing: the
    only predict calls are the test-split ones, one per fold."""
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(small_spec(families=3, samples_per_family=6), corpus)
    callers = []
    real_predict = neural.predict

    def recording_predict(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(neural, "predict", recording_predict)
    monkeypatch.setattr(experiments, "predict", recording_predict)
    cfg = ExperimentConfig(seed=1, corpus=corpus, labels=corpus / "labels.csv",
                           out_dir=tmp_path / "out", folds=2,
                           embedding=EmbeddingSettings(k=6, window=4, epochs=4),
                           model=ModelSettings(seq_len=16, hidden=6, conv_channels=6),
                           train=TrainSettings(epochs=2, batch_size=4))
    run_experiment("B2", cfg)
    assert callers == ["_nn_predictions"] * cfg.folds


@pytest.mark.parametrize("seed", [1, 2])
def test_b2_fused_beats_ngram_baselines_on_fusion_mode_corpus(tmp_path, seed):
    """The paper's headline, on a corpus where it can fail.

    In a fusion_mode corpus the family is the XOR of the opcode and API
    styles, so opcode n-grams alone sit near chance.  A survey of seeds
    1..12 (2 x 100 samples, 2 folds) read fused 1.0 on every seed and a
    best baseline mean of 0.51..0.61; 0.75 leaves a 0.14 margin.
    """
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(SyntheticCorpusSpec(
        families=2, samples_per_family=100, seed=seed, fusion_mode=True), corpus)
    cfg = ExperimentConfig(seed=seed, corpus=corpus, labels=corpus / "labels.csv",
                           out_dir=tmp_path / "out", folds=2)
    with open(run_experiment("B2", cfg), encoding="utf-8") as fh:
        means = {r["metric"].split("/")[0]: float(r["value"]) for r in csv.DictReader(fh)
                 if r["fold"] == "mean" and r["metric"].endswith("/micro_accuracy")}
    assert len(means) == 13, means
    assert means.pop("fused_mccrcnn") >= 0.95
    assert all(acc <= 0.75 for acc in means.values()), means


# ------------------------------------------------------------- checkpoints

def random_table(seed=0, nv=5, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        tokens=tuple(f"tok{i}" for i in range(nv)),
        w=rng.normal(size=(nv, k)), w_ctx=rng.normal(size=(nv, k)),
        b=rng.normal(size=nv), b_ctx=rng.normal(size=nv),
    )


def test_embedding_checkpoint_round_trip(tmp_path):
    table = random_table()
    path = tmp_path / "emb.ckpt"
    save_embedding(path, table)
    back = load_embedding(path)
    assert back.tokens == table.tokens
    for name in ("w", "w_ctx", "b", "b_ctx"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name


@pytest.mark.parametrize("arch", ["mcc_rcnn", "lstm", "gcnn"])
def test_model_checkpoint_round_trip(tmp_path, arch):
    params = init_params(ModelConfig(arch=arch, conv_channels=5, kernel_width=3),
                         input_dim=4, classes=3, hidden=6, seed=2)
    path = tmp_path / "model.ckpt"
    save_model(path, params, seq_len=17)
    back, seq_len = load_model(path)
    assert seq_len == 17
    assert (back.lstm is None, back.conv is None) == (params.lstm is None, params.conv is None)
    want = named_params(params)
    got = named_params(back)
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_checkpoint_corruption_is_detected(tmp_path):
    table = random_table(seed=1)
    path = tmp_path / "emb.ckpt"
    save_embedding(path, table)
    text = path.read_text()

    flipped = text.replace("tok1", "tok9", 1)
    path.write_text(flipped)
    with pytest.raises(CorruptFile, match="checksum"):
        load_embedding(path)

    lines = text.split("\n")
    path.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(CorruptFile):
        load_embedding(path)


def test_checkpoint_version_gate_beats_checksum(tmp_path):
    table = random_table(seed=2)
    path = tmp_path / "emb.ckpt"
    save_embedding(path, table)
    text = path.read_text()
    # breaking the header also breaks the checksum; version must win
    path.write_text(text.replace("GLOVEEMB v1", "GLOVEEMB v9", 1))
    with pytest.raises(FormatVersionMismatch):
        load_embedding(path)
    path.write_text(text.replace("GLOVEEMB v1", "OTHERFMT v1", 1))
    with pytest.raises(FormatVersionMismatch):
        load_embedding(path)
    model_path = tmp_path / "model.ckpt"
    params = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                         input_dim=3, classes=2, hidden=4)
    save_model(model_path, params, seq_len=8)
    with pytest.raises(FormatVersionMismatch):
        load_embedding(model_path)  # wrong magic for this loader


def small_checkpoint(path, kind):
    """Write a small model or embedding checkpoint; returns its loader."""
    if kind == "model":
        params = init_params(ModelConfig(conv_channels=2, kernel_width=1),
                             input_dim=2, classes=2, hidden=1, seed=3)
        save_model(path, params, seq_len=4)
        return load_model
    save_embedding(path, random_table(seed=3, nv=2, k=2))
    return load_embedding


@pytest.mark.parametrize("kind", ["model", "embedding"])
def test_every_byte_set_to_ff_gives_a_typed_error(tmp_path, kind):
    # 0xFF is never valid UTF-8, so each flip must surface as a typed error
    path = tmp_path / "small.ckpt"
    load = small_checkpoint(path, kind)
    load(path)
    data = path.read_bytes()
    for pos in range(len(data)):
        path.write_bytes(data[:pos] + b"\xff" + data[pos + 1:])
        with pytest.raises((CorruptFile, FormatVersionMismatch)):
            load(path)


@pytest.mark.parametrize("kind", ["model", "embedding"])
def test_changed_line_endings_are_corrupt(tmp_path, kind):
    """Each newline turned to CR, or the last one to other whitespace, fails."""
    path = tmp_path / "small.ckpt"
    load = small_checkpoint(path, kind)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    variants = [data[:pos] + b"\r" + data[pos + 1:]
                for pos in range(len(data)) if data[pos:pos + 1] == b"\n"]
    variants += [data[:-1] + bytes([b]) for b in range(256)
                 if chr(b).isspace() and b != ord("\n")]
    variants += [data.replace(b"\n", b"\r\n"), data[:-1], data + b"\n"]
    for variant in variants:
        path.write_bytes(variant)
        with pytest.raises(CorruptFile):
            load(path)


def write_old_model(path, params, seq_len, version):
    """A model file in an earlier layout of a fused model.

    v1 held eight per-gate LSTM blocks, v2 the stacked lstm.w and lstm.b.
    Both held the conv's linear kernel conv.w, conv.b and its gate kernel
    conv.v, conv.g as four blocks.
    """
    h, c = params.lstm.hidden, params.conv.out_channels
    lines = [f"MCCRCNN {version} {params.input_dim} {h} {c} "
             f"{params.conv.width} {params.l} {seq_len}"]
    for kind, arr in (("w", params.lstm.w), ("b", params.lstm.b)):
        if version == "v1":
            for n, gate in enumerate("fioc"):
                _append_block(lines, f"lstm.{kind}_{gate}", arr[n * h:(n + 1) * h])
        else:
            _append_block(lines, f"lstm.{kind}", arr)
    for name, arr in (("conv.w", params.conv.w[:, :, :c]), ("conv.b", params.conv.b[:c]),
                      ("conv.v", params.conv.w[:, :, c:]), ("conv.g", params.conv.b[c:]),
                      ("dense.w", params.dense_w), ("dense.b", params.dense_b)):
        _append_block(lines, name, arr)
    _write_checkpoint(path, lines)


def test_v1_model_checkpoint_is_refused(tmp_path):
    params = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                         input_dim=3, classes=2, hidden=4)
    path = tmp_path / "model.ckpt"
    write_old_model(path, params, seq_len=8, version="v1")
    with pytest.raises(FormatVersionMismatch, match="format v1, expected v3"):
        load_model(path)


def test_v2_model_checkpoint_is_refused(tmp_path):
    params = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                         input_dim=3, classes=2, hidden=4)
    path = tmp_path / "model.ckpt"
    write_old_model(path, params, seq_len=8, version="v2")
    blocks = [ln.split()[0] for ln in path.read_text().splitlines() if ln[:1].isalpha()]
    assert blocks == ["MCCRCNN", "lstm.w", "lstm.b", "conv.w", "conv.b", "conv.v", "conv.g",
                      "dense.w", "dense.b", "checksum"]
    with pytest.raises(FormatVersionMismatch, match="format v2, expected v3"):
        load_model(path)


# --------------------------------------------------------------------- CLI

def test_cli_pipeline_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    corpus = tmp_path / "corpus"
    assert (corpus / "labels.csv").exists()
    assert len(list(corpus.glob("*.asm"))) == 12
    capsys.readouterr()

    assert main(["ingest", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "samples=12 classes=2", "class 1: 6", "class 2: 6"]
    assert main(["extract", str(cfg)]) == 0
    out = tmp_path / "out"
    run = dataclasses.replace(load_config(cfg), labels=corpus / "labels.csv")
    payloads = prepare_dataset(run).payloads()
    assert len(payloads) == 12
    for i, stream in enumerate(STREAMS):  # one row per sample: id, stream name, tokens
        text = (out / f"{stream}_sequences.tsv").read_text(encoding="utf-8")
        rows = [line.split("\t") for line in text.splitlines()]
        assert [(sid, kind, tuple(toks.split())) for sid, kind, toks in rows] == [
            (p[i].sample_id, stream, p[i].tokens) for p in payloads]

    assert main(["embed", str(cfg)]) == 0
    assert (out / "opcode_glove.ckpt").exists()
    assert (out / "api_vectors.txt").exists()

    assert main(["train", str(cfg)]) == 0
    assert (out / "model.ckpt").exists()
    history = (out / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,loss,accuracy"
    assert len(history) == 3  # header + 2 epochs

    assert main(["eval", str(cfg)]) == 0
    report = (out / "eval_report.csv").read_text()
    assert report.startswith("metric,value")
    assert "micro_accuracy" in report
    capsys.readouterr()


def test_cli_empty_listing_mid_corpus_exit_3(tmp_path, capsys, monkeypatch):
    """Listings are parsed as the verb reaches them, so an empty one after
    three good ones fails mid-iteration: exit 3, one error line, no output."""
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    (tmp_path / "corpus" / "01_0003.asm").write_bytes(b"")
    capsys.readouterr()
    for verb in ("ingest", "extract"):
        parses = ParseCounter(monkeypatch)
        assert main([verb, str(cfg)]) == 3, verb
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["error: 01_0003: no lines to parse"], captured.err
        assert "Traceback" not in captured.err and captured.out == "", captured
        assert len(parses.alive_at_parse) == 4 and len(parses.made) == 3, verb
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("layer", ["opcode", "api"])
def test_cli_single_layer_pipeline(tmp_path, capsys, layer):
    """[model] features = one stream: embed, train and eval use its files only."""
    cfg = write_cfg(tmp_path, ini_text(model={"features": layer}))
    for verb in ("gen", "embed", "train", "eval"):
        assert main([verb, str(cfg)]) == 0, verb
    out = tmp_path / "out"
    assert [p.name for p in out.glob("*_glove.ckpt")] == [f"{layer}_glove.ckpt"]
    assert [p.name for p in out.glob("*_vectors.txt")] == [f"{layer}_vectors.txt"]
    rows = (out / "eval_report.csv").read_text().splitlines()[1:]
    assert rows and all(np.isfinite(float(row.split(",")[1])) for row in rows), rows
    capsys.readouterr()

    (out / f"{layer}_glove.ckpt").unlink()
    assert main(["eval", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
    assert "Traceback" not in err

    nocorpus = write_cfg(tmp_path, ini_text(model={"features": layer}).replace(
        "corpus = corpus\n", ""), "nocorpus.ini")
    for verb in ("gen", "ingest"):
        assert main([verb, str(nocorpus)]) == 2, verb
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "config error: [data] corpus= is required"], err


def test_cli_experiment_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    assert main(["experiment", "C", str(cfg)]) == 0
    report = (tmp_path / "out" / "report_C.csv").read_text()
    assert report.splitlines()[0] == "experiment,fold,metric,value"
    assert "fused_mccrcnn" in report and "reference" in report
    assert (tmp_path / "out" / "summary_C.txt").exists()
    capsys.readouterr()


def test_cli_experiment_output_is_the_same_from_any_directory(tmp_path, capsys):
    """One config and seed, run from two directories: byte-identical files."""
    runs = [tmp_path / "a", tmp_path / "deeper" / "b"]
    for run in runs:
        run.mkdir(parents=True)
        cfg = write_cfg(run)
        assert main(["gen", str(cfg)]) == 0
        assert main(["experiment", "B2", str(cfg)]) == 0
    for name in ("report_B2.csv", "summary_B2.txt"):
        first, second = ((run / "out" / name).read_bytes() for run in runs)
        assert first == second, name
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseed = nope\n", encoding="utf-8")
    assert main(["ingest", str(bad)]) == 2
    assert main(["ingest", str(tmp_path / "absent.ini")]) == 2
    cfg = write_cfg(tmp_path)  # corpus directory never generated
    assert main(["ingest", str(cfg)]) == 3
    capsys.readouterr()


def test_cli_exit_code_matrix(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    params = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                         input_dim=6, classes=2, hidden=4, seed=1)
    save_model(out / "model.ckpt", params, seq_len=16)
    model = (out / "model.ckpt").read_bytes()
    for layer in ("opcode", "api"):  # fused k = 6 tables: 12 columns, not 6
        save_embedding(out / f"{layer}_glove.ckpt", random_table(k=6))
    (tmp_path / "latin1.ini").write_bytes(BASE_INI.encode() + b"# caf\xe9\n")
    write_cfg(tmp_path, BASE_INI.replace("seed = 5\n", ""), "noseed.ini")
    write_cfg(tmp_path, ini_text(data={"corpus": "absent"}), "nocorpus.ini")
    write_cfg(tmp_path, ini_text(data={"labels": "latin1.csv"}), "latin1labels.ini")
    (tmp_path / "latin1.csv").write_bytes(b"Id,Class\n01_0000,1\n\xff,2\n")
    # values that passed validation and then crashed, divided by zero,
    # diverged, trained nothing or wrote no mean; and keys deleted since,
    # which are unknown now: optimizer, then x_max, alpha, min_count, both
    # learning rates and the n-gram limit (fixed as library defaults)
    bad_values = {
        "epochs0": {"train": {"epochs": "0"}},
        "epochs-3": {"train": {"epochs": "-3"}},
        "batch0": {"train": {"batch_size": "0"}},
        "width-1": {"model": {"kernel_width": "-1"}},
        "channels-2": {"model": {"conv_channels": "-2"}},
        "channels0": {"model": {"conv_channels": "0"}},
        "xmax0": {"embedding": {"x_max": "0"}},
        "lr0": {"train": {"learning_rate": "0"}},
        "lr-1": {"train": {"learning_rate": "-1"}},
        "lrnan": {"train": {"learning_rate": "nan"}},
        "emblr0": {"embedding": {"learning_rate": "0"}},
        "emblr-1": {"embedding": {"learning_rate": "-1"}},
        "emblrnan": {"embedding": {"learning_rate": "nan"}},
        "alpha-1": {"embedding": {"alpha": "-1"}},
        "alphanan": {"embedding": {"alpha": "nan"}},
        "embepochs-3": {"embedding": {"epochs": "-3"}},
        "mincount-7": {"embedding": {"min_count": "-7"}},
        "optimizer": {"train": {"optimizer": "adagrad"}},
        # loaded, though the generator refuses min_len < 30
        "minlen10": {"synthetic": {"min_len": "10"}},
        # loaded, and then gen ran a per-token loop of ~5·10**11 draws
        "maxlen1e12": {"synthetic": {"max_len": "1000000000000"}},
        # loaded, and then numpy raised MemoryError or ValueError (exit 1),
        # or gen or B2 ran past any timeout
        "k1e12": {"embedding": {"k": "1000000000000"}},
        "window1e12": {"embedding": {"window": "1000000000000"}},
        "hidden1e12": {"model": {"hidden": "1000000000000"}},
        "channels1e12": {"model": {"conv_channels": "1000000000000"}},
        "width1e12": {"model": {"kernel_width": "1000000000001"}},
        "sweep1e12": {"ngram": {"sweep": "1000000000000"}},
        # loaded, and then train, embed and experiment never returned
        "epochs1e12": {"train": {"epochs": "1000000000000"}},
        "embepochs1e12": {"embedding": {"epochs": "1000000000000"}},
        "families1e12": {"synthetic": {"families": "1000000000000"}},
        "perfamily1e12": {"synthetic": {"samples_per_family": "1000000000000"}},
        "limit0": {"ngram": {"limit": "0"}},
        "sweep11": {"ngram": {"sweep": "1,1"}},
        "seed-3": {"run": {"seed": "-3"}},
    }
    for stem, overrides in bad_values.items():
        write_cfg(tmp_path, ini_text(**overrides), f"{stem}.ini")
    flipped_to_ff = model[:40] + b"\xff" + model[41:]
    head, block, row = model.split(b"\n")[:3]
    digit = len(head) + len(block) + 2 + row.index(b".") - 1  # first float's units digit
    flipped_digit = model[:digit] + (b"7" if model[digit] != ord("7") else b"8") + model[digit + 1:]
    # checksums hold, but the block shapes claim terabytes
    huge = 10**12
    _write_checkpoint(tmp_path / "huge_model.ckpt",
                      [f"MCCRCNN {_MODEL_VERSION} 6 {huge} 4 3 2 16",
                       f"lstm.w {4 * huge} {6 + huge}", "0.0"])
    _write_checkpoint(tmp_path / "huge_emb.ckpt",
                      [f"GLOVEEMB v1 1 {huge}", "tokens 1", "mov", f"w 1 {huge}", "0.0"])
    with pytest.raises(CorruptFile, match=f"lstm.w claims {4 * huge} rows"):
        load_model(tmp_path / "huge_model.ckpt")  # past the version check, to the row guard
    huge_model = (tmp_path / "huge_model.ckpt").read_bytes()
    huge_emb = (tmp_path / "huge_emb.ckpt").read_bytes()
    # checksums hold, but float() parsed a non-finite value; on a model of
    # the right width (6 + 6 fused columns) eval ran and exited 0 with
    # NaN probabilities
    model_cfg = ModelConfig(conv_channels=4, kernel_width=3)
    save_model(tmp_path / "fused.ckpt", init_params(model_cfg, input_dim=12, classes=2,
                                                    hidden=4, seed=1), seq_len=16)
    fused = (tmp_path / "fused.ckpt").read_bytes()
    emb = (out / "opcode_glove.ckpt").read_bytes()
    # checksums and shapes hold, but seq_len rows cannot be allocated: a
    # 10**16 x 6 float64 matrix is past any address space, and 2**60 x 6
    # past numpy's intp; eval and train raised MemoryError or ValueError
    long_models = []
    for seq_len in (10**16, 2**60):
        save_model(tmp_path / "long.ckpt", init_params(model_cfg, input_dim=12, classes=2,
                                                       hidden=4, seed=1), seq_len=seq_len)
        long_models.append((tmp_path / "long.ckpt").read_bytes())
    write_cfg(tmp_path, ini_text(model={"seq_len": str(10**16)}), "longseq.ini")
    # a class id past the bound: 10**12 asked numpy for a 43.7 TiB dense
    # layer, and 1001 classes for an 8 MB confusion table in eval
    labels = (tmp_path / "corpus" / "labels.csv").read_text(encoding="utf-8").split("\n")
    labels[1] = f"{labels[1].split(',')[0]},{MAX_CLASSES + 1}"
    (tmp_path / "bigclass.csv").write_text("\n".join(labels), encoding="utf-8")
    write_cfg(tmp_path, ini_text(data={"labels": "bigclass.csv"}), "bigclass.ini")
    save_model(tmp_path / "many.ckpt", init_params(model_cfg, input_dim=12,
                                                   classes=MAX_CLASSES + 1, hidden=4, seed=1),
               seq_len=16)
    many_classes = (tmp_path / "many.ckpt").read_bytes()
    # each listing calls one import, or none: GloVe had no api pair to
    # fit (a ValueError traceback), or no api token ("min_count=1", a key
    # nobody can set)
    for name, call in (("oneimport", ".text:00401003 call ds:Sleep"), ("noimport", "")):
        corpus = tmp_path / name
        corpus.mkdir()
        rows = ["Id,Class"]
        for i in range(12):
            (corpus / f"s{i:02d}.asm").write_text("\n".join([
                ".idata:0040F000 extrn Sleep:dword", ".text:00401000 start:",
                ".text:00401000 push ebp", ".text:00401001 mov ebp, esp", call,
                f".text:00401009 {'xor' if i % 2 else 'add'} eax, eax",
                ".text:0040100B pop ebp", ".text:0040100C retn"]), encoding="utf-8")
            rows.append(f"s{i:02d},{1 + i % 2}")
        (corpus / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        write_cfg(tmp_path, ini_text(data={"corpus": name}), f"{name}.ini")

    def with_value(data, block, value):
        lines = data.decode().split("\n")[:-2]  # without the checksum line
        row = 1 + next(i for i, ln in enumerate(lines) if ln.split()[:1] == [block])
        lines[row] = " ".join([value] + lines[row].split()[1:])
        _write_checkpoint(tmp_path / "edited.ckpt", lines)
        return (tmp_path / "edited.ckpt").read_bytes()

    (out / "model.ckpt").write_bytes(fused)
    assert main(["eval", str(cfg)]) == 0
    capsys.readouterr()
    cases = [
        ("ingest", "latin1.ini", {}, 2),
        ("ingest", "noseed.ini", {}, 2),
        ("ingest", "nocorpus.ini", {}, 3),
        ("ingest", "latin1labels.ini", {}, 3),
        ("eval", "cfg.ini", {"model.ckpt": flipped_to_ff}, 3),
        ("eval", "cfg.ini", {"model.ckpt": flipped_digit}, 3),
        ("eval", "cfg.ini", {"model.ckpt": huge_model}, 3),
        ("eval", "cfg.ini", {"model.ckpt": model}, 3),  # valid, but the wrong input width
        ("eval", "cfg.ini", {"model.ckpt": model, "opcode_glove.ckpt": huge_emb}, 3),
        ("eval", "cfg.ini", {"model.ckpt": with_value(fused, "lstm.w", "nan"),
                             "opcode_glove.ckpt": emb}, 3),
        ("eval", "cfg.ini", {"model.ckpt": with_value(fused, "dense.b", "inf")}, 3),
        ("eval", "cfg.ini", {"model.ckpt": fused,
                             "opcode_glove.ckpt": with_value(emb, "w", "1e999")}, 3),
    ] + [("eval", "cfg.ini", {"model.ckpt": data, "opcode_glove.ckpt": emb}, 3)
         for data in long_models + [many_classes]] + [
        ("train", "longseq.ini", {}, 3),
        ("train", "bigclass.ini", {}, 3),
        ("embed", "oneimport.ini", {}, 3),
        # a suite named twice, or a name that is no suite: one config error
        # line, not argparse's usage text
        ("experiment B2 B2", "cfg.ini", {}, 2),
        ("experiment B2 Z", "cfg.ini", {}, 2),
    ] + [("train", f"{stem}.ini", {}, 2) for stem in bad_values]
    for verb, name, files, code in cases:
        for file_name, data in files.items():
            (out / file_name).write_bytes(data)
        assert main([*verb.split(), str(tmp_path / name)]) == code, (verb, name)
        err = capsys.readouterr().err
        assert err.startswith("config error:" if code == 2 else "error:"), err
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err
    # the one error line names the stream, and the fold inside a suite
    for argv, needle in ((["train", "noimport.ini"], "error: api stream: no token"),
                         (["train", "oneimport.ini"], "error: api stream: no two tokens"),
                         (["experiment", "B2", "oneimport.ini"],
                          "error: api stream, fold 1: no two tokens")):
        assert main(argv[:-1] + [str(tmp_path / argv[-1])]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(needle) and "min_count" not in err, err
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err
    # a negative seed, from the file or the command line, was reported as
    # a missing one
    for argv in (["ingest", str(tmp_path / "seed-3.ini")], ["ingest", str(cfg), "--seed", "-7"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
    assert main(["ingest", str(tmp_path / "noseed.ini")]) == 2
    assert "a seed is required" in capsys.readouterr().err


#: what the mutation fuzz writes over one checkpoint token or one config
#: value: non-finite, overflowing, subnormal and signed-zero floats, text,
#: nothing, and an integer past every bound
FUZZ_VALUES = ("nan", "inf", "-inf", "1e999", "1e-320", "-0", "abc", "", "9" * 30)
FUZZ_CHECKPOINT_CASES = 180
#: config values tried besides FUZZ_VALUES, some of them valid
FUZZ_CONFIG_VALUES = FUZZ_VALUES + ("0", "1", "3", "-1", "1,1", "true")


#: train runs of the label-table and listing fuzz, half of each kind
FUZZ_TRAIN_CASES = 60
#: tokens the listing fuzz swaps in: control flow, labels and an import
FUZZ_LISTING_TOKENS = (b"jmp", b"call", b"loc_401000:", b"start:", b"extrn")


def assert_clean_exit(case, code, err, report=None, columns=("value",)):
    """Exit 0 (with finite ``columns`` in ``report``, if given), or 2 or 3
    with one error line and no traceback."""
    assert code in (0, 2, 3), case
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, (case, err)
        assert "Traceback" not in err, case
    elif report is not None:
        with open(report, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(np.isfinite(float(r[c])) for r in rows for c in columns), (case, rows)


def test_mutation_fuzz_ends_in_a_result_or_one_error_line(tmp_path, capsys):
    """One token of a trained checkpoint, or one config value, set to a
    hostile value: eval and ingest end in a result or in exit 2 or 3 with
    one error line, never in a traceback.  pytest turns a RuntimeWarning
    into an error, so a numpy overflow or invalid value fails it too."""
    cfg = write_cfg(tmp_path)
    write_cfg(tmp_path, ini_text(model={"features": "opcode"}), "opcode.ini")
    assert main(["gen", str(cfg)]) == 0
    checkpoints = []
    for ini in (cfg, tmp_path / "opcode.ini"):
        out = tmp_path / f"out_{ini.stem}"
        assert main(["train", str(ini), "--out", str(out)]) == 0
        for path in sorted(out.glob("*.ckpt")):  # model.ckpt and each <stream>_glove.ckpt
            lines = path.read_text(encoding="utf-8").split("\n")[:-2]  # less the checksum
            checkpoints.append((ini, out, path, lines))
    assert len(checkpoints) == 5
    capsys.readouterr()
    rng = np.random.default_rng(7)
    for case in range(FUZZ_CHECKPOINT_CASES):
        ini, out, path, lines = checkpoints[case % len(checkpoints)]
        row = int(rng.integers(len(lines)))
        tokens = lines[row].split(" ")
        col = int(rng.integers(len(tokens)))
        tokens[col] = FUZZ_VALUES[case % len(FUZZ_VALUES)]
        _write_checkpoint(path, lines[:row] + [" ".join(tokens)] + lines[row + 1:])
        (out / "eval_report.csv").unlink(missing_ok=True)
        code = main(["eval", str(ini), "--out", str(out)])
        assert_clean_exit((path.name, row, col, tokens[col]), code, capsys.readouterr().err,
                          out / "eval_report.csv")
        _write_checkpoint(path, lines)
    keys = [line.split("=")[0] for line in config_echo(load_config(cfg))]
    assert len(keys) == 19
    for key in keys:
        section, name = key.split(".")
        for value in FUZZ_CONFIG_VALUES:
            write_cfg(tmp_path, ini_text(**{section: {name: value}}), "fuzz.ini")
            code = main(["ingest", str(tmp_path / "fuzz.ini")])
            assert_clean_exit((key, value), code, capsys.readouterr().err)


def mutate_listing(data: bytes, rng) -> bytes:
    """Flip one bit, truncate, duplicate a line, or swap in one token."""
    op = int(rng.integers(4))
    if op == 0 and data:
        pos = int(rng.integers(len(data)))
        return data[:pos] + bytes([data[pos] ^ 1 << int(rng.integers(8))]) + data[pos + 1:]
    if op == 1:
        return data[:int(rng.integers(len(data) + 1))]
    lines = data.split(b"\n")
    row = int(rng.integers(len(lines)))
    if op == 2:
        return b"\n".join(lines[:row + 1] + lines[row:])
    tokens = lines[row].split(b" ")
    tokens[int(rng.integers(len(tokens)))] = FUZZ_LISTING_TOKENS[
        int(rng.integers(len(FUZZ_LISTING_TOKENS)))]
    return b"\n".join(lines[:row] + [b" ".join(tokens)] + lines[row + 1:])


def test_mutation_fuzz_of_labels_and_listings_ends_in_a_result_or_one_error_line(
        tmp_path, capsys):
    """One field of labels.csv set to a hostile value, or one listing
    mutated: train ends in exit 0 with finite history.csv values, or in
    exit 2 or 3 with one error line, never in a traceback."""
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    corpus, history = tmp_path / "corpus", tmp_path / "out" / "history.csv"
    labels = (corpus / "labels.csv").read_text(encoding="utf-8").split("\n")
    listings = sorted(corpus.glob("*.asm"))
    capsys.readouterr()
    rng = np.random.default_rng(11)
    for case in range(FUZZ_TRAIN_CASES):
        if case % 2:
            path = listings[int(rng.integers(len(listings)))]
            original = path.read_bytes()
            path.write_bytes(mutate_listing(original, rng))
            what = (path.name, case)
        else:
            path, original = corpus / "labels.csv", "\n".join(labels).encode("utf-8")
            row = int(rng.integers(len(labels) - 1))  # the last line is empty
            fields = labels[row].split(",")
            col = int(rng.integers(len(fields)))
            fields[col] = FUZZ_CONFIG_VALUES[int(rng.integers(len(FUZZ_CONFIG_VALUES)))]
            path.write_text("\n".join(labels[:row] + [",".join(fields)] + labels[row + 1:]),
                            encoding="utf-8")
            what = (row, col, fields[col])
        history.unlink(missing_ok=True)
        code = main(["train", str(cfg)])
        assert_clean_exit(what, code, capsys.readouterr().err, history,
                          columns=("loss", "accuracy"))
        path.write_bytes(original)

def test_cli_suite_a_seq_len_too_large_exit_3(tmp_path, capsys):
    """Suite A's n-gram rows take seq_len too; 10**16 of them cannot exist."""
    cfg = write_cfg(tmp_path, ini_text(model={"seq_len": str(10**16)}))
    assert main(["gen", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["experiment", "A", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seq_len" in err, err
    assert "Traceback" not in err


def eval_trained_model_rewritten(tmp_path, capsys, version):
    """Train, rewrite the checkpoint in an old layout, run eval in a subprocess."""
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "model.ckpt"
    params, seq_len = load_model(ckpt)
    write_old_model(ckpt, params, seq_len, version)
    return subprocess.run(
        [sys.executable, "-m", "mccrcnn.harness.cli", "eval", str(cfg)],
        capture_output=True, text=True,
    )


def test_cli_eval_refuses_v1_model_with_exit_3(tmp_path, capsys):
    proc = eval_trained_model_rewritten(tmp_path, capsys, "v1")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "format v1, expected v3" in proc.stderr


def test_cli_eval_refuses_v2_model_with_exit_3(tmp_path, capsys):
    proc = eval_trained_model_rewritten(tmp_path, capsys, "v2")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "format v2, expected v3" in proc.stderr


def test_console_script_entry_point(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "mccrcnn.harness.cli", "gen", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "corpus" / "manifest.json").exists()
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    assert manifest["spec"]["seed"] == 5


def test_cli_seed_override_changes_corpus(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg), "--seed", "5"]) == 0
    first = (tmp_path / "corpus" / "01_0000.asm").read_bytes()
    assert main(["gen", str(cfg), "--seed", "6"]) == 0
    second = (tmp_path / "corpus" / "01_0000.asm").read_bytes()
    assert first != second
    assert main(["gen", str(cfg), "--seed", "5"]) == 0
    assert (tmp_path / "corpus" / "01_0000.asm").read_bytes() == first
