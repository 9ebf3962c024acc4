"""Config parsing, synthetic corpora, ingest, checkpoints, and the CLI."""

import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from mccrcnn.asmlite import parse_asm_bytes
from mccrcnn.embedding import EmbeddingTable
from mccrcnn.errors import ConfigError
from mccrcnn.extraction import build_relation_graph, extract_key_api_sequence
from mccrcnn.harness.cli import main
from mccrcnn.harness.config import ExperimentConfig, config_echo, load_config
from mccrcnn.harness.experiments import prepare_dataset
from mccrcnn.harness.ingest import (
    MissingLabels,
    NoAsmFiles,
    ingest_corpus,
    read_labels,
)
from mccrcnn.harness.persist import (
    CorruptFile,
    FormatVersionMismatch,
    _append_block,
    _write_checkpoint,
    load_embedding,
    load_model,
    save_embedding,
    save_model,
)
from mccrcnn.harness.synth import (
    DEFAULT_APIS,
    SyntheticCorpusSpec,
    generate_synthetic_corpus,
)
from mccrcnn.neural import ModelConfig, init_params, named_params

def ini_text(**overrides):
    base = {
        "run": {"seed": "5", "folds": "2", "out": "out"},
        "data": {"corpus": "corpus"},
        "synthetic": {"families": "2", "samples_per_family": "6",
                      "min_len": "40", "max_len": "60"},
        "embedding": {"k": "6", "window": "4", "epochs": "4"},
        "model": {"seq_len": "16", "hidden": "6", "conv_channels": "6"},
        "train": {"epochs": "2", "batch_size": "4"},
        "ngram": {"limit": "50"},
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
    assert cfg.embedding.k == 6 and cfg.embedding.alpha == 0.75
    assert cfg.model.arch == "mcc_rcnn"
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
    ({"train": {"optimizer": "adam"}}, "optimizer"),
    ({"synthetic": {"fusion_mode": "maybe"}}, "cannot parse"),
])
def test_config_rejects_bad_input(tmp_path, overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write_cfg(tmp_path, ini_text(**overrides)))


def test_config_echo_lists_every_setting(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    lines = config_echo(cfg)
    assert "run.seed=5" in lines
    assert "embedding.alpha=0.75" in lines
    assert "ngram.sweep=1,2,3,4" in lines
    assert f"data.corpus={tmp_path / 'corpus'}" in lines
    assert len(lines) == len(set(lines))
    assert sum(1 for ln in lines if ln.startswith("train.")) == 4


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
        dict(opcode_alphabet=("mov", "add", "mov", "sub", "inc", "dec")),
        dict(opcode_alphabet=("mov", "add", "call", "sub", "inc", "dec")),
        dict(opcode_alphabet=("mov", "add", "jz", "sub", "inc", "dec")),
        dict(api_alphabet=("A", "B", "C")),
        dict(fusion_mode=True, api_alphabet=DEFAULT_APIS[:6]),
    ):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(small_spec(**kw), tmp_path / "x")


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


@pytest.mark.parametrize("text", [
    "",
    "Id,Class\n",
    "s1,2\ns1,3\n",
    "Id,Class\ns1,zero\n",
    "Id,Class\ns1,0\n",
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
    assert "99_0000" in caplog.text and "ghost" in caplog.text
    assert len(asms) == 8 and "ghost" not in labels
    assert [a.sample_id for a in asms] == sorted(a.sample_id for a in asms)


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



def test_prepare_dataset_drops_listing_without_code(tmp_path, caplog):
    generate_synthetic_corpus(small_spec(), tmp_path)
    (tmp_path / "99_0000.asm").write_text(
        ".data:00402000 db 0\n.idata:0040F000 extrn CreateFileA:dword\n")
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text(labels_path.read_text() + "99_0000,1\n", encoding="utf-8")
    cfg = ExperimentConfig(seed=1, corpus=tmp_path, labels=labels_path)
    with caplog.at_level(logging.WARNING):
        dataset = prepare_dataset(cfg)
    dropped = [r.getMessage() for r in caplog.records
               if r.name == "mccrcnn.harness.experiments"]
    assert len(dropped) == 1 and "99_0000" in dropped[0]
    assert len(dataset) == 8 and "99_0000" not in dataset.ids()

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
    params = init_params(ModelConfig(arch=arch, conv_channels=5),
                         input_dim=4, classes=3, hidden=6, seed=2)
    path = tmp_path / "model.ckpt"
    save_model(path, params, seq_len=17)
    back, seq_len = load_model(path)
    assert seq_len == 17
    assert back.arch == arch
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
    params = init_params(ModelConfig(), input_dim=3, classes=2, hidden=4)
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


def write_v1_model(path, params, seq_len):
    """A model file in the v1 layout, with eight per-gate LSTM blocks."""
    h = params.lstm.hidden
    lines = [f"MCCRCNN v1 {params.input_dim} {h} {params.conv.out_channels} "
             f"{params.conv.width} {params.l} {seq_len}"]
    for kind, arr in (("w", params.lstm.w), ("b", params.lstm.b)):
        for n, gate in enumerate("fioc"):
            _append_block(lines, f"lstm.{kind}_{gate}", arr[n * h:(n + 1) * h])
    for name, arr in named_params(params).items():
        if not name.startswith("lstm."):
            _append_block(lines, name, arr)
    _write_checkpoint(path, lines)


def test_v1_model_checkpoint_is_refused(tmp_path):
    params = init_params(ModelConfig(), input_dim=3, classes=2, hidden=4)
    path = tmp_path / "model.ckpt"
    write_v1_model(path, params, seq_len=8)
    with pytest.raises(FormatVersionMismatch, match="format v1, expected v2"):
        load_model(path)


# --------------------------------------------------------------------- CLI

def test_cli_pipeline_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    corpus = tmp_path / "corpus"
    assert (corpus / "labels.csv").exists()
    assert len(list(corpus.glob("*.asm"))) == 12

    assert main(["ingest", str(cfg)]) == 0
    assert main(["extract", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "opcode_sequences.tsv").exists()
    assert (out / "api_sequences.tsv").exists()

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


def test_cli_experiment_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    assert main(["experiment", "C", str(cfg)]) == 0
    report = (tmp_path / "out" / "report_C.csv").read_text()
    assert report.splitlines()[0] == "experiment,fold,metric,value"
    assert "fused_mccrcnn" in report and "reference" in report
    assert (tmp_path / "out" / "summary_C.txt").exists()
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
    params = init_params(ModelConfig(), input_dim=6, classes=2, hidden=4, seed=1)
    save_model(out / "model.ckpt", params, seq_len=16)
    model = (out / "model.ckpt").read_bytes()
    for layer in ("opcode", "api"):  # fused k = 6 tables: 12 columns, not 6
        save_embedding(out / f"{layer}_glove.ckpt", random_table(k=6))
    (tmp_path / "latin1.ini").write_bytes(BASE_INI.encode() + b"# caf\xe9\n")
    write_cfg(tmp_path, BASE_INI.replace("seed = 5\n", ""), "noseed.ini")
    write_cfg(tmp_path, ini_text(data={"corpus": "absent"}), "nocorpus.ini")
    write_cfg(tmp_path, ini_text(data={"labels": "latin1.csv"}), "latin1labels.ini")
    (tmp_path / "latin1.csv").write_bytes(b"Id,Class\n01_0000,1\n\xff,2\n")
    # values that passed validation and then crashed or divided by zero
    bad_values = {
        "epochs0": {"train": {"epochs": "0"}},
        "epochs-3": {"train": {"epochs": "-3"}},
        "batch0": {"train": {"batch_size": "0"}},
        "width-1": {"model": {"kernel_width": "-1"}},
        "channels-2": {"model": {"conv_channels": "-2"}},
        "channels0": {"model": {"conv_channels": "0"}},
        "xmax0": {"embedding": {"x_max": "0"}},
    }
    for stem, overrides in bad_values.items():
        write_cfg(tmp_path, ini_text(**overrides), f"{stem}.ini")
    flipped_to_ff = model[:40] + b"\xff" + model[41:]
    head, block, row = model.split(b"\n")[:3]
    digit = len(head) + len(block) + 2 + row.index(b".") - 1  # first float's units digit
    flipped_digit = model[:digit] + (b"7" if model[digit] != ord("7") else b"8") + model[digit + 1:]
    cases = [
        ("ingest", "latin1.ini", None, 2),
        ("ingest", "noseed.ini", None, 2),
        ("ingest", "nocorpus.ini", None, 3),
        ("ingest", "latin1labels.ini", None, 3),
        ("eval", "cfg.ini", flipped_to_ff, 3),
        ("eval", "cfg.ini", flipped_digit, 3),
        ("eval", "cfg.ini", model, 3),  # valid, but the wrong input width
    ] + [("train", f"{stem}.ini", None, 2) for stem in bad_values]
    for verb, name, model_bytes, code in cases:
        if model_bytes is not None:
            (out / "model.ckpt").write_bytes(model_bytes)
        assert main([verb, str(tmp_path / name)]) == code, (verb, name)
        err = capsys.readouterr().err
        assert err.startswith("config error:" if code == 2 else "error:"), err
        assert "Traceback" not in err


def test_cli_eval_refuses_v1_model_with_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen", str(cfg)]) == 0
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "model.ckpt"
    params, seq_len = load_model(ckpt)
    write_v1_model(ckpt, params, seq_len)
    proc = subprocess.run(
        [sys.executable, "-m", "mccrcnn.harness.cli", "eval", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "format v1, expected v2" in proc.stderr


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
