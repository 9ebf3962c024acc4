"""Command line driver.

Verbs: gen, ingest, extract, embed, train, eval, experiment.  Every verb
takes a config file plus optional --seed and --out overrides.  Exit
codes: 0 success, 2 configuration problems, 3 pipeline failures (bad
corpora, unreadable checkpoints, diverged training, I/O).
"""

from __future__ import annotations

import argparse
import logging
import shutil
import sys
from collections import Counter
from pathlib import Path

from ..embedding import write_text_embeddings
from ..errors import ConfigError, PipelineError
from ..extraction import write_sequences
from ..features import ShapeMismatch
from ..metrics import confusion, ovr_accuracy, standard_metrics
from ..neural import predict, train
from .config import ExperimentConfig, load_config
from .experiments import (
    fit_tables,
    matrix_fn,
    model_cfg_for,
    prepare_dataset,
    run_experiment,
    train_cfg_for,
)
from .ingest import ingest_corpus
from .persist import load_embedding, load_model, save_embedding, save_model
from .synth import SyntheticCorpusSpec, generate_synthetic_corpus


def _require_data(cfg: ExperimentConfig) -> None:
    if cfg.corpus is None:
        raise ConfigError("[data] corpus= is required for this command")
    if cfg.labels is None:
        cfg.labels = Path(cfg.corpus) / "labels.csv"


def _cmd_gen(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    if cfg.corpus is None:
        raise ConfigError("[data] corpus= names the directory to generate into")
    s = cfg.synthetic
    spec = SyntheticCorpusSpec(
        families=s.families, samples_per_family=s.samples_per_family,
        seed=cfg.seed, fusion_mode=s.fusion_mode,
        min_len=s.min_len, max_len=s.max_len,
    )
    try:
        manifest = generate_synthetic_corpus(spec, cfg.corpus)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    generated_labels = Path(cfg.corpus) / "labels.csv"
    if cfg.labels is not None and Path(cfg.labels) != generated_labels:
        shutil.copyfile(generated_labels, cfg.labels)
    print(f"wrote {len(manifest['samples'])} samples under {cfg.corpus}")
    return 0


def _cmd_ingest(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _require_data(cfg)
    files, labels = ingest_corpus(cfg.corpus, cfg.labels)
    counts = Counter(labels[f.sample_id] for f in files)
    print(f"samples={len(files)} classes={max(labels.values())}")
    for cls in sorted(counts):
        print(f"class {cls}: {counts[cls]}")
    return 0


def _cmd_extract(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _require_data(cfg)
    dataset = prepare_dataset(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sequences(out / "opcode_sequences.tsv", [p[0] for p in dataset.payloads()])
    write_sequences(out / "api_sequences.tsv", [p[1] for p in dataset.payloads()])
    print(f"wrote sequences for {len(dataset)} samples under {out}")
    return 0


def _save_tables(out: Path, op_table, api_table) -> None:
    if op_table is not None:
        save_embedding(out / "opcode_glove.ckpt", op_table)
        write_text_embeddings(out / "opcode_vectors.txt", op_table)
    if api_table is not None:
        save_embedding(out / "api_glove.ckpt", api_table)
        write_text_embeddings(out / "api_vectors.txt", api_table)


def _cmd_embed(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _require_data(cfg)
    dataset = prepare_dataset(cfg)
    op_table, api_table = fit_tables(cfg.model.features, dataset, cfg, fold=0)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_tables(out, op_table, api_table)
    for name, table in (("opcode", op_table), ("api", api_table)):
        if table is not None:
            print(f"{name}: |V|={len(table.tokens)} k={table.k}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _require_data(cfg)
    dataset = prepare_dataset(cfg)
    which = cfg.model.features
    op_table, api_table = fit_tables(which, dataset, cfg, fold=0)
    to_matrix = matrix_fn(which, op_table, api_table, cfg.model.seq_len)
    params, history = train(
        model_cfg_for(cfg, cfg.model.arch), dataset, train_cfg_for(cfg, 0),
        to_matrix=to_matrix,
    )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_tables(out, op_table, api_table)
    save_model(out / "model.ckpt", params, cfg.model.seq_len)
    with open(out / "history.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss,accuracy\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['loss']!r},{row['accuracy']!r}\n")
    final = history[-1]
    print(f"trained {cfg.model.arch} on {len(dataset)} samples, "
          f"final loss {final['loss']:.4f}, accuracy {final['accuracy']:.4f}")
    print(f"checkpoints under {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _require_data(cfg)
    dataset = prepare_dataset(cfg)
    out = Path(cfg.out_dir)
    params, seq_len = load_model(out / "model.ckpt")
    which = cfg.model.features
    op_table = api_table = None
    if which in ("opcode", "fused"):
        op_table = load_embedding(out / "opcode_glove.ckpt")
    if which in ("api", "fused"):
        api_table = load_embedding(out / "api_glove.ckpt")
    to_matrix = matrix_fn(which, op_table, api_table, seq_len)
    matrices = [to_matrix(p) for p in dataset.payloads()]
    if matrices[0].shape[1] != params.input_dim:
        raise ShapeMismatch(f"{which} features have {matrices[0].shape[1]} columns, "
                            f"the model takes {params.input_dim}")
    preds = predict(params, matrices)
    cm = confusion(preds.tolist(), dataset.labels(), max(dataset.l, params.l))
    rows = [("ovr_accuracy", ovr_accuracy(cm))]
    std = standard_metrics(cm)
    rows.append(("micro_accuracy", std["micro_accuracy"]))
    rows.append(("macro_f1", std["macro_f1"]))
    with open(out / "eval_report.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("metric,value\n")
        for name, value in rows:
            fh.write(f"{name},{value!r}\n")
    for name, value in rows:
        print(f"{name}={value:.4f}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _require_data(cfg)
    csv_path = run_experiment(args.name, cfg)
    print(f"wrote {csv_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mccrcnn",
        description="static-analysis malware family classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="path to an INI config file")
        sp.add_argument("--seed", type=int, default=None, help="override [run] seed")
        sp.add_argument("--out", default=None, help="override the output directory")

    specs = (
        ("gen", _cmd_gen, "generate a synthetic labelled corpus"),
        ("ingest", _cmd_ingest, "parse the corpus and report class counts"),
        ("extract", _cmd_extract, "write opcode and API token sequences"),
        ("embed", _cmd_embed, "train embeddings on the whole corpus"),
        ("train", _cmd_train, "train a classifier on the whole corpus"),
        ("eval", _cmd_eval, "evaluate saved checkpoints on a corpus"),
    )
    for name, fn, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("experiment", help="run a cross-validated suite")
    sp.add_argument("name", choices=("A", "B1", "B2", "C"), help="suite to run")
    common(sp)
    sp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
