"""Command line driver.

Verbs: gen, ingest, extract, embed, train, eval, experiment.  Every verb
takes a config file plus optional --seed and --out overrides.  main
loads it once, requires [data] corpus, defaults [data] labels to
<corpus>/labels.csv, and hands the config to the verb.  Exit codes: 0
success, 2 configuration problems, 3 pipeline failures (bad corpora,
unreadable checkpoints, diverged training, I/O).

experiment takes one or more suite names (A, B1, B2, C), each at most
once, and runs them over shared folds: each fold's tables and models
are made once for all of them, and each suite writes the same
report_<name>.csv and summary_<name>.txt as a run of it alone.  An
unknown or repeated name is a configuration problem.

Files are named per token stream (config.STREAMS): extract writes
<stream>_sequences.tsv for every stream; embed and train write
<stream>_glove.ckpt and <stream>_vectors.txt for the streams of the
[model] features layer (config.LAYERS), and eval loads the same files.
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
from ..metrics import confusion
from ..neural import predict, train
from .config import LAYERS, STREAMS, ExperimentConfig, load_config, synthetic_spec
from .experiments import (
    EXPERIMENTS,
    fit_tables,
    matrix_fn,
    metric_rows,
    model_cfg_for,
    prepare_dataset,
    run_experiments,
    train_cfg_for,
)
from .ingest import ingest_corpus
from .persist import load_embedding, load_model, save_embedding, save_model
from .synth import generate_synthetic_corpus


def _cmd_gen(cfg: ExperimentConfig, args) -> int:
    manifest = generate_synthetic_corpus(synthetic_spec(cfg), cfg.corpus)
    generated_labels = cfg.corpus / "labels.csv"
    if cfg.labels != generated_labels:
        shutil.copyfile(generated_labels, cfg.labels)
    print(f"wrote {len(manifest['samples'])} samples under {cfg.corpus}")
    return 0


def _cmd_ingest(cfg: ExperimentConfig, args) -> int:
    files, labels = ingest_corpus(cfg.corpus, cfg.labels)
    # parses every listing, one at a time, so a bad file still fails here
    counts = Counter(labels[f.sample_id] for f in files)
    print(f"samples={counts.total()} classes={max(labels.values())}")
    for cls in sorted(counts):
        print(f"class {cls}: {counts[cls]}")
    return 0


def _cmd_extract(cfg: ExperimentConfig, args) -> int:
    dataset = prepare_dataset(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, stream in enumerate(STREAMS):
        write_sequences(out / f"{stream}_sequences.tsv", stream,
                        [p[i] for p in dataset.payloads()])
    print(f"wrote sequences for {len(dataset)} samples under {out}")
    return 0


def _save_tables(out: Path, tables) -> None:
    for stream, table in zip(STREAMS, tables):
        if table is not None:
            save_embedding(out / f"{stream}_glove.ckpt", table)
            write_text_embeddings(out / f"{stream}_vectors.txt", table)


def _cmd_embed(cfg: ExperimentConfig, args) -> int:
    dataset = prepare_dataset(cfg)
    tables = fit_tables(cfg.model.features, dataset, cfg, fold=0)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_tables(out, tables)
    for stream, table in zip(STREAMS, tables):
        if table is not None:
            print(f"{stream}: |V|={len(table.tokens)} k={table.k}")
    return 0


def _cmd_train(cfg: ExperimentConfig, args) -> int:
    dataset = prepare_dataset(cfg)
    tables = fit_tables(cfg.model.features, dataset, cfg, fold=0)
    to_matrix = matrix_fn(cfg.model.features, *tables, cfg.model.seq_len)
    params, history = train(
        model_cfg_for(cfg, cfg.model.arch), dataset, train_cfg_for(cfg, 0),
        to_matrix=to_matrix,
    )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_tables(out, tables)
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


def _cmd_eval(cfg: ExperimentConfig, args) -> int:
    dataset = prepare_dataset(cfg)
    out = Path(cfg.out_dir)
    params, seq_len = load_model(out / "model.ckpt")
    which = cfg.model.features
    tables = [load_embedding(out / f"{stream}_glove.ckpt") if stream in LAYERS[which] else None
              for stream in STREAMS]
    to_matrix = matrix_fn(which, *tables, seq_len)
    preds = predict(params, dataset.payloads(), to_matrix=to_matrix)
    cm = confusion(preds.tolist(), dataset.labels(), max(dataset.l, params.l))
    rows = metric_rows(cm)
    with open(out / "eval_report.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("metric,value\n")
        for name, value in rows:
            fh.write(f"{name},{value!r}\n")
    for name, value in rows:
        print(f"{name}={value:.4f}")
    return 0


def _cmd_experiment(cfg: ExperimentConfig, args) -> int:
    for csv_path in run_experiments(args.names, cfg):
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

    sp = sub.add_parser("experiment", help="run cross-validated suites on shared folds")
    sp.add_argument("names", nargs="+", metavar="|".join(EXPERIMENTS), help="suites to run")
    common(sp)
    sp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        cfg = load_config(args.config, args.seed, args.out)
        if cfg.corpus is None:
            raise ConfigError("[data] corpus= is required")
        if cfg.labels is None:
            cfg.labels = cfg.corpus / "labels.csv"
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
