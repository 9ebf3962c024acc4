"""Corpus loading: .asm files plus a class-label table."""

from __future__ import annotations

import logging
from pathlib import Path

from ..asmlite import AsmFile, parse_asm_bytes
from ..errors import PipelineError

log = logging.getLogger(__name__)


class NoAsmFiles(PipelineError):
    """The corpus directory holds no .asm files."""


class MissingLabels(PipelineError):
    """The label table is absent, empty, or unreadable."""


def read_labels(path) -> dict[str, int]:
    """Parse a two-column Id,Class table.

    A first line whose second field is not an integer is treated as a
    header.  Fields may be double-quoted.  Classes must be integers >= 1.
    """
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingLabels(f"cannot read label table {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MissingLabels(f"label table {p} is not UTF-8 text: {exc}") from exc
    labels: dict[str, int] = {}
    for lineno, line in enumerate(raw.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [f.strip().strip('"') for f in line.split(",")]
        if len(parts) < 2:
            raise MissingLabels(f"{p}:{lineno}: expected Id,Class")
        sid, cls = parts[0], parts[1]
        try:
            value = int(cls)
        except ValueError:
            if lineno == 1:
                continue
            raise MissingLabels(f"{p}:{lineno}: class {cls!r} is not an integer")
        if value < 1:
            raise MissingLabels(f"{p}:{lineno}: class must be >= 1, got {value}")
        if sid in labels:
            raise MissingLabels(f"{p}:{lineno}: duplicate id {sid!r}")
        labels[sid] = value
    if not labels:
        raise MissingLabels(f"{p}: no labelled samples")
    return labels


def ingest_corpus(corpus_dir, labels_path) -> tuple[list[AsmFile], dict[str, int]]:
    """Load every labelled .asm file under corpus_dir, sorted by id.

    The sample id is the file stem.  Files without a label and labels
    without a file are dropped and logged.
    """
    root = Path(corpus_dir)
    paths = sorted(root.glob("*.asm"))
    if not paths:
        raise NoAsmFiles(f"no .asm files under {root}")
    labels = read_labels(labels_path)
    parsed: list[AsmFile] = []
    kept: dict[str, int] = {}
    for path in paths:
        sid = path.stem
        if sid not in labels:
            log.warning("file %s has no label, dropped", path.name)
            continue
        parsed.append(parse_asm_bytes(path.read_bytes(), sid))
        kept[sid] = labels[sid]
    for sid in sorted(set(labels) - set(kept)):
        log.warning("label for %r has no .asm file, dropped", sid)
    if not parsed:
        raise NoAsmFiles(f"no .asm file under {root} matches the label table")
    return parsed, kept
