"""Corpus loading: .asm files plus a class-label table."""

from __future__ import annotations

import logging
from collections.abc import Iterator
from pathlib import Path

from ..asmlite import AsmFile, parse_asm_bytes
from ..errors import PipelineError
from .config import MAX_CLASSES

log = logging.getLogger(__name__)


class NoAsmFiles(PipelineError):
    """The corpus directory holds no .asm files."""


class MissingLabels(PipelineError):
    """The label table is absent, empty, or unreadable."""


def read_labels(path) -> dict[str, int]:
    """Parse a two-column Id,Class table.

    A first line whose second field is not an integer is treated as a
    header.  Fields may be double-quoted.  Classes must be integers in
    1..MAX_CLASSES.  A leading UTF-8 byte order mark is not part of the
    first id.
    """
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8-sig")
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
        if not 1 <= value <= MAX_CLASSES:
            raise MissingLabels(f"{p}:{lineno}: class must be in 1..{MAX_CLASSES}, got {value}")
        if sid in labels:
            raise MissingLabels(f"{p}:{lineno}: duplicate id {sid!r}")
        labels[sid] = value
    if not labels:
        raise MissingLabels(f"{p}: no labelled samples")
    return labels


def ingest_corpus(corpus_dir, labels_path) -> tuple[Iterator[AsmFile], dict[str, int]]:
    """Match the .asm files under corpus_dir to the label table.

    The sample id is the file stem.  Files meet labels here, from paths
    and the table alone: files without a label and labels without a file
    are dropped and logged, and NoAsmFiles or MissingLabels is raised
    before anything is read.  Returns (listings, kept labels).  The
    listings come in sample id order, and each file is read and parsed
    only when the iterator reaches it, so a caller that drops each
    AsmFile before taking the next holds one listing's records at a
    time.  Read and parse errors (OSError, EmptyFile) are therefore
    raised during the iteration.
    """
    root = Path(corpus_dir)
    paths = sorted(root.glob("*.asm"), key=lambda p: p.stem)
    if not paths:
        raise NoAsmFiles(f"no .asm files under {root}")
    labels = read_labels(labels_path)
    matched: list[Path] = []
    for path in paths:
        if path.stem in labels:
            matched.append(path)
        else:
            log.warning("file %s has no label, dropped", path.name)
    kept = {path.stem: labels[path.stem] for path in matched}
    for sid in sorted(set(labels) - set(kept)):
        log.warning("label for %r has no .asm file, dropped", sid)
    if not matched:
        raise NoAsmFiles(f"no .asm file under {root} matches the label table")
    return (parse_asm_bytes(path.read_bytes(), path.stem) for path in matched), kept
