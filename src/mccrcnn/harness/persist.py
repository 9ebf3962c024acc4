"""Text checkpoints for embeddings and classifier parameters.

Both formats are line oriented: a magic+version header, named blocks
(`name` followed by the array shape, then one line of repr() floats per
row of the array flattened to 2-D), and a final `checksum <sha256>` line
over everything above it.  repr() round-trips every float exactly, so a
save/load cycle reproduces parameters bit for bit.  A block holding nan
or an infinity is corrupt, whatever its checksum says.

Ablation models simply omit the missing part: the header records 0 for
its dimensions and the loader infers the architecture from which blocks
are present.

Each format carries its own version.  Embeddings (GLOVEEMB) are v1.
Models (MCCRCNN) are v3: the LSTM is stored as the two stacked blocks
lstm.w (4h x (k + h)) and lstm.b (4h), and the gated convolution as
conv.w (w x in x 2c, linear then gate columns) and conv.b (2c).  v1
files (eight per-gate LSTM blocks) and v2 files (separate conv.v and
conv.g gate blocks) are refused with FormatVersionMismatch.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from ..embedding import EmbeddingTable
from ..errors import PipelineError
from ..neural import GatedConvParams, LstmParams, ModelParams, named_params
from .config import MAX_CLASSES

_EMB_MAGIC = "GLOVEEMB"
_EMB_VERSION = "v1"
_MODEL_MAGIC = "MCCRCNN"
_MODEL_VERSION = "v3"


class FormatVersionMismatch(PipelineError):
    """The file is not this checkpoint format or not this version."""


class CorruptFile(PipelineError):
    """Checksum or structure of a checkpoint does not hold."""


def _append_block(lines: list[str], name: str, arr: np.ndarray) -> None:
    a = np.asarray(arr, dtype=np.float64)
    lines.append(name + " " + " ".join(str(d) for d in a.shape))
    for row in a.reshape(-1, a.shape[-1]):
        lines.append(" ".join(repr(float(v)) for v in row))


def _write_checkpoint(path, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
        fh.write(f"checksum {digest}\n")


def _read_checked_lines(path, magic: str, version: str) -> list[str]:
    """Lines above the checksum line.

    The bytes are decoded strictly, with no newline translation, and the
    file must end with `checksum <sha256>` and one newline exactly as the
    writer wrote them, so a changed line ending fails the check.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorruptFile(f"{path}: empty checkpoint")
    head = lines[0].split()
    if len(head) < 2 or head[0] != magic:
        raise FormatVersionMismatch(f"{path}: not a {magic} checkpoint")
    if head[1] != version:
        raise FormatVersionMismatch(f"{path}: format {head[1]}, expected {version}")
    if not lines[-1].startswith("checksum ") or not text.endswith("\n"):
        raise CorruptFile(f"{path}: missing checksum line")
    payload = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if lines[-1] != f"checksum {digest}":
        raise CorruptFile(f"{path}: checksum mismatch")
    return lines[:-1]


class _BlockReader:
    def __init__(self, path, lines: list[str], pos: int):
        self.path = path
        self.lines = lines
        self.pos = pos

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise CorruptFile(f"{self.path}: truncated checkpoint")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Block ``name`` of the given shape.

        The header's shape must match and every row is parsed before the
        array is built, so a crafted header cannot make the reader
        allocate more than the file holds.  Every value must be finite.
        """
        head = self.next_line().split()
        if head[:1] != [name]:
            raise CorruptFile(f"{self.path}: expected block {name!r}, got {' '.join(head[:1])!r}")
        if head[1:] != [str(d) for d in shape]:
            raise CorruptFile(f"{self.path}: block {name} has shape {' '.join(head[1:9])!r}, "
                              f"expected {shape}")
        last = shape[-1]
        rows = math.prod(shape[:-1])  # 1 for a 1-D block
        if min(shape) < 1 or rows > len(self.lines) - self.pos:
            raise CorruptFile(f"{self.path}: block {name} claims {rows} rows of {last}")
        values = []
        for r in range(rows):
            parts = self.next_line().split()
            if len(parts) != last:
                raise CorruptFile(f"{self.path}: block {name} row {r} has {len(parts)} values")
            try:
                values.append([float(v) for v in parts])
            except ValueError as exc:
                raise CorruptFile(f"{self.path}: block {name} row {r}: {exc}") from exc
        arr = np.array(values, dtype=np.float64).reshape(shape)
        if not np.isfinite(arr).all():  # float() takes nan, inf and 1e999
            raise CorruptFile(f"{self.path}: block {name} holds a non-finite value")
        return arr

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise CorruptFile(f"{self.path}: trailing data after last block")


def save_embedding(path, table: EmbeddingTable) -> None:
    nv, k = len(table.tokens), table.k
    lines = [f"{_EMB_MAGIC} {_EMB_VERSION} {nv} {k}", f"tokens {nv}"]
    lines.extend(table.tokens)
    _append_block(lines, "w", table.w)
    _append_block(lines, "w_ctx", table.w_ctx)
    _append_block(lines, "b", table.b)
    _append_block(lines, "b_ctx", table.b_ctx)
    _write_checkpoint(path, lines)


def load_embedding(path) -> EmbeddingTable:
    lines = _read_checked_lines(path, _EMB_MAGIC, _EMB_VERSION)
    head = lines[0].split()
    try:
        nv, k = int(head[2]), int(head[3])
    except (IndexError, ValueError) as exc:
        raise CorruptFile(f"{path}: malformed header") from exc
    reader = _BlockReader(path, lines, 1)
    tok_head = reader.next_line().split()
    if tok_head != ["tokens", str(nv)]:
        raise CorruptFile(f"{path}: expected token block of {nv}")
    tokens = tuple(reader.next_line() for _ in range(nv))
    if len(set(tokens)) != nv or "" in tokens:
        raise CorruptFile(f"{path}: token block is not {nv} distinct names")
    w = reader.array("w", (nv, k))
    w_ctx = reader.array("w_ctx", (nv, k))
    b = reader.array("b", (nv,))
    b_ctx = reader.array("b_ctx", (nv,))
    reader.done()
    return EmbeddingTable(tokens=tokens, w=w, w_ctx=w_ctx, b=b, b_ctx=b_ctx)


def save_model(path, params: ModelParams, seq_len: int) -> None:
    k = params.input_dim
    h = params.lstm.hidden if params.lstm is not None else 0
    c = params.conv.out_channels if params.conv is not None else 0
    w = params.conv.width if params.conv is not None else 0
    lines = [f"{_MODEL_MAGIC} {_MODEL_VERSION} {k} {h} {c} {w} {params.l} {seq_len}"]
    for name, arr in named_params(params).items():
        _append_block(lines, name, arr)
    _write_checkpoint(path, lines)


def load_model(path) -> tuple[ModelParams, int]:
    lines = _read_checked_lines(path, _MODEL_MAGIC, _MODEL_VERSION)
    head = lines[0].split()
    try:
        k, h, c, w, l, seq_len = (int(v) for v in head[2:8])
    except ValueError as exc:
        raise CorruptFile(f"{path}: malformed header") from exc
    if len(head) != 8 or k < 1 or l < 1 or seq_len < 1 or (h == 0 and c == 0):
        raise CorruptFile(f"{path}: malformed header")
    if l > MAX_CLASSES:
        raise CorruptFile(f"{path}: header claims {l} classes, more than {MAX_CLASSES}")
    reader = _BlockReader(path, lines, 1)
    lstm = None
    if h > 0:
        lstm = LstmParams(w=reader.array("lstm.w", (4 * h, k + h)),
                          b=reader.array("lstm.b", (4 * h,)))
    conv = None
    if c > 0:
        in_ch = h if h > 0 else k
        conv = GatedConvParams(w=reader.array("conv.w", (w, in_ch, 2 * c)),
                               b=reader.array("conv.b", (2 * c,)))
    pooled = c if c > 0 else h
    dense_w = reader.array("dense.w", (l, pooled))
    dense_b = reader.array("dense.b", (l,))
    reader.done()
    return ModelParams(lstm=lstm, conv=conv, dense_w=dense_w, dense_b=dense_b), seq_len
