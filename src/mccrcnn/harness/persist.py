"""Text checkpoints for embeddings and classifier parameters.

Both formats are line oriented: a magic+version header, named blocks
(`name` followed by the array shape, then one line of repr() floats per
row of the array flattened to 2-D), and a final `checksum <sha256>` line
over everything above it.  repr() round-trips every float exactly, so a
save/load cycle reproduces parameters bit for bit.

Ablation models simply omit the missing part: the header records 0 for
its dimensions and the loader infers the architecture from which blocks
are present.

Each format carries its own version.  Embeddings (GLOVEEMB) are v1.
Models (MCCRCNN) are v2: the LSTM is stored as the two stacked blocks
lstm.w (4h x (k + h)) and lstm.b (4h); v1 model files, which held eight
per-gate blocks, are refused with FormatVersionMismatch.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from ..embedding import EmbeddingTable
from ..errors import PipelineError
from ..neural import GatedConvParams, LstmParams, ModelParams

_EMB_MAGIC = "GLOVEEMB"
_EMB_VERSION = "v1"
_MODEL_MAGIC = "MCCRCNN"
_MODEL_VERSION = "v2"


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
    try:
        text = Path(path).read_text(encoding="utf-8")
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
    if not lines[-1].startswith("checksum "):
        raise CorruptFile(f"{path}: missing checksum line")
    payload = "\n".join(lines[:-1]) + "\n"
    want = lines[-1].split()[-1]
    got = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if got != want:
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
        head = self.next_line().split()
        if head[0] != name:
            raise CorruptFile(f"{self.path}: expected block {name!r}, got {head[0]!r}")
        dims = tuple(int(d) for d in head[1:])
        if dims != shape:
            raise CorruptFile(f"{self.path}: block {name} has shape {dims}, expected {shape}")
        last = shape[-1]
        rows = math.prod(shape[:-1])  # 1 for a 1-D block
        out = np.empty((rows, last), dtype=np.float64)
        for r in range(rows):
            parts = self.next_line().split()
            if len(parts) != last:
                raise CorruptFile(f"{self.path}: block {name} row {r} has {len(parts)} values")
            try:
                out[r] = [float(v) for v in parts]
            except ValueError as exc:
                raise CorruptFile(f"{self.path}: block {name} row {r}: {exc}") from exc
        return out.reshape(shape)

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
    if params.lstm is not None:
        _append_block(lines, "lstm.w", params.lstm.w)
        _append_block(lines, "lstm.b", params.lstm.b)
    if params.conv is not None:
        _append_block(lines, "conv.w", params.conv.w)
        _append_block(lines, "conv.b", params.conv.b)
        _append_block(lines, "conv.v", params.conv.v)
        _append_block(lines, "conv.g", params.conv.g)
    _append_block(lines, "dense.w", params.dense_w)
    _append_block(lines, "dense.b", params.dense_b)
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
    reader = _BlockReader(path, lines, 1)
    lstm = None
    if h > 0:
        lstm = LstmParams(w=reader.array("lstm.w", (4 * h, k + h)),
                          b=reader.array("lstm.b", (4 * h,)))
    conv = None
    if c > 0:
        in_ch = h if h > 0 else k
        conv = GatedConvParams(
            w=reader.array("conv.w", (w, in_ch, c)),
            b=reader.array("conv.b", (c,)),
            v=reader.array("conv.v", (w, in_ch, c)),
            g=reader.array("conv.g", (c,)),
        )
    pooled = c if c > 0 else h
    dense_w = reader.array("dense.w", (l, pooled))
    dense_b = reader.array("dense.b", (l,))
    reader.done()
    return ModelParams(lstm=lstm, conv=conv, dense_w=dense_w, dense_b=dense_b), seq_len
