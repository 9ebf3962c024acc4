"""Deterministic synthetic disassembly corpora.

Each sample is a small asm-lite program: an .idata import block, a .text
section with a ``start:`` entry, a main block whose mnemonics follow a
per-family Markov chain, imported API calls woven in at fixed relative
positions, one local subroutine called near the end (holding the last
API of the family motif), forward/backward conditional jumps, occasional
align/comment/blank lines, and a small .data section.  Labels, byte
columns and addresses look like IDA output.

Mnemonics come from the fixed DEFAULT_OPCODES and imports from the fixed
DEFAULT_APIS; a spec sets the corpus shape and seed, not the alphabets.
Family signal lives in two layers: the opcode Markov transitions and the
ordered API motif.  In fusion mode (exactly two families) the generator
instead draws two opcode styles (disjoint halves of the opcode alphabet,
each with its own chain) and two API styles (disjoint motifs) and pairs
them XOR fashion: family 1 samples alternate (style 0, style 0) /
(style 1, style 1), family 2 alternates (style 0, style 1) / (style 1,
style 0).  Per-family marginal distributions of either single layer are
identical by construction (exact 50/50 alternation) while the joint
differs, so only fused features separate the families.

The manifest records, per sample, the family, the style bits, and the
API order a control-flow walk from the entry should produce (main-block
APIs in position order, then the subroutine API at its call site).

Draws: every random choice comes from one
``np.random.default_rng(seed)`` stream, in a fixed order.  ``_chain``
draws a chain's transition rows, then its start row, and turns each into
a cumulative table once, the way ``Generator.choice(p=row)`` builds
them.  Each corpus mode builds one style table (chains, alphabets and
motifs, in draw order: fusion mode draws its two motifs and then one
chain per half-alphabet, family mode a motif and then a chain per
family), and every sample picks its chain, alphabet and motif from it by
index, on one path.  A Markov walk of n tokens takes n uniforms in one
``rng.random(n)`` call and finds each state by bisection in its row's
table, so it draws the same stream and picks the same states as n
``choice`` calls.  A sample's instruction sizes come from one
``rng.integers(2, 8, size=...)`` call.  Operands, byte columns, comments
and jump forms draw from different distributions in line order, so they
stay scalar draws.  On the same numpy version, identical specs and seeds
yield byte-identical corpora; numpy does not promise its generator
streams across releases.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import PipelineError


class IoFailure(PipelineError):
    """Corpus files could not be written."""


#: the generator's two alphabets, fixed.  The mnemonics are distinct, and
#: none is a jump or one the generator emits itself (data directives,
#: extrn, call, ret, retn, proc), so every opcode token comes from a
#: family's chain; fusion mode splits them into halves of 13.  The 16 API
#: names hold the two disjoint 4-name motifs fusion mode draws.
DEFAULT_OPCODES = (
    "adc", "add", "and", "cmp", "dec", "imul", "inc", "lea", "mov", "mul",
    "neg", "nop", "not", "or", "pop", "push", "rol", "ror", "sar", "sbb",
    "shl", "shr", "sub", "test", "xchg", "xor",
)

DEFAULT_APIS = (
    "CloseHandle", "CreateFileA", "CreateProcessA", "ExitProcess",
    "GetModuleHandleA", "GetProcAddress", "InternetOpenA", "LoadLibraryA",
    "ReadFile", "RegCloseKey", "RegOpenKeyExA", "RegSetValueExA",
    "Sleep", "VirtualAlloc", "VirtualProtect", "WriteFile",
)

_OPERAND_POOL = (
    "eax", "ebx", "ecx", "edx", "esi", "edi",
    "eax, ebx", "ecx, edx", "esi, edi", "eax, 1", "ebx, 8", "ecx, 0FFh",
    "dword ptr [ebp+8]", "byte ptr [esi]", "eax, [edi+4]", "",
)

_COMMENT_POOL = ("; ----------------", "; main body", "; check result", "; cleanup")

#: upper bound on max_len, the instructions of one sample; every walk
#: draws its uniforms as one array, so a larger length is refused, not
#: allocated
MAX_LEN = 100_000

#: upper bounds on the corpus shape, which keep sample ids at their fixed
#: widths (two-digit family, four-digit index).  Every family draws an
#: opcode chain (26 x 26 cumulative probabilities); each
#: listing is written as soon as it is drawn, so only the manifest (one
#: small entry per sample) grows with the corpus
MAX_FAMILIES = 99
MAX_SAMPLES_PER_FAMILY = 9_999

#: item kinds that take no bytes (align pads to the next 16, undrawn)
_UNSIZED = frozenset({"label", "comment", "blank", "align"})

#: two-digit upper-case hex of every byte value, for byte columns
_HEX = tuple(f"{v:02X}" for v in range(256))

_TEXT_BASE = 0x401000
_DATA_BASE = 0x403000
_IDATA_BASE = 0x40F000
_MOTIF_LEN = 4


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    families: int = 3
    samples_per_family: int = 40
    seed: int = 0
    fusion_mode: bool = False
    min_len: int = 90
    max_len: int = 140


def _validate_spec(spec: SyntheticCorpusSpec) -> None:
    if not 2 <= spec.families <= MAX_FAMILIES:
        raise ValueError(f"families must be in 2..{MAX_FAMILIES}")
    if spec.fusion_mode and spec.families != 2:
        raise ValueError("fusion_mode corpora use exactly 2 families")
    if not 1 <= spec.samples_per_family <= MAX_SAMPLES_PER_FAMILY:
        raise ValueError(f"samples_per_family must be in 1..{MAX_SAMPLES_PER_FAMILY}")
    if not (30 <= spec.min_len <= spec.max_len):
        raise ValueError("need 30 <= min_len <= max_len")
    if spec.max_len > MAX_LEN:
        raise ValueError(f"max_len must be <= {MAX_LEN} instructions per sample")


def _cdf(row: np.ndarray) -> list[float]:
    """The table ``Generator.choice(p=row)`` searches, as Python floats."""
    cdf = row.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _chain(rng: np.random.Generator, n: int) -> tuple[list[float], list[list[float]]]:
    """Draw one n-state opcode chain: (start CDF, one CDF per state's row).

    Each row gives two drawn successors 0.35 and spreads 0.3 over the
    rest; then the start row gives four drawn states 0.125 each and
    spreads 0.5 over the rest.
    """
    rows = []
    for _ in range(n):
        row = np.full(n, 0.3 / (n - 2))
        row[rng.choice(n, size=2, replace=False)] = 0.35
        rows.append(_cdf(row / row.sum()))
    start = np.full(n, 0.5 / (n - 4))
    start[rng.choice(n, size=4, replace=False)] = 0.125
    return _cdf(start / start.sum()), rows


def _markov(rng, chain, alphabet, length) -> list[str]:
    """Walk ``length`` states; ``bisect_right`` is ``searchsorted(side="right")``."""
    start, rows = chain
    uniforms = rng.random(length).tolist()
    state = bisect_right(start, uniforms[0])
    seq = [alphabet[state]]
    for u in uniforms[1:]:
        state = bisect_right(rows[state], u)
        seq.append(alphabet[state])
    return seq


def _render_sample(rng, ops_stream_main, ops_stream_sub, motif):
    """Lay out and render one program; returns (text, expected api order)."""
    m = len(ops_stream_main)
    main_apis = list(motif[:-1])
    sub_api = motif[-1]

    inserts: dict[int, list[tuple]] = {}

    def put(pos, item):
        inserts.setdefault(pos, []).append(item)

    for idx, name in enumerate(main_apis):
        put((idx + 1) * m // (len(main_apis) + 1), ("api", name))
    jf = m // 4
    put(jf, ("jmpc", "S1"))
    put(min(jf + 3, m - 1), ("label", "S1"))
    if rng.random() < 0.5:
        put((3 * m) // 5, ("label", "S2"))
        put((4 * m) // 5, ("jmpc", "S2"))
    align_mask = rng.random(m) < 0.06
    comment_mask = rng.random(m) < 0.05
    blank_mask = rng.random(m) < 0.05

    items: list[tuple] = [("label", "start")]
    for idx, op in enumerate(ops_stream_main):
        for extra in inserts.get(idx, ()):
            items.append(extra)
        if align_mask[idx]:
            items.append(("align", None))
        if comment_mask[idx]:
            items.append(("comment", None))
        if blank_mask[idx]:
            items.append(("blank", None))
        items.append(("op", op))
    items.append(("callsub", None))
    items.append(("ret", None))
    items.append(("label", "SUB"))
    for idx, op in enumerate(ops_stream_sub):
        if idx == len(ops_stream_sub) // 2:
            items.append(("api", sub_api))
        items.append(("op", op))
    items.append(("ret", None))

    # address pass; every instruction's size comes from one draw
    n_sized = sum(kind not in _UNSIZED for kind, _ in items)
    sizes = iter(rng.integers(2, 8, size=n_sized).tolist())
    cursor = _TEXT_BASE
    sym: dict[str, int] = {}
    recs: list[tuple] = []
    for kind, payload in items:
        advance = 0 if kind in _UNSIZED else next(sizes)
        recs.append((kind, payload, cursor, advance))
        if kind == "label":
            sym[payload] = cursor
        elif kind == "align":
            cursor = (cursor // 16 + 1) * 16
        cursor += advance

    def resolve(name: str) -> str:
        if name == "start":
            return "start"
        if name == "SUB":
            return f"sub_{sym['SUB']:06X}"
        return f"loc_{sym[name]:06X}"

    lines: list[str] = []
    for kind, payload, addr, advance in recs:
        prefix = f".text:{addr:08X} "
        if kind == "label":
            lines.append(prefix + resolve(payload) + ":")
            continue
        if kind == "comment":
            lines.append(prefix + _COMMENT_POOL[int(rng.integers(len(_COMMENT_POOL)))])
            continue
        if kind == "blank":
            lines.append("")
            continue
        if kind == "align":
            lines.append(prefix + "align 10h")
            continue
        if kind == "op":
            operand = _OPERAND_POOL[int(rng.integers(len(_OPERAND_POOL)))]
            content = payload if payload == "nop" or not operand else f"{payload} {operand}"
        elif kind == "api":
            content = f"call ds:{payload}"
        elif kind == "callsub":
            content = f"call {resolve('SUB')}"
        elif kind == "jmpc":
            short = "short " if rng.random() < 0.5 else ""
            content = f"jnz {short}{resolve(payload)}"
        else:  # ret
            content = "ret"
        byte_text = ""
        if rng.random() < 0.5 and advance:
            raw = rng.integers(0, 256, size=min(advance, 4))
            byte_text = " ".join([_HEX[v] for v in raw.tolist()]) + " "
        lines.append(prefix + byte_text + content)

    lines.append("")
    daddr = _DATA_BASE
    for _ in range(int(rng.integers(2, 5))):
        pick = rng.random()
        if pick < 0.4:
            content = f"db 0{_HEX[int(rng.integers(0, 256))]}h"
            step = 1
        elif pick < 0.8:
            content = f"dd {int(rng.integers(0, 65536))}"
            step = 4
        else:
            content = "db 'payload; data',0"
            step = 16
        lines.append(f".data:{daddr:08X} {content}")
        daddr += step

    lines.append("")
    iaddr = _IDATA_BASE
    for name in motif:
        lines.append(f".idata:{iaddr:08X} extrn {name}:dword")
        iaddr += 4

    text = "\n".join(lines) + "\n"
    return text, main_apis + [sub_api]


def _draw_samples(spec: SyntheticCorpusSpec):
    """Yield (manifest entry, listing text) per sample, in id order."""
    rng = np.random.default_rng(spec.seed)
    ops, apis = DEFAULT_OPCODES, DEFAULT_APIS
    # the style table: sample i of family f takes chains[op] over
    # alphabets[op] and motifs[api], and the manifest records its style
    # bits, for (op, api, opcode_style, api_style) = picks[f - 1][i % 2]
    if spec.fusion_mode:
        chosen = rng.choice(len(apis), size=2 * _MOTIF_LEN, replace=False)
        motifs = [tuple(apis[i] for i in chosen[s * _MOTIF_LEN:(s + 1) * _MOTIF_LEN])
                  for s in range(2)]
        alphabets = (ops[:len(ops) // 2], ops[len(ops) // 2:])
        chains = [_chain(rng, len(sub)) for sub in alphabets]
        picks = [[(s, s ^ f, s, s ^ f) for s in range(2)] for f in range(2)]
    else:
        motifs, chains = [], []
        for _ in range(spec.families):
            picked = rng.choice(len(apis), size=_MOTIF_LEN, replace=False)
            motifs.append(tuple(apis[i] for i in picked))
            chains.append(_chain(rng, len(ops)))
        alphabets = (ops,) * spec.families
        picks = [[(f, f, None, None)] * 2 for f in range(spec.families)]

    for family in range(1, spec.families + 1):
        for i in range(spec.samples_per_family):
            op, api, op_style, api_style = picks[family - 1][i % 2]
            total = int(rng.integers(spec.min_len, spec.max_len + 1))
            sub_len = int(rng.integers(5, 9))
            main_ops = _markov(rng, chains[op], alphabets[op], total - sub_len)
            sub_ops = _markov(rng, chains[op], alphabets[op], sub_len)
            sid = f"{family:02d}_{i:04d}"
            text, api_seq = _render_sample(rng, main_ops, sub_ops, motifs[api])
            yield {
                "id": sid,
                "file": f"{sid}.asm",
                "family": family,
                "opcode_style": op_style,
                "api_style": api_style,
                "api_sequence": api_seq,
            }, text


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir) -> dict:
    """Write <id>.asm files, labels.csv, and manifest.json under out_dir.

    Each listing is written as soon as it is drawn, so one listing's
    text is in memory at a time.  Returns the manifest dict.  Raises
    ValueError on a bad spec and IoFailure when a file or the directory
    cannot be written.
    """
    _validate_spec(spec)
    out = Path(out_dir)
    samples = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for entry, text in _draw_samples(spec):
            with open(out / entry["file"], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            samples.append(entry)
        manifest = {
            "spec": asdict(spec),
            "samples": samples,
        }
        with open(out / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("Id,Class\n")
            for entry in samples:
                fh.write(f"{entry['id']},{entry['family']}\n")
        with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write corpus under {out}: {exc}") from exc
    return manifest
