"""Token sequence extraction from parsed disassembly.

Two extractors feed the classifier:

* ``extract_opcode_sequence`` walks the file top to bottom and collects
  the mnemonic of every instruction living in a code section (".text",
  ".CODE", or the bare "CODE" segment Delphi binaries get).  ``align``
  lines are data directives, not instructions, so they never reach the
  opcode sequence.

* ``build_relation_graph`` reads the listing once: one loop over its
  lines collects the code-section instructions, the labels and the
  ``extrn`` imports, and one loop over the code classifies each
  instruction once, as an API site, a call edge or a jump edge.

* ``extract_key_api_sequence`` performs a depth-first traversal of that
  graph starting at the program entry and emits imported API names in
  first-visit order.  It follows the graph's edges through one successor
  map and never re-reads a mnemonic to branch on it.  Traversal rules:

  - plain instructions fall through to the next instruction in file order
  - conditional jumps explore the fall-through subtree first, then the
    jump target
  - unconditional jumps follow only the target
  - calls to local code descend into the callee first, then resume at the
    return address; calls to imported APIs emit the name and fall through
  - ret/retn/retf/iret end a path (the caller's resume edge models the
    return)
  - a visited-address set bounds the walk, so loops terminate and each
    call site emits its API name at most once

Jump and call targets resolve through label definitions, through the
IDA naming convention (``loc_``/``sub_``/``locret_`` plus a hex address),
or through literal hex operands ("0x401000", "401000h").  Indirect
targets (registers, memory) stay unresolved and contribute no edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .asmlite import AsmFile, LineKind, ParsedLine
from .errors import PipelineError


class SequenceKind(Enum):
    OPCODE = "opcode"
    API = "api"


class JumpKind(Enum):
    UNCONDITIONAL = "unconditional"
    CONDITIONAL = "conditional"


class NoCode(PipelineError):
    """The sample has no instruction in any code section."""


#: section names whose instructions count as executable code
CODE_SECTIONS = frozenset({".text", ".CODE", "CODE"})

#: mnemonics that end a path in the API walk
RET_MNEMONICS = frozenset({"ret", "retn", "retf", "iret", "iretd"})

_IDENT = re.compile(r"^[A-Za-z_@?$][A-Za-z0-9_@?$]*$")
_NAME_ADDR = re.compile(r"^(?:loc|sub|locret)_([0-9A-Fa-f]{1,16})$")
_HEX_LIT = re.compile(r"^(?:0[xX][0-9A-Fa-f]{1,16}|[0-9A-Fa-f]{1,16}[hH])$")


@dataclass(frozen=True)
class TokenSequence:
    sample_id: str
    kind: SequenceKind
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class RelationGraph:
    """Control-flow relations of one sample.

    ``api_sites`` are (call address, API name) pairs; ``jump_edges`` are
    (source, target, kind) triples; ``call_edges`` are (call site, callee
    entry, return address) triples where the return address is the next
    instruction after the call, or None when the call is the last
    instruction.  ``code`` holds the code-section instructions the graph
    was built from, in file order with the first occurrence per address;
    the API walk takes fall-through order from it.
    """

    entry_address: int
    api_sites: tuple[tuple[int, str], ...]
    jump_edges: tuple[tuple[int, int, JumpKind], ...]
    call_edges: tuple[tuple[int, int, int | None], ...]
    code: tuple[ParsedLine, ...] = field(repr=False)


def extract_opcode_sequence(asm: AsmFile) -> TokenSequence:
    """Mnemonics of code-section instructions in file order."""
    tokens = tuple(
        ln.mnemonic
        for ln in asm.lines
        if ln.kind is LineKind.INSTRUCTION and ln.section in CODE_SECTIONS
    )
    return TokenSequence(asm.sample_id, SequenceKind.OPCODE, tokens)


def _strip_import_prefix(name: str) -> str:
    return name[6:] if name.startswith("__imp_") else name


def _api_name(operand: str, imports: frozenset[str]) -> str | None:
    op = operand.strip()
    if op.startswith("ds:"):
        name = _strip_import_prefix(op[3:].strip())
        return name if _IDENT.match(name) else None
    name = _strip_import_prefix(op)
    if name in imports and _IDENT.match(name):
        return name
    return None


def _resolve_target(operand: str, labels: dict[str, int]) -> int | None:
    """Map a jump/call operand to an address, or None when indirect."""
    tokens = operand.split()
    if not tokens:
        return None
    tok = tokens[-1]  # skip size/distance prefixes such as "short"
    if tok in labels:
        return labels[tok]
    m = _NAME_ADDR.match(tok)
    if m:
        return int(m.group(1), 16)
    if _HEX_LIT.match(tok):
        cleaned = tok[2:] if tok[:2].lower() == "0x" else tok[:-1]
        return int(cleaned, 16)
    return None


def build_relation_graph(asm: AsmFile) -> RelationGraph:
    """Derive entry point, API sites, and jump/call edges in one pass.

    Edges are recorded only when the target resolves to a parsed
    code-section instruction; API targets stay external by nature.
    Raises NoCode when the sample has no code-section instruction.
    """
    code: list[ParsedLine] = []
    seen: set[int] = set()
    label_addr: dict[str, int] = {}
    imports: set[str] = set()
    for ln in asm.lines:
        kind, section, address, mnemonic, operands, label = ln
        if kind is LineKind.INSTRUCTION and section in CODE_SECTIONS:
            if address not in seen:
                seen.add(address)
                code.append(ln)
        elif kind is LineKind.LABEL and address is not None:
            label_addr.setdefault(label, address)
        # an import whatever its section, so not an elif of the code check
        if mnemonic == "extrn" and operands:
            name = _strip_import_prefix(operands[0].split(":", 1)[0].strip())
            if name and _IDENT.match(name):
                imports.add(name)
    if not code:
        raise NoCode(f"{asm.sample_id}: no instructions in a code section")

    frozen_imports = frozenset(imports)
    entry = label_addr.get("start", label_addr.get("_start", min(seen)))
    api_sites: list[tuple[int, str]] = []
    jump_edges: list[tuple[int, int, JumpKind]] = []
    call_edges: list[tuple[int, int, int | None]] = []
    # i indexes the instruction after this one: a call's return address
    for i, (_kind, _section, address, mnemonic, operands, _label) in enumerate(code, 1):
        if not operands:
            continue
        if mnemonic == "call":
            api = _api_name(operands[0], frozen_imports)
            if api is not None:
                api_sites.append((address, api))
                continue
            target = _resolve_target(operands[0], label_addr)
            if target in seen:
                ret = code[i].address if i < len(code) else None
                call_edges.append((address, target, ret))
        elif mnemonic.startswith("j"):
            target = _resolve_target(operands[0], label_addr)
            if target in seen:
                jump_edges.append((address, target, JumpKind.UNCONDITIONAL
                                   if mnemonic == "jmp" else JumpKind.CONDITIONAL))

    return RelationGraph(
        entry_address=entry,
        api_sites=tuple(api_sites),
        jump_edges=tuple(jump_edges),
        call_edges=tuple(call_edges),
        code=tuple(code),
    )


def extract_key_api_sequence(graph: RelationGraph, asm: AsmFile) -> TokenSequence:
    """Depth-first API walk over the relation graph (see module docstring).

    Deterministic: each instruction address is visited at most once and
    successor exploration order is fixed, so repeated runs give identical
    output.
    """
    addrs = [ln.address for ln in graph.code]
    # successors in push order; the stack is LIFO, so the last one runs first.
    # Default: fall through, except a jmp without an edge and a return, which
    # end the path.  An unresolved call falls through: assume it returns.
    succ: dict[int, tuple[int | None, ...]] = {
        addr: () if ln.mnemonic == "jmp" or ln.mnemonic in RET_MNEMONICS else (nxt,)
        for ln, addr, nxt in zip(graph.code, addrs, [*addrs[1:], None])
    }
    for src, dst, kind in graph.jump_edges:
        # LIFO: fall-through subtree explored before the jump target
        succ[src] = (dst,) if kind is JumpKind.UNCONDITIONAL else (dst, *succ[src])
    for site, target, ret in graph.call_edges:
        succ[site] = (ret, target)  # LIFO: descend into the callee first
    api_at = dict(graph.api_sites)

    entry: int | None = graph.entry_address
    if entry not in succ:
        entry = min((a for a in succ if a >= graph.entry_address), default=None)

    out: list[str] = []
    visited: set[int] = set()
    stack: list[int] = [entry] if entry is not None else []
    while stack:
        addr = stack.pop()
        if addr in visited:
            continue
        visited.add(addr)
        if addr in api_at:
            out.append(api_at[addr])
        for nxt in succ[addr]:
            if nxt is not None and nxt not in visited:
                stack.append(nxt)

    return TokenSequence(asm.sample_id, SequenceKind.API, tuple(out))


def write_sequences(path, sequences) -> None:
    """Dump sequences as `sample_id<TAB>kind<TAB>space-joined tokens` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in sequences:
            fh.write(f"{seq.sample_id}\t{seq.kind.value}\t{' '.join(seq.tokens)}\n")
