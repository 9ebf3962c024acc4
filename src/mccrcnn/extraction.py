"""Token sequence extraction from parsed disassembly.

Two extractors feed the classifier:

* ``extract_opcode_sequence`` walks the file top to bottom and collects
  the mnemonic of every instruction living in a code section (".text",
  ".CODE", or the bare "CODE" segment Delphi binaries get), skipping
  ``align``.

* ``extract_key_api_sequence`` performs a depth-first traversal of the
  control-flow relation graph starting at the program entry and emits
  imported API names in first-visit order.  Traversal rules:

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
from dataclasses import dataclass
from enum import Enum

from .asmlite import AsmFile, LineKind
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
    instruction.
    """

    entry_address: int
    code_begin: int
    code_end: int
    api_sites: tuple[tuple[int, str], ...]
    jump_edges: tuple[tuple[int, int, JumpKind], ...]
    call_edges: tuple[tuple[int, int, int | None], ...]


def is_code_section(name: str | None) -> bool:
    return name in CODE_SECTIONS


def _is_conditional_jump(mnemonic: str) -> bool:
    return mnemonic.startswith("j") and mnemonic != "jmp"


def extract_opcode_sequence(asm: AsmFile) -> TokenSequence:
    """Mnemonics of code-section instructions in file order, minus align."""
    tokens = tuple(
        ln.mnemonic
        for ln in asm.lines
        if ln.kind is LineKind.INSTRUCTION
        and is_code_section(ln.section)
        and ln.mnemonic != "align"
    )
    return TokenSequence(asm.sample_id, SequenceKind.OPCODE, tokens)


def _code_instructions(asm: AsmFile) -> list:
    """Code-section instructions in file order, first occurrence per address."""
    out = []
    seen: set[int] = set()
    for ln in asm.lines:
        if ln.kind is LineKind.INSTRUCTION and is_code_section(ln.section):
            if ln.address not in seen:
                seen.add(ln.address)
                out.append(ln)
    return out


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
    """Derive entry point, code bounds, API sites, and jump/call edges.

    Edges are recorded only when the target resolves to a parsed
    code-section instruction; API targets stay external by nature.
    Raises NoCode when the sample has no code-section instruction.
    """
    code = _code_instructions(asm)
    if not code:
        raise NoCode(f"{asm.sample_id}: no instructions in a code section")

    label_addr: dict[str, int] = {}
    imports: set[str] = set()
    for ln in asm.lines:
        if ln.kind is LineKind.LABEL and ln.address is not None:
            label_addr.setdefault(ln.label, ln.address)
        elif ln.mnemonic == "extrn" and ln.operands:
            name = _strip_import_prefix(ln.operands[0].split(":", 1)[0].strip())
            if name and _IDENT.match(name):
                imports.add(name)
    frozen_imports = frozenset(imports)

    addresses = [ln.address for ln in code]
    code_begin, code_end = min(addresses), max(addresses)
    entry = label_addr.get("start", label_addr.get("_start", code_begin))
    instr_addrs = set(addresses)

    next_addr: dict[int, int | None] = {}
    for cur, nxt in zip(code, code[1:]):
        next_addr[cur.address] = nxt.address
    next_addr[code[-1].address] = None

    api_sites: list[tuple[int, str]] = []
    jump_edges: list[tuple[int, int, JumpKind]] = []
    call_edges: list[tuple[int, int, int | None]] = []
    for ln in code:
        m = ln.mnemonic
        if m == "call" and ln.operands:
            api = _api_name(ln.operands[0], frozen_imports)
            if api is not None:
                api_sites.append((ln.address, api))
                continue
            target = _resolve_target(ln.operands[0], label_addr)
            if target is not None and target in instr_addrs:
                call_edges.append((ln.address, target, next_addr[ln.address]))
        elif m == "jmp" and ln.operands:
            target = _resolve_target(ln.operands[0], label_addr)
            if target is not None and target in instr_addrs:
                jump_edges.append((ln.address, target, JumpKind.UNCONDITIONAL))
        elif _is_conditional_jump(m) and ln.operands:
            target = _resolve_target(ln.operands[0], label_addr)
            if target is not None and target in instr_addrs:
                jump_edges.append((ln.address, target, JumpKind.CONDITIONAL))

    return RelationGraph(
        entry_address=entry,
        code_begin=code_begin,
        code_end=code_end,
        api_sites=tuple(api_sites),
        jump_edges=tuple(jump_edges),
        call_edges=tuple(call_edges),
    )


def extract_key_api_sequence(graph: RelationGraph, asm: AsmFile) -> TokenSequence:
    """Depth-first API walk over the relation graph (see module docstring).

    Deterministic: each instruction address is visited at most once and
    successor exploration order is fixed, so repeated runs give identical
    output.
    """
    code = _code_instructions(asm)
    index = {ln.address: i for i, ln in enumerate(code)}
    api_at = dict(graph.api_sites)
    jump_at = {src: (dst, kind) for src, dst, kind in graph.jump_edges}
    call_at = {site: (target, ret) for site, target, ret in graph.call_edges}

    def fall(addr: int) -> int | None:
        i = index.get(addr)
        if i is None or i + 1 >= len(code):
            return None
        return code[i + 1].address

    entry: int | None = graph.entry_address
    if entry not in index:
        later = [a for a in index if a >= graph.entry_address]
        entry = min(later) if later else None

    out: list[str] = []
    visited: set[int] = set()
    stack: list[int] = [entry] if entry is not None else []
    while stack:
        addr = stack.pop()
        if addr in visited or addr not in index:
            continue
        visited.add(addr)
        mnemonic = code[index[addr]].mnemonic
        if addr in api_at:
            out.append(api_at[addr])
            succs = [fall(addr)]
        elif mnemonic == "call":
            if addr in call_at:
                target, ret = call_at[addr]
                succs = [ret, target]  # LIFO: descend into the callee first
            else:
                succs = [fall(addr)]  # unresolved call, assume it returns
        elif mnemonic == "jmp":
            hit = jump_at.get(addr)
            succs = [hit[0]] if hit else []
        elif _is_conditional_jump(mnemonic):
            hit = jump_at.get(addr)
            # LIFO: fall-through subtree explored before the jump target
            succs = ([hit[0]] if hit else []) + [fall(addr)]
        elif mnemonic in RET_MNEMONICS:
            succs = []
        else:
            succs = [fall(addr)]
        for succ in succs:
            if succ is not None and succ not in visited:
                stack.append(succ)

    return TokenSequence(asm.sample_id, SequenceKind.API, tuple(out))


def write_sequences(path, sequences) -> None:
    """Dump sequences as `sample_id<TAB>kind<TAB>space-joined tokens` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(f"{seq.sample_id}\t{seq.kind.value}\t{' '.join(seq.tokens)}\n")
