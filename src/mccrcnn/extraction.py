"""Token sequence extraction from parsed disassembly.

Two extractors feed the classifier:

* ``extract_opcode_sequence`` walks the file top to bottom and collects
  the mnemonic of every instruction living in a code section (".text",
  ".CODE", or the bare "CODE" segment Delphi binaries get).  ``align``
  lines are data directives, not instructions, so they never reach the
  opcode sequence.

* ``build_relation_graph`` reads the listing once: one loop over its
  lines collects the code-section instructions, the labels and the
  ``extrn`` imports, and one loop over the code decides each
  instruction's successors once, in the order the walk pushes them:

  - plain instructions fall through to the next instruction in file order
  - conditional jumps push (target, fall-through), so the fall-through
    subtree is explored first
  - unconditional jumps push only the target
  - calls to local code push (return address, callee), so the walk
    descends into the callee first; calls to imported APIs record the
    name and fall through, and so do unresolved calls
  - an unresolved jmp and a return push nothing and end a path (the
    caller's return address models the return)

* ``extract_key_api_sequence`` performs a depth-first traversal of that
  successor map starting at the program entry and emits imported API
  names in first-visit order.  A visited-address set bounds the walk,
  so loops terminate and each call site emits its API name at most once.

Jump and call targets resolve through label definitions, through the
IDA naming convention (``loc_``/``sub_``/``locret_`` plus a hex address),
or through literal hex operands ("0x401000", "401000h").  Indirect
targets (registers, memory) stay unresolved and push no target.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .asmlite import AsmFile, LineKind, ParsedLine
from .errors import PipelineError


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
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class RelationGraph:
    """Control-flow relations of one sample.

    ``api_calls`` maps each imported-API call site to the API name.
    ``successors`` maps every code-section instruction address, in file
    order with the first occurrence per address, to the addresses the
    API walk pushes after visiting it, in push order; None stands for the
    fall-through or return address of the last instruction.
    """

    entry_address: int
    api_calls: dict[int, str]
    successors: dict[int, tuple[int | None, ...]]


def extract_opcode_sequence(asm: AsmFile) -> TokenSequence:
    """Mnemonics of code-section instructions in file order."""
    tokens = tuple(
        ln.mnemonic
        for ln in asm.lines
        if ln.kind is LineKind.INSTRUCTION and ln.section in CODE_SECTIONS
    )
    return TokenSequence(asm.sample_id, tokens)


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
    """Derive entry point, API call sites and successors in one pass.

    A jump or call target counts only when it resolves to a parsed
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
    api_calls: dict[int, str] = {}
    # push order; the walk's stack is LIFO, so the last one pushed runs first
    successors: dict[int, tuple[int | None, ...]] = {}
    # i indexes the instruction after this one: the fall-through and return address
    for i, (_kind, _section, address, mnemonic, operands, _label) in enumerate(code, 1):
        nxt = code[i].address if i < len(code) else None
        api = _api_name(operands[0], frozen_imports) if mnemonic == "call" and operands else None
        if api is not None:
            api_calls[address] = api
        target = (_resolve_target(operands[0], label_addr)
                  if api is None and operands and (mnemonic == "call" or mnemonic.startswith("j"))
                  else None)
        if target not in seen:  # fall through, unless a jmp or a return ends the path
            successors[address] = () if mnemonic == "jmp" or mnemonic in RET_MNEMONICS else (nxt,)
        elif mnemonic == "call":
            successors[address] = (nxt, target)  # descend into the callee first
        elif mnemonic == "jmp":
            successors[address] = (target,)
        else:  # conditional: explore the fall-through subtree first
            successors[address] = (target, nxt)

    return RelationGraph(entry_address=entry, api_calls=api_calls, successors=successors)


def extract_key_api_sequence(graph: RelationGraph, asm: AsmFile) -> TokenSequence:
    """Depth-first API walk over the relation graph (see module docstring).

    Deterministic: each instruction address is visited at most once and
    successor exploration order is fixed, so repeated runs give identical
    output.
    """
    succ = graph.successors
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
        if addr in graph.api_calls:
            out.append(graph.api_calls[addr])
        for nxt in succ[addr]:
            if nxt is not None and nxt not in visited:
                stack.append(nxt)

    return TokenSequence(asm.sample_id, tuple(out))


def write_sequences(path, stream: str, sequences) -> None:
    """Dump sequences as `sample_id<TAB>stream<TAB>space-joined tokens` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in sequences:
            fh.write(f"{seq.sample_id}\t{stream}\t{' '.join(seq.tokens)}\n")
