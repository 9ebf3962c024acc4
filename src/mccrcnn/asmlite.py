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
* unparsed: anything else, kept verbatim

Parsing is total.  No input line ever raises; lines that fail the grammar
simply come back with kind UNPARSED.  Every ParsedLine keeps the exact
source text in ``raw``, so joining the raw fields with "\\n" reproduces the
input byte for byte.

Ambiguity between byte columns and hex-looking mnemonics ("dd", "db", or a
line whose tokens are all hex pairs) is resolved by backtracking: the
parser greedily skips byte-column tokens, then walks back to the last
token that is shaped like a mnemonic (a letter followed by letters or
digits).  ``dd 0`` therefore parses as a data directive, not as a byte
column followed by a mnemonic "0".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

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

#: SECTION:HEXADDR, then the code part up to the first ';' outside single quotes
_LINE = re.compile(
    r"([A-Za-z_.$][A-Za-z0-9_.$]*):([0-9A-Fa-f]{1,16})(?=\s|\Z)((?:[^';]+|'[^']*'?)*)"
)
#: greedy byte columns; backtracking walks back to the last mnemonic-shaped token
_INSN = re.compile(r"\s*(?:(?:[0-9A-Fa-f]{2}|\?\?)\s+)*([A-Za-z][A-Za-z0-9]*)(?!\S)(.*)")
#: one operand of whitespace-normalised text: a run between commas outside single
#: quotes (an unclosed quote runs to the end), with no space at either end
_OPERAND = re.compile(r"(?:[^,' ]|'[^']*'?)(?:[^,']|'[^']*'?)*(?<! )")
_LABEL = re.compile(r"^[A-Za-z_.@?$][A-Za-z0-9_.@?$]*:$")


@dataclass(frozen=True)
class ParsedLine:
    """One source line plus everything the grammar could recover from it.

    ``mnemonic`` and ``operands`` are populated for INSTRUCTION and
    DATA_DIRECTIVE lines, ``label`` for LABEL lines.  ``section`` and
    ``address`` are set whenever the SECTION:HEXADDR prefix parsed, even
    if the rest of the line did not.
    """

    kind: LineKind
    raw: str
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
    sections_present: frozenset[str] = field(default_factory=frozenset)

    def instructions(self):
        """Iterate over the INSTRUCTION lines in file order."""
        return (ln for ln in self.lines if ln.kind is LineKind.INSTRUCTION)

    def round_trip(self) -> str:
        """Reconstruct the original text from the raw fields."""
        return "\n".join(ln.raw for ln in self.lines)


def parse_line(line: str) -> ParsedLine:
    """Parse a single source line (no newline). Total: never raises on content.

    A trailing carriage return is treated as whitespace for parsing but
    preserved in ``raw``.
    """
    if "\n" in line:
        raise ValueError("parse_line expects a single line without newline")
    m = _LINE.match(line)
    if m is None:
        kind = LineKind.UNPARSED if line.strip() else LineKind.BLANK
        return ParsedLine(kind=kind, raw=line)
    section, addr, code = m.groups()
    address = int(addr, 16)

    tokens = code.split(None, 2)
    if not tokens:
        # address-only or comment-only line
        return ParsedLine(kind=LineKind.UNPARSED, raw=line, section=section, address=address)

    if len(tokens) == 1 and _LABEL.match(tokens[0]):
        return ParsedLine(
            kind=LineKind.LABEL, raw=line, section=section, address=address,
            label=tokens[0][:-1],
        )
    if len(tokens) >= 2 and tokens[1].lower() == "proc":
        return ParsedLine(
            kind=LineKind.LABEL, raw=line, section=section, address=address,
            label=tokens[0],
        )

    insn = _INSN.match(code)
    if insn is None:
        return ParsedLine(kind=LineKind.UNPARSED, raw=line, section=section, address=address)
    mnemonic, rest = insn.groups()
    mnemonic = mnemonic.lower()
    kind = LineKind.DATA_DIRECTIVE if mnemonic in DATA_DIRECTIVES else LineKind.INSTRUCTION
    return ParsedLine(
        kind=kind, raw=line, section=section, address=address,
        mnemonic=mnemonic, operands=tuple(_OPERAND.findall(" ".join(rest.split()))),
    )


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
    lines = tuple(parse_line(ln) for ln in text.split("\n"))
    sections = frozenset(ln.section for ln in lines if ln.section is not None)
    return AsmFile(sample_id=sample_id, lines=lines, sections_present=sections)


def parse_asm_bytes(data: bytes, sample_id: str) -> AsmFile:
    """Parse raw file bytes, decoding as Latin-1 so no byte sequence is rejected."""
    return parse_asm_file(data.decode("latin-1"), sample_id)
