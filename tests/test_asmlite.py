"""Listing parser: line grammar, total parsing, exact round trips."""

import dataclasses
import re
import string

import numpy as np
import pytest

from mccrcnn.asmlite import (
    DATA_DIRECTIVES,
    EmptyFile,
    LineKind,
    ParsedLine,
    parse_asm_bytes,
    parse_asm_file,
    parse_line,
)
from mccrcnn.harness.synth import SyntheticCorpusSpec, generate_synthetic_corpus

KAGGLE_STYLE = "\n".join([
    ".text:00401000 ; Segment type: Pure code",
    ".text:00401000                 assume cs:_text",
    ".text:00401000",
    ".text:00401000 sub_401000      proc near",
    ".text:00401000 55              push ebp",
    ".text:00401001 8B EC           mov ebp, esp",
    ".text:00401003 83 EC 10        sub esp, 10h",
    ".text:00401006 FF 15 00 F0 40 00 call ds:GetModuleHandleA",
    ".text:0040100C 85 C0           test eax, eax",
    ".text:0040100E 74 05           jz short loc_401015",
    ".text:00401010 E8 0B 00 00 00  call sub_401020",
    ".text:00401015",
    ".text:00401015 loc_401015:",
    ".text:00401015 C9              leave",
    ".text:00401016 C3              retn",
    ".text:00401016 sub_401000      endp",
    "",
    ".data:00403000 61 62 00        db 'ab',0",
    ".data:00403003 ??              db ?",
    ".data:00403004                 dd 0",
    ".idata:0040F000                extrn GetModuleHandleA:dword",
])


def test_instruction_line_with_byte_columns():
    ln = parse_line(".text:00401001 8B EC           mov ebp, esp")
    assert ln.kind is LineKind.INSTRUCTION
    assert ln.section == ".text"
    assert ln.address == 0x401001
    assert ln.mnemonic == "mov"
    assert ln.operands == ("ebp", "esp")


def test_instruction_line_without_byte_columns():
    ln = parse_line(".text:00401005 not eax")
    assert ln.kind is LineKind.INSTRUCTION
    assert ln.mnemonic == "not"
    assert ln.operands == ("eax",)


def test_mnemonic_is_lowercased():
    ln = parse_line("CODE:0045B1C4 PUSH EBX")
    assert ln.mnemonic == "push"
    assert ln.section == "CODE"


def test_data_directives_classified():
    for d in sorted(DATA_DIRECTIVES):
        ln = parse_line(f".data:00403000 {d} 1, 2")
        assert ln.kind is LineKind.DATA_DIRECTIVE, d
        assert ln.mnemonic == d


def test_dd_zero_is_directive_not_byte_column():
    # "dd" is also a valid hex byte pair; backtracking must win it back
    ln = parse_line(".data:00403004 dd 0")
    assert ln.kind is LineKind.DATA_DIRECTIVE
    assert ln.mnemonic == "dd"
    assert ln.operands == ("0",)


def test_byte_columns_before_hexish_directive():
    ln = parse_line(".data:00403000 de ad db 66h")
    assert ln.kind is LineKind.DATA_DIRECTIVE
    assert ln.mnemonic == "db"
    assert ln.operands == ("66h",)


def test_all_hex_tokens_stay_unparsed():
    ln = parse_line(".text:00401000 00 11 22")
    assert ln.kind is LineKind.UNPARSED
    assert ln.section == ".text"
    assert ln.address == 0x401000


def test_label_forms():
    ln = parse_line(".text:00401015 loc_401015:")
    assert ln.kind is LineKind.LABEL
    assert ln.label == "loc_401015"
    ln = parse_line(".text:00401000 sub_401000      proc near")
    assert ln.kind is LineKind.LABEL
    assert ln.label == "sub_401000"
    ln = parse_line(".text:00401000 start:")
    assert ln.label == "start"


def test_blank_and_whitespace_lines():
    assert parse_line("").kind is LineKind.BLANK
    assert parse_line("   \t ").kind is LineKind.BLANK
    assert parse_line("\r").kind is LineKind.BLANK


def test_unparsed_lines_keep_position_info():
    ln = parse_line(".text:00401030 arg_0 = dword ptr 8")
    assert ln.kind is LineKind.UNPARSED
    assert ln.address == 0x401030
    ln = parse_line("random garbage without an address")
    assert ln.kind is LineKind.UNPARSED
    assert ln.section is None


def test_comment_only_line_unparsed():
    ln = parse_line(".text:00401000 ; Segment type: Pure code")
    assert ln.kind is LineKind.UNPARSED
    assert ln.address == 0x401000


def test_comment_stripped_from_operands():
    ln = parse_line(".text:00401000 mov eax, 5 ; the answer")
    assert ln.mnemonic == "mov"
    assert ln.operands == ("eax", "5")


def test_semicolon_inside_quotes_is_data():
    ln = parse_line(".data:00403000 db 'a;b',0")
    assert ln.kind is LineKind.DATA_DIRECTIVE
    assert ln.operands == ("'a;b'", "0")


def test_comma_inside_quotes_does_not_split():
    ln = parse_line(".data:00403000 db 'x, y',0Ah")
    assert ln.operands == ("'x, y'", "0Ah")


def test_trailing_carriage_return_parses_and_round_trips():
    ln = parse_line(".text:00401000 push ebp\r")
    assert ln.kind is LineKind.INSTRUCTION
    assert ln.raw.endswith("\r")


def test_extrn_import_line_is_instruction():
    ln = parse_line(".idata:0040F000 extrn CreateFileA:dword")
    assert ln.kind is LineKind.INSTRUCTION
    assert ln.mnemonic == "extrn"
    assert ln.operands == ("CreateFileA:dword",)


def test_question_mark_byte_columns():
    ln = parse_line(".data:00403003 ?? db ?")
    assert ln.kind is LineKind.DATA_DIRECTIVE
    assert ln.mnemonic == "db"


def test_parse_line_rejects_embedded_newline():
    with pytest.raises(ValueError):
        parse_line("a\nb")


def test_empty_file_raises():
    with pytest.raises(EmptyFile):
        parse_asm_file("", "s1")


def test_empty_sample_id_raises():
    with pytest.raises(ValueError):
        parse_asm_file("x", "")


def test_round_trip_exact():
    asm = parse_asm_file(KAGGLE_STYLE, "k1")
    assert asm.round_trip() == KAGGLE_STYLE


def test_round_trip_crlf_and_trailing_newline():
    text = ".text:00401000 push ebp\r\n.text:00401001 retn\r\n"
    asm = parse_asm_file(text, "crlf")
    assert asm.round_trip() == text
    kinds = [ln.kind for ln in asm.lines]
    assert kinds == [LineKind.INSTRUCTION, LineKind.INSTRUCTION, LineKind.BLANK]


def test_round_trip_arbitrary_bytes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        data = bytes(rng.integers(0, 256, size=int(rng.integers(1, 400))))
        data = data.replace(b"\x00", b".")  # text files, not NUL-laden blobs
        if not data:
            continue
        asm = parse_asm_bytes(data, "fuzz")
        assert asm.round_trip().encode("latin-1") == data


def test_sections_present():
    asm = parse_asm_file(KAGGLE_STYLE, "k1")
    assert asm.sections_present == frozenset({".text", ".data", ".idata"})


def test_instructions_iterator_in_order():
    asm = parse_asm_file(KAGGLE_STYLE, "k1")
    mnems = [ln.mnemonic for ln in asm.instructions()]
    # "sub_401000 endp" is not in the grammar (underscore in the leading
    # token) and stays UNPARSED, so it does not appear here
    assert mnems == [
        "assume", "push", "mov", "sub", "call", "test", "jz", "call",
        "leave", "retn", "extrn",
    ]


def test_kaggle_style_excerpt_mostly_parses():
    asm = parse_asm_file(KAGGLE_STYLE, "k1")
    parsed = sum(1 for ln in asm.lines if ln.kind is not LineKind.UNPARSED)
    assert parsed / len(asm.lines) >= 0.8


def test_round_trip_many_random_listing_shapes():
    """Assemble random lines from grammar fragments; reparse must be exact."""
    rng = np.random.default_rng(3)
    pieces = [
        ".text:%06X push ebp",
        ".text:%06X 8B EC mov ebp, esp",
        ".text:%06X loc_%06X:",
        "",
        "   ",
        ".data:%06X db 'abc',0",
        "junk line # %06X",
        ".text:%06X ; comment %06X",
    ]
    for _ in range(50):
        n = int(rng.integers(1, 30))
        lines = []
        for _ in range(n):
            tpl = pieces[int(rng.integers(len(pieces)))]
            lines.append(tpl % ((0x400000 + int(rng.integers(0xFFFF)),) * tpl.count("%06X")))
        text = "\n".join(lines)
        if not text:
            continue
        asm = parse_asm_file(text, "rand")
        assert asm.round_trip() == text
        assert len(asm.lines) == n


# ------------------------------------------------- frozen reference parser
# The token-loop parser that the compiled patterns in asmlite replaced,
# kept as the oracle: both must give equal ParsedLines on every input.

_REF_SECTION_ADDR = re.compile(
    r"^(?P<section>[A-Za-z_.$][A-Za-z0-9_.$]*):(?P<addr>[0-9A-Fa-f]{1,16})(?=\s|$)"
)
_REF_HEX_BYTE = re.compile(r"^(?:[0-9A-Fa-f]{2}|\?\?)$")
_REF_MNEMONIC = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_REF_LABEL = re.compile(r"^[A-Za-z_.@?$][A-Za-z0-9_.@?$]*:$")


def reference_strip_comment(text):
    in_quote = False
    for pos, ch in enumerate(text):
        if ch == "'":
            in_quote = not in_quote
        elif ch == ";" and not in_quote:
            return text[:pos]
    return text


def reference_split_operands(text):
    parts, buf = [], []
    in_quote = False
    for ch in text:
        if ch == "'":
            in_quote = not in_quote
            buf.append(ch)
        elif ch == "," and not in_quote:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    cleaned = (" ".join(p.split()) for p in parts)
    return tuple(p for p in cleaned if p)


def reference_parse_line(line):
    if "\n" in line:
        raise ValueError("parse_line expects a single line without newline")
    body = line.rstrip("\r")
    if not body.strip():
        return ParsedLine(kind=LineKind.BLANK, raw=line)
    m = _REF_SECTION_ADDR.match(body)
    if m is None:
        return ParsedLine(kind=LineKind.UNPARSED, raw=line)
    section = m.group("section")
    address = int(m.group("addr"), 16)
    tokens = reference_strip_comment(body[m.end():]).split()
    if not tokens:
        return ParsedLine(kind=LineKind.UNPARSED, raw=line, section=section, address=address)
    if len(tokens) == 1 and _REF_LABEL.match(tokens[0]):
        return ParsedLine(kind=LineKind.LABEL, raw=line, section=section,
                          address=address, label=tokens[0][:-1])
    if len(tokens) >= 2 and tokens[1].lower() == "proc":
        return ParsedLine(kind=LineKind.LABEL, raw=line, section=section,
                          address=address, label=tokens[0])
    j = 0
    while j < len(tokens) and _REF_HEX_BYTE.match(tokens[j]):
        j += 1
    while j > 0 and (j == len(tokens) or not _REF_MNEMONIC.match(tokens[j])):
        j -= 1
    if j == len(tokens) or not _REF_MNEMONIC.match(tokens[j]):
        return ParsedLine(kind=LineKind.UNPARSED, raw=line, section=section, address=address)
    mnemonic = tokens[j].lower()
    kind = LineKind.DATA_DIRECTIVE if mnemonic in DATA_DIRECTIVES else LineKind.INSTRUCTION
    return ParsedLine(kind=kind, raw=line, section=section, address=address,
                      mnemonic=mnemonic,
                      operands=reference_split_operands(" ".join(tokens[j + 1:])))


FIELDS = tuple(f.name for f in dataclasses.fields(ParsedLine))


def disagreements(lines):
    """Lines where parse_line and the reference differ in any field."""
    bad = []
    for line in lines:
        got, want = parse_line(line), reference_parse_line(line)
        if got != want:  # dataclass equality: all FIELDS, in order
            bad.append((line, got, want))
    return bad


FIXTURE_LINES = KAGGLE_STYLE.split("\n") + [
    ".text:00401001 8B EC           mov ebp, esp",
    ".text:00401005 not eax",
    "CODE:0045B1C4 PUSH EBX",
    ".data:00403000 de ad db 66h",
    ".text:00401000 00 11 22",
    ".text:00401000 start:",
    "   \t ",
    "\r",
    ".text:00401030 arg_0 = dword ptr 8",
    "random garbage without an address",
    ".text:00401000 mov eax, 5 ; the answer",
    ".data:00403000 db 'a;b',0",
    ".data:00403000 db 'x, y',0Ah",
    ".text:00401000 push ebp\r",
    ".data:00403003 ?? db ?",
    ".text:00401000 loc_401000:",
    "junk line # 401000",
    ".text:00401000 ; comment 401000",
] + [f".data:00403000 {d} 1, 2" for d in sorted(DATA_DIRECTIVES)]


@pytest.fixture(scope="module")
def corpus_lines(tmp_path_factory):
    """Every line of the seed 1..3 synthetic corpora (3 families x 100)."""
    lines = []
    for seed in (1, 2, 3):
        out = tmp_path_factory.mktemp(f"corpus{seed}")
        generate_synthetic_corpus(
            SyntheticCorpusSpec(families=3, samples_per_family=100, seed=seed), out)
        for path in sorted(out.glob("*.asm")):
            lines.extend(path.read_bytes().decode("latin-1").split("\n"))
    return lines


HOSTILE = list("\t \x0b\x1c\x85\xa0\r;',:?$@." + string.hexdigits + string.ascii_letters + "é")
ATOMS = ["dd", "db", "DW", "align", "proc", "PROC", "??", "55", "C3", "ab", "mov",
         "eax", "loc_1:", "x:", "'", "''", ",", ";", "  ", "0", "a1", "dword ptr"]
SECTIONS = [".text", "CODE", ".data", ".idata", "$x", "_a.b9", "é"]
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x1c", "\x85", "\xa0"]
COLUMNS = [c + sep for c in ("55", "8B", "ec", "dd", "db", "ab", "??", "0f")
           for sep in SEPARATORS]


def _runs(rng, alphabet, lengths):
    """One string per length, each joined from uniform draws of alphabet."""
    flat = [alphabet[i] for i in rng.integers(0, len(alphabet), int(lengths.sum())).tolist()]
    ends = np.cumsum(lengths).tolist()
    return ["".join(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def random_lines(seed, count):
    """Seeded hostile lines: with or without a SECTION:ADDR prefix (valid,
    glued to the next character, or with an address of 17 digits), byte
    columns, and a body of single characters and grammar fragments."""
    rng = np.random.default_rng(seed)
    modes = rng.integers(0, 4, count).tolist()
    sections = rng.integers(0, len(SECTIONS), count).tolist()
    seps = rng.integers(0, len(SEPARATORS), count).tolist()
    addrs = _runs(rng, string.hexdigits, rng.integers(1, 18, count))
    columns = _runs(rng, COLUMNS, rng.integers(0, 5, count))
    bodies = _runs(rng, HOSTILE + ATOMS + SEPARATORS, rng.integers(0, 13, count))
    crs = (rng.random(count) < 0.125).tolist()
    lines = []
    for i in range(count):
        prefix = ""
        if modes[i]:
            prefix = SECTIONS[sections[i]] + ":" + addrs[i]
            if modes[i] < 3:
                prefix += SEPARATORS[seps[i]]
        lines.append(prefix + columns[i] + bodies[i] + ("\r" if crs[i] else ""))
    return lines


def test_parser_matches_reference_on_fixtures():
    assert len(FIELDS) == 7
    assert disagreements(FIXTURE_LINES) == []


def test_parser_matches_reference_on_synthetic_corpora(corpus_lines):
    assert len(corpus_lines) > 100_000
    assert disagreements(corpus_lines) == []


def test_parser_matches_reference_on_random_hostile_lines():
    lines = random_lines(seed=2024, count=200_000)
    assert disagreements(lines) == []
    # the draw reaches every branch of the grammar
    parsed = [parse_line(ln) for ln in lines[:20_000]]
    assert {p.kind for p in parsed} == set(LineKind)
    operands = [op for p in parsed for op in p.operands]
    assert any("'" in op for op in operands) and any(" " in op for op in operands)
    assert any(p.mnemonic in DATA_DIRECTIVES for p in parsed)


def test_parse_asm_bytes_random_and_truncated_only_raise_empty_file(corpus_lines):
    rng = np.random.default_rng(11)
    listing = "\n".join(corpus_lines[:2000]).encode("latin-1")
    cases = [b""]
    cases += [bytes(rng.integers(0, 256, n).astype(np.uint8)) for n in rng.integers(1, 600, 300)]
    cases += [listing[:cut] for cut in rng.integers(0, len(listing) + 1, 100)]
    cases += [listing[a:a + n] for a, n in zip(rng.integers(0, len(listing), 100),
                                                 rng.integers(1, 400, 100))]
    for data in cases:
        try:
            asm = parse_asm_bytes(data, "fuzz")
        except EmptyFile:
            assert data == b""
            continue
        assert asm.round_trip().encode("latin-1") == data
        assert len(asm.lines) == data.count(b"\n") + 1
