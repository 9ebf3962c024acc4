"""Opcode line scan and the control-flow API walk on hand-traced programs."""

import random

import pytest

from mccrcnn.asmlite import parse_asm_file
from mccrcnn.extraction import (
    JumpKind,
    NoCode,
    SequenceKind,
    TokenSequence,
    build_relation_graph,
    extract_key_api_sequence,
    extract_opcode_sequence,
    write_sequences,
)


def program(*lines):
    return parse_asm_file("\n".join(lines), "t")


def apis(*lines):
    asm = program(*lines)
    return list(extract_key_api_sequence(build_relation_graph(asm), asm).tokens)


IMPORTS = (
    ".idata:0040F000 extrn Alpha:dword",
    ".idata:0040F004 extrn Beta:dword",
)


# ------------------------------------------------------------ opcode scan

def test_opcode_sequence_file_order_code_sections_only():
    asm = program(
        ".text:00401000 push ebp",
        ".text:00401001 mov ebp, esp",
        ".data:00403000 db 0",
        ".text:00401003 align 10h",
        ".text:00401010 xor eax, eax",
        "CODE:0045B000 pop ebx",
        ".idata:0040F000 extrn Alpha:dword",
        "garbage",
        ".text:00401011 retn",
    )
    seq = extract_opcode_sequence(asm)
    assert seq.kind is SequenceKind.OPCODE
    assert list(seq.tokens) == ["push", "mov", "xor", "pop", "retn"]


def test_opcode_scan_keeps_duplicate_addresses():
    # the line scan is a pure file walk; only the graph dedups addresses
    asm = program(
        ".text:00401000 push ebp",
        ".text:00401000 push ebp",
    )
    assert list(extract_opcode_sequence(asm).tokens) == ["push", "push"]


def test_opcode_scan_empty_for_data_only_file():
    asm = program(".data:00403000 db 1")
    assert extract_opcode_sequence(asm).tokens == ()


# ------------------------------------------------------------ graph build

def test_graph_bounds_entry_and_api_sites():
    asm = program(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 call ds:Alpha",
        ".text:00401005 jnz short loc_40100A",
        ".text:00401007 call ds:Beta",
        ".text:0040100A loc_40100A:",
        ".text:0040100A retn",
    )
    g = build_relation_graph(asm)
    assert g.code_begin == 0x401000
    assert g.code_end == 0x40100A
    assert g.entry_address == 0x401000
    assert g.api_sites == ((0x401000, "Alpha"), (0x401007, "Beta"))
    assert g.jump_edges == ((0x401005, 0x40100A, JumpKind.CONDITIONAL),)


def test_graph_call_edge_records_return_address():
    asm = program(
        ".text:00401000 call sub_401007",
        ".text:00401005 retn",
        ".text:00401007 sub_401007:",
        ".text:00401007 retn",
    )
    g = build_relation_graph(asm)
    assert g.call_edges == ((0x401000, 0x401007, 0x401005),)


def test_graph_call_as_last_instruction_has_no_return():
    asm = program(
        ".text:00401000 nop",
        ".text:00401001 call sub_401000",
    )
    g = build_relation_graph(asm)
    # sub_401000 resolves through the naming convention to 0x401000
    assert g.call_edges == ((0x401001, 0x401000, None),)


def test_graph_default_entry_is_code_begin():
    asm = program(
        ".text:00401005 nop",
        ".text:00401000 nop",
    )
    assert build_relation_graph(asm).entry_address == 0x401000


def test_graph_underscore_start_label():
    asm = program(
        ".text:00401000 nop",
        ".text:00401002 _start:",
        ".text:00401002 retn",
    )
    assert build_relation_graph(asm).entry_address == 0x401002


def test_graph_unresolvable_targets_make_no_edges():
    asm = program(
        ".text:00401000 jmp eax",
        ".text:00401002 call dword ptr [ebx]",
        ".text:00401004 jnz loc_99999999",  # resolves but not an instruction
        ".text:00401006 retn",
    )
    g = build_relation_graph(asm)
    assert g.jump_edges == ()
    assert g.call_edges == ()


def test_graph_nocode_raises():
    with pytest.raises(NoCode):
        build_relation_graph(program(".data:00403000 db 1"))


def test_graph_hex_literal_targets():
    asm = program(
        ".text:00401000 jmp 401005h",
        ".text:00401005 call 0x401000",
        ".text:0040100A retn",
    )
    g = build_relation_graph(asm)
    assert g.jump_edges == ((0x401000, 0x401005, JumpKind.UNCONDITIONAL),)
    assert g.call_edges == ((0x401005, 0x401000, 0x40100A),)


# --------------------------------------------------- API walk, hand traced

def test_walk_linear_emission_order():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 call ds:Alpha",
        ".text:00401005 mov eax, 1",
        ".text:00401007 call ds:Beta",
        ".text:0040100C retn",
    ) == ["Alpha", "Beta"]


def test_walk_descends_into_callee_before_return_path():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 call sub_401010",
        ".text:00401005 call ds:Alpha",
        ".text:0040100A retn",
        ".text:00401010 sub_401010:",
        ".text:00401010 call ds:Beta",
        ".text:00401015 retn",
    ) == ["Beta", "Alpha"]


def test_walk_conditional_fall_through_first():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 jnz short loc_401010",
        ".text:00401002 call ds:Alpha",
        ".text:00401007 retn",
        ".text:00401010 loc_401010:",
        ".text:00401010 call ds:Beta",
        ".text:00401015 retn",
    ) == ["Alpha", "Beta"]


def test_walk_unconditional_jump_skips_dead_code():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 jmp loc_401010",
        ".text:00401002 call ds:Alpha",
        ".text:00401007 retn",
        ".text:00401010 loc_401010:",
        ".text:00401010 call ds:Beta",
        ".text:00401015 retn",
    ) == ["Beta"]


def test_walk_loop_terminates_and_emits_once():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 call ds:Alpha",
        ".text:00401005 jnz short loc_401000",
        ".text:00401007 retn",
        ".text:00401000 loc_401000:",
    ) == ["Alpha"]


def test_walk_ret_ends_the_path():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 retn",
        ".text:00401001 call ds:Alpha",
    ) == []


def test_walk_entry_label_beats_lower_addresses():
    assert apis(
        *IMPORTS,
        ".text:00401000 call ds:Alpha",
        ".text:00401005 retn",
        ".text:00401006 start:",
        ".text:00401006 call ds:Beta",
        ".text:0040100B retn",
    ) == ["Beta"]


def test_walk_entry_snaps_to_next_instruction():
    text = "\n".join([
        ".text:00401001 start:",  # label address has no instruction
        ".text:00401003 call ds:Alpha",
        ".text:00401008 retn",
        ".idata:0040F000 extrn Alpha:dword",
    ])
    asm = parse_asm_file(text, "t")
    g = build_relation_graph(asm)
    assert g.entry_address == 0x401001
    assert list(extract_key_api_sequence(g, asm).tokens) == ["Alpha"]


def test_walk_imp_prefix_and_bare_import_name():
    assert apis(
        ".idata:0040F000 extrn __imp_CreateFileA:dword",
        ".text:00401000 start:",
        ".text:00401000 call ds:__imp_CreateFileA",
        ".text:00401005 call CreateFileA",
        ".text:0040100A retn",
    ) == ["CreateFileA", "CreateFileA"]


def test_walk_unresolved_call_falls_through():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 call eax",
        ".text:00401002 call ds:Alpha",
        ".text:00401007 retn",
    ) == ["Alpha"]


def test_walk_indirect_jmp_dead_ends():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 jmp eax",
        ".text:00401002 call ds:Alpha",
    ) == []


def test_walk_nested_calls_depth_first():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 call sub_401010",
        ".text:00401005 call ds:Alpha",   # third
        ".text:0040100A retn",
        ".text:00401010 sub_401010:",
        ".text:00401010 call sub_401020",
        ".text:00401015 call ds:Beta",    # second
        ".text:0040101A retn",
        ".text:00401020 sub_401020:",
        ".text:00401020 call ds:Alpha",   # first
        ".text:00401025 retn",
    ) == ["Alpha", "Beta", "Alpha"]


def test_walk_conditional_without_target_still_falls_through():
    assert apis(
        *IMPORTS,
        ".text:00401000 start:",
        ".text:00401000 jnz eax",
        ".text:00401002 call ds:Alpha",
        ".text:00401007 retn",
    ) == ["Alpha"]


def test_walk_all_ret_variants_stop():
    for r in ("ret", "retn", "retf", "iret", "iretd"):
        assert apis(
            *IMPORTS,
            ".text:00401000 start:",
            f".text:00401000 {r}",
            ".text:00401001 call ds:Alpha",
        ) == [], r


def random_program(rng):
    """A seeded random jump/call graph as listing lines.

    Targets include the instruction itself, other instructions, labels
    that point into data, addresses past the code, registers, and
    imports, so every kind of edge and dead end occurs.
    """
    n = rng.randint(1, 40)
    addrs = [0x401000 + 3 * i for i in range(n)]
    lines = [".idata:0040F000 extrn Alpha:dword", ".idata:0040F004 extrn Beta:dword",
             ".data:00403000 data_label:", ".data:00403000 db 0"]
    if rng.random() < 0.7:
        lines.append(f".text:{rng.choice(addrs):08X} start:")
    for i, addr in enumerate(addrs):
        if rng.random() < 0.3:
            lines.append(f".text:{addr:08X} loc_{addr:X}:")
        target = rng.choice([
            f"loc_{addr:X}",  # self-loop
            f"loc_{rng.choice(addrs):X}",
            f"short loc_{rng.choice(addrs):X}",
            f"{rng.choice(addrs):X}h",
            "data_label",  # out of the code section
            "loc_500000",  # past the code
            "eax",
            "ds:Alpha", "Beta",
        ])
        mnemonic = rng.choice(["mov", "push", "jmp", "jz", "jnz", "call", "call", "retn"])
        operand = {"mov": " eax, 1", "push": " eax", "retn": ""}.get(mnemonic, " " + target)
        lines.append(f".text:{addr:08X} {mnemonic}{operand}")
    if rng.random() < 0.3:
        lines.append(f".text:{addrs[-1]:08X} nop")  # duplicate address
    if rng.random() < 0.2:
        rng.shuffle(lines)  # out of address order
    return program(*lines)


def test_walk_terminates_on_random_graphs():
    rng = random.Random(7)
    for trial in range(400):
        asm = random_program(rng)
        graph = build_relation_graph(asm)
        code = {ln.address for ln in asm.lines if ln.section == ".text" and ln.mnemonic}
        assert all(dst in code for _src, dst, _kind in graph.jump_edges), trial
        assert all(dst in code for _site, dst, _ret in graph.call_edges), trial
        out = extract_key_api_sequence(graph, asm).tokens
        # each call site is visited at most once, so emits at most once
        sites = [name for _addr, name in graph.api_sites]
        assert len(out) <= len(sites), trial
        assert all(out.count(name) <= sites.count(name) for name in set(out)), trial
        assert extract_key_api_sequence(build_relation_graph(asm), asm).tokens == out


# -------------------------------------------------------------- sequences

def test_sequence_tsv_round_trip(tmp_path):
    seqs = [
        TokenSequence("a", SequenceKind.OPCODE, ("mov", "push", "retn")),
        TokenSequence("b", SequenceKind.API, ()),
        TokenSequence("c", SequenceKind.API, ("CreateFileA",)),
    ]
    path = tmp_path / "seqs.tsv"
    write_sequences(path, seqs)
    assert path.read_text(encoding="utf-8").split("\n") == [
        "a\topcode\tmov push retn", "b\tapi\t", "c\tapi\tCreateFileA", ""]
