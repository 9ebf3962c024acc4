"""Opcode line scan and the control-flow API walk on hand-traced programs."""

import dataclasses
import random
from enum import Enum

import pytest

from mccrcnn.asmlite import LineKind, parse_asm_bytes, parse_asm_file
from mccrcnn.extraction import (
    CODE_SECTIONS,
    RET_MNEMONICS,
    NoCode,
    RelationGraph,
    TokenSequence,
    _IDENT,
    _api_name,
    _resolve_target,
    _strip_import_prefix,
    build_relation_graph,
    extract_key_api_sequence,
    extract_opcode_sequence,
    write_sequences,
)
from mccrcnn.harness.synth import SyntheticCorpusSpec, generate_synthetic_corpus
from test_asmlite import random_lines


def program(*lines):
    return parse_asm_file("\n".join(lines), "t")


def apis(*lines):
    asm = program(*lines)
    return list(extract_key_api_sequence(build_relation_graph(asm), asm).tokens)


IMPORTS = (
    ".idata:0040F000 extrn Alpha:dword",
    ".idata:0040F004 extrn Beta:dword",
)


# ------------------------------------------------------ frozen references
# The two-pass graph builder and the mnemonic-driven walk that the one-pass
# builder and the successor-driven walk replaced, kept as oracles with their
# logic unchanged; the builder returns its edge lists and code as a dict,
# which reference_fields maps to the RelationGraph fields.

class JumpKind(Enum):
    UNCONDITIONAL = "unconditional"
    CONDITIONAL = "conditional"


def _code_instructions(asm):
    """Code-section instructions in file order, first occurrence per address."""
    out = []
    seen = set()
    for ln in asm.lines:
        if ln.kind is LineKind.INSTRUCTION and ln.section in CODE_SECTIONS:
            if ln.address not in seen:
                seen.add(ln.address)
                out.append(ln)
    return tuple(out)


def _is_conditional_jump(mnemonic):
    return mnemonic.startswith("j") and mnemonic != "jmp"


def reference_relation_graph(asm):
    """Every RelationGraph field, from the two-pass builder."""
    code = _code_instructions(asm)
    if not code:
        raise NoCode(f"{asm.sample_id}: no instructions in a code section")

    label_addr = {}
    imports = set()
    for ln in asm.lines:
        if ln.kind is LineKind.LABEL and ln.address is not None:
            label_addr.setdefault(ln.label, ln.address)
        elif ln.mnemonic == "extrn" and ln.operands:
            name = _strip_import_prefix(ln.operands[0].split(":", 1)[0].strip())
            if name and _IDENT.match(name):
                imports.add(name)
    frozen_imports = frozenset(imports)

    addresses = [ln.address for ln in code]
    entry = label_addr.get("start", label_addr.get("_start", min(addresses)))
    instr_addrs = set(addresses)

    next_addr = {}
    for cur, nxt in zip(code, code[1:]):
        next_addr[cur.address] = nxt.address
    next_addr[code[-1].address] = None

    api_sites, jump_edges, call_edges = [], [], []
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

    return {
        "entry_address": entry,
        "api_sites": tuple(api_sites),
        "jump_edges": tuple(jump_edges),
        "call_edges": tuple(call_edges),
        "code": code,
    }


def reference_api_tokens(graph):
    """API tokens from the mnemonic-driven walk over a reference graph."""
    code = graph["code"]
    index = {ln.address: i for i, ln in enumerate(code)}
    api_at = dict(graph["api_sites"])
    jump_at = {src: (dst, kind) for src, dst, kind in graph["jump_edges"]}
    call_at = {site: (target, ret) for site, target, ret in graph["call_edges"]}

    def fall(addr):
        i = index.get(addr)
        if i is None or i + 1 >= len(code):
            return None
        return code[i + 1].address

    entry = graph["entry_address"]
    if entry not in index:
        later = [a for a in index if a >= graph["entry_address"]]
        entry = min(later) if later else None

    out = []
    visited = set()
    stack = [entry] if entry is not None else []
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
    return tuple(out)


def reference_fields(graph):
    """The RelationGraph fields of a reference graph: each instruction's
    successors are the ones ``reference_api_tokens`` pushes after it."""
    code = graph["code"]
    api_at = dict(graph["api_sites"])
    jump_at = {src: dst for src, dst, _kind in graph["jump_edges"]}
    call_at = {site: (ret, target) for site, target, ret in graph["call_edges"]}
    successors = {}
    for ln, nxt in zip(code, [*(ln.address for ln in code[1:]), None]):
        addr, m = ln.address, ln.mnemonic
        if addr in api_at or (m == "call" and addr not in call_at):
            successors[addr] = (nxt,)
        elif m == "call":
            successors[addr] = call_at[addr]
        elif m == "jmp":
            successors[addr] = (jump_at[addr],) if addr in jump_at else ()
        elif _is_conditional_jump(m):
            successors[addr] = (jump_at[addr], nxt) if addr in jump_at else (nxt,)
        elif m in RET_MNEMONICS:
            successors[addr] = ()
        else:
            successors[addr] = (nxt,)
    return {"entry_address": graph["entry_address"], "api_calls": api_at,
            "successors": successors}


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
    assert list(seq.tokens) == ["push", "mov", "xor", "pop", "retn"]
    # align is a data directive, so it never reaches the opcode sequence
    align = asm.lines[3]
    assert (align.section, align.mnemonic) == (".text", "align")
    assert align.kind is LineKind.DATA_DIRECTIVE


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
    assert g.entry_address == 0x401000
    assert g.api_calls == {0x401000: "Alpha", 0x401007: "Beta"}
    assert g.successors == {0x401000: (0x401005,), 0x401005: (0x40100A, 0x401007),
                            0x401007: (0x40100A,), 0x40100A: ()}


def test_graph_call_edge_records_return_address():
    asm = program(
        ".text:00401000 call sub_401007",
        ".text:00401005 retn",
        ".text:00401007 sub_401007:",
        ".text:00401007 retn",
    )
    g = build_relation_graph(asm)
    assert g.successors[0x401000] == (0x401005, 0x401007)  # (return address, callee)


def test_graph_call_as_last_instruction_has_no_return():
    asm = program(
        ".text:00401000 nop",
        ".text:00401001 call sub_401000",
    )
    g = build_relation_graph(asm)
    # sub_401000 resolves through the naming convention to 0x401000
    assert g.successors == {0x401000: (0x401001,), 0x401001: (None, 0x401000)}


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
    # the jmp ends its path, the call and the jnz fall through
    assert g.successors == {0x401000: (), 0x401002: (0x401004,), 0x401004: (0x401006,),
                            0x401006: ()}


def test_graph_nocode_raises():
    with pytest.raises(NoCode):
        build_relation_graph(program(".data:00403000 db 1"))


def test_graph_code_is_first_code_instruction_per_address(tmp_path):
    asm = program(
        *IMPORTS,
        ".text:00401005 start:",
        ".text:00401005 push ebp",
        ".data:00403000 db 0",
        ".text:00401006 align 10h",
        "CODE:00401000 nop",
        ".text:00401005 pop ebp",  # duplicate address: the first one counts
        ".text:00401010 retn",
        ".text:00401010 nop",  # the retn came first, so the path still ends here
    )
    graph = build_relation_graph(asm)
    assert graph.successors == {0x401005: (0x401000,), 0x401000: (0x401010,), 0x401010: ()}
    assert list(graph.successors) == [0x401005, 0x401000, 0x401010]
    assert list(graph.successors) == [ln.address for ln in _code_instructions(asm)]
    generate_synthetic_corpus(
        SyntheticCorpusSpec(families=3, samples_per_family=3, seed=5), tmp_path)
    for path in sorted(tmp_path.glob("*.asm")):
        asm = parse_asm_bytes(path.read_bytes(), path.stem)
        assert list(build_relation_graph(asm).successors) == [
            ln.address for ln in _code_instructions(asm)], path


def test_graph_hex_literal_targets():
    asm = program(
        ".text:00401000 jmp 401005h",
        ".text:00401005 call 0x401000",
        ".text:0040100A retn",
    )
    g = build_relation_graph(asm)
    assert g.successors == {0x401000: (0x401005,), 0x401005: (0x40100A, 0x401000),
                            0x40100A: ()}


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


def random_listing(rng):
    """A seeded random jump/call graph as listing text.

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
    return "\n".join(lines)


def random_program(rng):
    return parse_asm_file(random_listing(rng), "t")


def test_walk_terminates_on_random_graphs():
    rng = random.Random(7)
    for trial in range(400):
        asm = random_program(rng)
        graph = build_relation_graph(asm)
        assert list(graph.successors) == [ln.address for ln in _code_instructions(asm)], trial
        assert all(dst in graph.successors
                   for succ in graph.successors.values() for dst in succ if dst is not None), trial
        out = extract_key_api_sequence(graph, asm).tokens
        # each call site is visited at most once, so emits at most once
        sites = list(graph.api_calls.values())
        assert len(out) <= len(sites), trial
        assert all(out.count(name) <= sites.count(name) for name in set(out)), trial
        assert extract_key_api_sequence(build_relation_graph(asm), asm).tokens == out


def scrambled(asm, text, rng):
    """The listing ``text``, parsed as ``asm``, with three of its lines
    repeated, each addressed one also followed by another instruction at
    its address, then shuffled."""
    lines = text.split("\n")
    for line, ln in rng.sample(list(zip(lines, asm.lines)), k=min(3, len(lines))):
        lines.append(line)
        if ln.address is not None:
            lines.append(f"{ln.section}:{ln.address:08X} {rng.choice(['nop', 'retn', 'jmp eax'])}")
    rng.shuffle(lines)
    return parse_asm_file("\n".join(lines), asm.sample_id)


def assert_matches_reference(asm, where):
    want = reference_relation_graph(asm)
    graph = build_relation_graph(asm)
    got = {f.name: getattr(graph, f.name) for f in dataclasses.fields(RelationGraph)}
    assert got == reference_fields(want), where
    assert list(graph.successors) == [ln.address for ln in want["code"]], where
    assert extract_key_api_sequence(graph, asm).tokens == reference_api_tokens(want), where


def test_graph_and_walk_equal_two_pass_reference(tmp_path):
    rng = random.Random(20261018)
    for trial in range(500):
        text = random_listing(rng)
        asm = parse_asm_file(text, "t")
        assert_matches_reference(asm, trial)
        assert_matches_reference(scrambled(asm, text, rng), ("scrambled", trial))
    generate_synthetic_corpus(
        SyntheticCorpusSpec(families=3, samples_per_family=20, seed=11), tmp_path)
    paths = sorted(tmp_path.glob("*.asm"))
    assert len(paths) == 60
    for path in paths:
        data = path.read_bytes()
        asm = parse_asm_bytes(data, path.stem)
        assert_matches_reference(asm, path.name)
        assert_matches_reference(scrambled(asm, data.decode("latin-1"), rng),
                                 ("scrambled", path.name))


BRANCH_MNEMONICS = ["call", "j", "jmp", "jz", "extrn", "retn", "mov"]


def hostile_listings(seed, count, length):
    """``count`` listings of ``length`` of the parser's seeded hostile lines
    after the import table, about half of them rewritten as a line whose
    mnemonic is one the graph builder branches on and whose operand text is
    another hostile line, an import or a local target.  So a bare ``j``, a
    call without operands and ``extrn`` with quoted operands occur in code
    sections."""
    lines = random_lines(seed, 2 * count * length)
    rng = random.Random(seed)
    rows = []
    for head, tail in zip(lines[::2], lines[1::2]):
        if rng.random() < 0.5:
            rows.append(head)
            continue
        operand = rng.choice([tail, tail, "Alpha", "ds:Beta", f"loc_{rng.randrange(16):X}"])
        rows.append(f"{rng.choice(['.text', 'CODE', '.idata'])}:{rng.randrange(16):X}"
                    f" {rng.choice(BRANCH_MNEMONICS)} {operand}")
    return ["\n".join([*IMPORTS, *rows[i:i + length]]) for i in range(0, len(rows), length)]


def test_graph_and_walk_equal_two_pass_reference_on_hostile_parses():
    rng = random.Random(31)
    reached = set()
    for trial, text in enumerate(hostile_listings(seed=31, count=200, length=150)):
        asm = parse_asm_file(text, "h")
        for case, where in ((asm, trial), (scrambled(asm, text, rng), ("scrambled", trial))):
            assert_matches_reference(case, where)
            graph = build_relation_graph(case)
            if graph.api_calls:
                reached.add("api call")
            if any(len(succ) == 2 for succ in graph.successors.values()):
                reached.add("code target")
            for ln in case.lines:
                if ln.kind is LineKind.INSTRUCTION and ln.section in CODE_SECTIONS:
                    reached.update(name for name, hit in [
                        ("bare j", ln.mnemonic == "j"),
                        ("call without operands", ln.mnemonic == "call" and not ln.operands),
                        ("quoted extrn", ln.mnemonic == "extrn" and "'" in "".join(ln.operands)),
                    ] if hit)
    assert reached == {"api call", "code target", "bare j", "call without operands",
                       "quoted extrn"}


def test_extrn_in_code_section_is_both_code_and_import():
    asm = program(
        ".text:00401000 start:",
        ".text:00401000 extrn Alpha:dword",
        ".text:00401004 call Alpha",
        ".text:00401009 retn",
    )
    g = build_relation_graph(asm)
    assert g.successors == {0x401000: (0x401004,), 0x401004: (0x401009,), 0x401009: ()}
    assert g.api_calls == {0x401004: "Alpha"}
    assert list(extract_key_api_sequence(g, asm).tokens) == ["Alpha"]


# -------------------------------------------------------------- sequences

def test_sequence_tsv_round_trip(tmp_path):
    path = tmp_path / "seqs.tsv"
    write_sequences(path, "api", [TokenSequence("b", ()), TokenSequence("c", ("CreateFileA",))])
    assert path.read_text(encoding="utf-8").split("\n") == [
        "b\tapi\t", "c\tapi\tCreateFileA", ""]
    write_sequences(path, "opcode", [TokenSequence("a", ("mov", "push", "retn"))])
    assert path.read_text(encoding="utf-8").split("\n") == ["a\topcode\tmov push retn", ""]
