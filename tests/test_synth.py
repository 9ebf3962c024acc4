"""The synthetic generator draws the stream of its per-token reference.

``generate_synthetic_corpus`` takes every draw after its style table
from ``synth._Draws``, which reads the bit generator's raw 64-bit words
in blocks, and walks each Markov chain with one run of uniforms searched
in CDF tables.  The frozen reference below is the generator as it was
before that: numpy Generator calls throughout, one
``rng.choice(n, p=row)`` per token and one ``rng.integers(2, 8)`` per
instruction, with its own copies of the helpers that drew each chain's
transition matrix and start row.  Every file it writes must come out
byte for byte the same, every walk must leave the stream in the same
state, and the reader must hand out the Generator's own values through
any interleaving of its calls.  These run on the installed numpy, so
each numpy version the suite runs on checks the stream argument for
itself.
"""

import copy
import json
from dataclasses import asdict

import numpy as np
import pytest

from mccrcnn.harness import synth
from mccrcnn.harness.synth import SyntheticCorpusSpec, generate_synthetic_corpus


# ------------------------------------------------ frozen per-token reference

def reference_transition(rng, n):
    """Row-stochastic matrix with two strongly preferred successors per row."""
    mat = np.zeros((n, n))
    for i in range(n):
        pref = rng.choice(n, size=2, replace=False)
        row = np.full(n, 0.3 / (n - 2))
        row[pref] = 0.35
        mat[i] = row / row.sum()
    return mat


def reference_start_dist(rng, n):
    sig = rng.choice(n, size=4, replace=False)
    row = np.full(n, 0.5 / (n - 4))
    row[sig] = 0.125
    return row / row.sum()


def reference_markov(rng, trans, start, alphabet, length):
    state = int(rng.choice(len(alphabet), p=start))
    seq = [alphabet[state]]
    for _ in range(length - 1):
        state = int(rng.choice(len(alphabet), p=trans[state]))
        seq.append(alphabet[state])
    return seq


def reference_render_sample(rng, ops_stream_main, ops_stream_sub, motif):
    m = len(ops_stream_main)
    main_apis = list(motif[:-1])
    sub_api = motif[-1]

    inserts = {}

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

    items = [("label", "start")]
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

    cursor = synth._TEXT_BASE
    sym = {}
    recs = []
    for kind, payload in items:
        if kind == "label":
            sym[payload] = cursor
            recs.append((kind, payload, cursor, 0))
        elif kind in ("comment", "blank"):
            recs.append((kind, payload, cursor, 0))
        elif kind == "align":
            recs.append((kind, payload, cursor, 0))
            cursor = (cursor // 16 + 1) * 16
        else:
            advance = int(rng.integers(2, 8))
            recs.append((kind, payload, cursor, advance))
            cursor += advance

    def resolve(name):
        if name == "start":
            return "start"
        if name == "SUB":
            return f"sub_{sym['SUB']:06X}"
        return f"loc_{sym[name]:06X}"

    lines = []
    for kind, payload, addr, advance in recs:
        prefix = f".text:{addr:08X} "
        if kind == "label":
            lines.append(prefix + resolve(payload) + ":")
            continue
        if kind == "comment":
            lines.append(prefix + synth._COMMENT_POOL[int(rng.integers(len(synth._COMMENT_POOL)))])
            continue
        if kind == "blank":
            lines.append("")
            continue
        if kind == "align":
            lines.append(prefix + "align 10h")
            continue
        if kind == "op":
            operand = synth._OPERAND_POOL[int(rng.integers(len(synth._OPERAND_POOL)))]
            content = payload if payload == "nop" or not operand else f"{payload} {operand}"
        elif kind == "api":
            content = f"call ds:{payload}"
        elif kind == "callsub":
            content = f"call {resolve('SUB')}"
        elif kind == "jmpc":
            short = "short " if rng.random() < 0.5 else ""
            content = f"jnz {short}{resolve(payload)}"
        else:
            content = "ret"
        byte_text = ""
        if rng.random() < 0.5 and advance:
            raw = rng.integers(0, 256, size=min(advance, 4))
            byte_text = " ".join(f"{int(v):02X}" for v in raw) + " "
        lines.append(prefix + byte_text + content)

    lines.append("")
    daddr = synth._DATA_BASE
    for _ in range(int(rng.integers(2, 5))):
        pick = rng.random()
        if pick < 0.4:
            content = f"db 0{int(rng.integers(0, 256)):02X}h"
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
    iaddr = synth._IDATA_BASE
    for name in motif:
        lines.append(f".idata:{iaddr:08X} extrn {name}:dword")
        iaddr += 4

    return "\n".join(lines) + "\n", main_apis + [sub_api]


def reference_corpus(spec):
    """{file name: bytes} the per-token generator writes for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    ops, apis = synth.DEFAULT_OPCODES, synth.DEFAULT_APIS
    n = synth._MOTIF_LEN
    if spec.fusion_mode:
        chosen = rng.choice(len(apis), size=2 * n, replace=False)
        half = len(ops) // 2
        sub_alphabets = (ops[:half], ops[half:])
        styles = []
        for s in range(2):
            motif = tuple(apis[i] for i in chosen[s * n:(s + 1) * n])
            sub = sub_alphabets[s]
            styles.append((reference_transition(rng, len(sub)),
                           reference_start_dist(rng, len(sub)), motif, sub))
    else:
        profiles = []
        for _ in range(spec.families):
            motif = tuple(apis[i] for i in rng.choice(len(apis), size=n, replace=False))
            profiles.append((reference_transition(rng, len(ops)),
                             reference_start_dist(rng, len(ops)), motif))

    files, samples = {}, []
    for family in range(1, spec.families + 1):
        for i in range(spec.samples_per_family):
            if spec.fusion_mode:
                op_style = i % 2
                api_style = op_style if family == 1 else 1 - op_style
                trans, start, _, alphabet = styles[op_style]
                motif = styles[api_style][2]
            else:
                op_style = api_style = None
                trans, start, motif = profiles[family - 1]
                alphabet = ops
            total = int(rng.integers(spec.min_len, spec.max_len + 1))
            sub_len = int(rng.integers(5, 9))
            main_ops = reference_markov(rng, trans, start, alphabet, total - sub_len)
            sub_ops = reference_markov(rng, trans, start, alphabet, sub_len)
            sid = f"{family:02d}_{i:04d}"
            text, api_seq = reference_render_sample(rng, main_ops, sub_ops, motif)
            files[f"{sid}.asm"] = text.encode()
            samples.append({"id": sid, "file": f"{sid}.asm", "family": family,
                            "opcode_style": op_style, "api_style": api_style,
                            "api_sequence": api_seq})
    files["labels.csv"] = ("Id,Class\n" + "".join(
        f"{s['id']},{s['family']}\n" for s in samples)).encode()
    manifest = {"spec": asdict(spec), "samples": samples}
    files["manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return files


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("kw", [
    dict(families=3, samples_per_family=100, seed=4),
    dict(families=2, samples_per_family=30, seed=1, fusion_mode=True),
    dict(families=2, samples_per_family=30, seed=2, fusion_mode=True),
    dict(families=2, samples_per_family=30, seed=7, fusion_mode=True),
    dict(families=3, samples_per_family=10, seed=9, min_len=30, max_len=30),
    dict(families=5, samples_per_family=6, seed=11, max_len=300),
    # every walk and mask takes more uniforms than one block of words
    dict(families=2, samples_per_family=2, seed=3, min_len=5000, max_len=6000),
], ids=["3x100", "fusion1", "fusion2", "fusion7", "len30", "5fam_len300", "len5000"])
def test_corpus_bytes_equal_per_token_reference(tmp_path, kw):
    spec = SyntheticCorpusSpec(**kw)
    generate_synthetic_corpus(spec, tmp_path)
    want = reference_corpus(spec)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
    for name, data in want.items():
        assert (tmp_path / name).read_bytes() == data, name


def reader_state(start, live, draws):
    """The bit generator state ``draws`` stands for: ``start`` advanced
    by the words it has handed out, with its buffered half-word.

    ``live`` is the Generator the reader was built from; it stands a
    whole number of blocks past ``start``, ``len(draws.words) -
    draws.pos`` words ahead of the reader."""
    bitgen = np.random.PCG64()
    bitgen.state = start
    ahead = live.bit_generator.state["state"]
    fetched = 0
    while bitgen.state["state"] != ahead:
        assert fetched < 10**4 * synth._BLOCK_WORDS, "not a whole number of blocks"
        bitgen.advance(synth._BLOCK_WORDS)
        fetched += synth._BLOCK_WORDS
    bitgen.state = start
    state = bitgen.advance(fetched - (len(draws.words) - draws.pos)).state
    state["has_uint32"] = int(draws.has_half)
    state["uinteger"] = draws.half
    return state


@pytest.mark.parametrize("n", [6, 13, 26])
def test_walk_draws_the_per_token_stream(n):
    rng = np.random.default_rng(n)
    ref_rng = np.random.default_rng(n)
    chain = synth._chain(rng, n)
    trans = reference_transition(ref_rng, n)
    start = reference_start_dist(ref_rng, n)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    alphabet = tuple(f"t{i}" for i in range(n))
    for length in (1, 2, 5, 30, 300, 5000):
        # an odd count of 32-bit draws leaves half a 64-bit word buffered
        rng.integers(0, 6, size=length % 3)
        ref_rng = copy.deepcopy(rng)
        live = copy.deepcopy(rng)
        draws = synth._Draws(live)
        want = reference_markov(ref_rng, trans, start, alphabet, length)
        got = synth._markov(draws, chain, alphabet, length)
        assert got == want, length
        state = reader_state(rng.bit_generator.state, live, draws)
        assert state == ref_rng.bit_generator.state, length
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state


#: spans the generator draws (4, 16, 256, 65536 without rejection; 6, 3,
#: 51 and 4 with), spans where most draws are rejected, the span of 1
#: that takes no draw and the widest span the reader takes
READER_SPANS = (4, 16, 256, 65536, 6, 3, 51, 3 * 2**30, 2**31 + 1, 1, 2**32 - 1)


@pytest.mark.parametrize("seed", range(50))
def test_reader_hands_out_the_generators_draws(seed):
    plan = np.random.default_rng(10_000 + seed)
    rng = np.random.default_rng(seed)
    if seed % 2:
        rng.integers(0, 6)  # start with half a word buffered
    start = rng.bit_generator.state
    live = copy.deepcopy(rng)
    draws = synth._Draws(live)
    for step in range(200):
        kind = int(plan.integers(3))
        if kind == 0:
            assert draws.random() == rng.random(), step
        elif kind == 1:
            # runs of every size, one of them longer than a block
            n = int(plan.choice([0, 1, 2, 7, 120, synth._BLOCK_WORDS + 5]))
            assert draws.uniforms(n) == rng.random(n).tolist(), (step, n)
        else:
            span = READER_SPANS[int(plan.integers(len(READER_SPANS)))]
            low = int(plan.integers(-1000, 1000))
            for _ in range(int(plan.integers(1, 6))):
                assert draws.integers(low, low + span) == rng.integers(low, low + span), \
                    (step, span)
    assert reader_state(start, live, draws) == rng.bit_generator.state


class StubRng:
    """Hands out preset uniforms, as ``_Draws.uniforms`` does."""

    def __init__(self, uniforms):
        self.preset = list(uniforms)

    def uniforms(self, n):
        out, self.preset = self.preset[:n], self.preset[n:]
        return out


def test_uniform_on_a_cdf_entry_selects_the_next_state():
    start = np.array([0.25, 0.25, 0.5])  # CDF 0.25, 0.5, 1.0, all exact
    trans = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.5, 0.25, 0.25]])
    chain = (synth._cdf(start), [synth._cdf(row) for row in trans])
    assert chain[0] == [0.25, 0.5, 1.0]
    # 0.25 is start's first entry: state 1, not 0; 0.75 is row 1's second
    # entry: state 2; 0.5 is row 2's first: state 1; 0.0 lies below all
    seq = synth._markov(StubRng([0.25, 0.75, 0.5, 0.0]), chain, "abc", 4)
    assert seq == ["b", "c", "b", "a"]
    cdfs = [np.array(chain[0])] + [np.array(chain[1][s]) for s in (1, 2, 1)]
    assert [int(np.searchsorted(c, u, side="right"))
            for c, u in zip(cdfs, (0.25, 0.75, 0.5, 0.0))] == [1, 2, 1, 0]
