"""The scripts under scripts/ run against the package as it is."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

from mccrcnn.harness.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stall_survey_rebuilds_the_scan_set_up(tmp_path):
    """One seed at the bench's smoke sizes gives the accuracy and final
    loss that the ``scan`` workload's own set-up reaches."""
    survey = load(ROOT / "scripts" / "stall_survey.py")
    workloads = load(ROOT / "bench" / "workloads.py")
    assert len(survey.DEFAULT_SEEDS) == 42 and survey.DEFAULT_SEEDS[:2] == (1416900791, 205)
    accuracy, loss, missed = survey.survey_seed(4, tmp_path / "survey", per_family=6,
                                                **workloads.TINY)
    assert 0.0 <= accuracy <= 1.0 and math.isfinite(loss)

    scan = workloads.Scan(4, "tiny", tmp_path / "scan")
    (tmp_path / "scan").mkdir()
    scan.setup()
    scan.run_pass()
    metrics = scan.finish()
    assert not scan.problems, scan.problems
    assert (accuracy, loss) == (metrics["accuracy"][0], metrics["train_loss"][0])
    held_out = [sid for sid, _raw, _y in scan.listings]
    assert len(missed) == round((1 - accuracy) * len(held_out))
    assert set(missed) <= set(held_out)


def test_former_plateau_seeds_fit_at_scan_sizes(tmp_path):
    """The four seeds whose fused fit stayed on a loss plateau with
    uncentered vectors (held-out 0.333..0.8, final loss 0.32..0.69).
    Centered, they read held-out 0.987..1.0 with final loss at most 0.023;
    the bounds leave a margin of about one held-out miss in twenty and
    four times that loss."""
    survey = load(ROOT / "scripts" / "stall_survey.py")
    for seed in (205, 1416900791, 1097127993, 52734659):
        accuracy, loss, missed = survey.survey_seed(seed, tmp_path / str(seed))
        assert accuracy >= 0.95 and loss < 0.1, (seed, accuracy, loss, missed)


def test_stall_survey_count_line_gives_the_largest_stalled_loss(monkeypatch, capsys):
    """A stubbed survey_seed: no corpus is generated and nothing trains.
    Seed 1 reaches 1.0 with the largest loss, which the count line skips."""
    survey = load(ROOT / "scripts" / "stall_survey.py")
    outcomes = {1: (1.0, 0.9, []), 2: (0.333, 0.691, ["01_0003", "02_0007"]),
                3: (0.987, 0.024, ["03_0001"]), 4: (0.8, 0.32, ["01_0000"])}
    monkeypatch.setattr(survey, "survey_seed", lambda seed, workdir: outcomes[seed])
    assert survey.main(["1", "2", "3", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed\theldout_accuracy\tfinal_loss\tmissed_ids"
    assert out[1:5] == ["1\t1.0\t0.9\t-", "2\t0.333\t0.691\t01_0003,02_0007",
                        "3\t0.987\t0.024\t03_0001", "4\t0.8\t0.32\t01_0000"]
    assert out[-1] == "below held-out 1.0: 3 of 4, largest final loss among them 0.691"
    assert survey.main(["1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "below held-out 1.0: 0 of 1, largest final loss among them -"


def bench_line(correct, pass_s, setup_s, rss):
    """A last output line of bench/run_bench.py --trace 0."""
    metrics = {"pass_s": (pass_s, "s"), "setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
    return json.dumps({"correct": correct, "attempted": 150, "failed": 0 if correct else 3,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def test_bench_pairs_alternates_order_and_summarizes_ratios(monkeypatch):
    """Canned result lines only: no benchmark run and no git process."""
    pairs_mod = load(ROOT / "scripts" / "bench_pairs.py")
    monkeypatch.setattr(pairs_mod.subprocess, "run", None)  # any process start fails
    assert pairs_mod.schedule(1) == [("A", "B")]
    assert pairs_mod.schedule(4) == [("A", "B"), ("B", "A"), ("A", "B"), ("B", "A")]

    result = pairs_mod.parse_result("env line\n" + bench_line(True, 0.3, 2.0, 68.5) + "\n")
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {"pass_s": 0.3, "setup_s": 2.0, "peak_rss_mb": 68.5}

    lines = [  # (A, B) per pair: pass_s B/A 0.8, 0.9, 1.1, 0.5; setup_s one tie
        (bench_line(True, 0.5, 2.0, 68.0), bench_line(True, 0.4, 2.0, 69.0)),
        (bench_line(True, 0.2, 1.0, 70.0), bench_line(True, 0.18, 1.1, 69.0)),
        (bench_line(True, 0.3, 3.0, 68.0), bench_line(False, 0.33, 2.0, 70.0)),
        (bench_line(True, 0.4, 2.0, 68.0), bench_line(True, 0.2, 1.0, 67.0)),
    ]
    pairs = [{"A": pairs_mod.parse_result(a), "B": pairs_mod.parse_result(b)} for a, b in lines]
    summary = pairs_mod.summarize(pairs, ["pass_s", "setup_s", "peak_rss_mb"])
    assert list(summary) == ["pass_s", "setup_s", "peak_rss_mb"]
    s = summary["pass_s"]
    assert s["median_ratio"] == pytest.approx(0.85) and s["b_lower"] == 3
    assert s["median_a"] == pytest.approx(0.35) and s["median_b"] == pytest.approx(0.265)
    assert s["quartiles_a"] == pytest.approx((0.225, 0.475))  # exclusive method, n = 4
    assert summary["setup_s"]["b_lower"] == 2  # the tie counts for neither side
    assert summary["peak_rss_mb"]["b_lower"] == 2
    one = pairs_mod.summarize(pairs[:1], ["pass_s"])["pass_s"]
    assert one["quartiles_a"] == (0.5, 0.5) and one["median_ratio"] == pytest.approx(0.8)


def test_bench_pairs_verdicts_on_canned_pairs(monkeypatch):
    """gain needs B lower in >= 9/10 pairs and a median gap wider than A's
    quartile distance; regression needs B's median above A's by more than
    the bound, a fraction of A's median."""
    pairs_mod = load(ROOT / "scripts" / "bench_pairs.py")
    monkeypatch.setattr(pairs_mod.subprocess, "run", None)

    def verdict(a_values, b_values, bound=0.25):
        pairs = [{"A": pairs_mod.parse_result(bench_line(True, a, 2.0, 68.0)),
                  "B": pairs_mod.parse_result(bench_line(True, b, 2.0, 68.0))}
                 for a, b in zip(a_values, b_values)]
        s = pairs_mod.summarize(pairs, ["pass_s"])["pass_s"]
        return pairs_mod.verdict(s, len(pairs), bound)

    a = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.31, 0.29, 0.30, 0.30]  # quartiles 0.2975..0.31
    assert verdict(a, [x - 0.03 for x in a]) == "gain"  # 10/10, gap 0.03 > 0.0125
    assert verdict(a, [x - 0.03 for x in a[:9]] + [0.31]) == "gain"  # 9/10
    assert verdict(a, [x - 0.03 for x in a[:8]] + [0.31, 0.31]) == "none"  # 8/10
    assert verdict(a, [x - 0.01 for x in a]) == "none"  # 10/10, gap 0.01 < 0.0125
    assert verdict(a, [x - 0.03 for x in a[:9]] + [0.30]) == "gain"  # a tie counts for neither side
    assert verdict(a, [x - 0.03 for x in a[:8]] + [0.30, 0.30]) == "none"  # two ties
    assert verdict(a, [x * 1.2 for x in a]) == "none"  # +20% inside a 0.25 bound
    assert verdict(a, [x * 1.3 for x in a]) == "regression"
    assert verdict(a, [x * 1.2 for x in a], bound=0.1) == "regression"
    assert verdict([0.3], [0.2]) == "gain"  # one pair: quartile distance 0


def test_bench_pairs_main_runs_the_schedule(monkeypatch, capsys):
    """main with the export and the benchmark run replaced by fakes."""
    pairs_mod = load(ROOT / "scripts" / "bench_pairs.py")
    monkeypatch.setattr(pairs_mod.subprocess, "run", None)
    monkeypatch.setattr(pairs_mod, "export", lambda rev, dest: f"commit-{rev}")
    runs = []

    def fake_bench(tree, workload, seed, seconds):
        runs.append((tree.name, workload, seed, seconds))
        fast = tree.name == "B"
        return pairs_mod.parse_result(bench_line(True, 0.2 if fast else 0.3, 2.0, 68.0))

    monkeypatch.setattr(pairs_mod, "run_bench", fake_bench)
    assert pairs_mod.main(["HEAD~1", "HEAD", "--workload", "scan", "--pairs", "3",
                           "--first-seed", "7"]) == 0
    assert runs == [("A", "scan", 7, 20.0), ("B", "scan", 7, 20.0), ("B", "scan", 8, 20.0),
                    ("A", "scan", 8, 20.0), ("A", "scan", 9, 20.0), ("B", "scan", 9, 20.0)]
    out = capsys.readouterr().out
    assert "A: 3/3 runs correct, 0 operations failed" in out
    assert "B/A median 0.6667  B lower in 3/3  verdict gain" in out
    summary = [line for line in out.splitlines() if " verdict " in line]
    assert [line.split(":")[0] for line in summary] == ["pass_s", "setup_s", "peak_rss_mb"]
    assert all(line.endswith("verdict none") for line in summary[1:])


@pytest.mark.parametrize("argv", [
    ["--workload", "scan", "--pairs", "0"],
    ["--workload", "scan", "--pairs", "-2"],
    ["--workload", "scan", "--pairs", "two"],
    ["--workload", "no_such_workload", "--pairs", "3"],
    ["--workload", "scan"],
])
def test_bench_pairs_rejects_bad_arguments_before_any_process(argv, monkeypatch, capsys):
    pairs_mod = load(ROOT / "scripts" / "bench_pairs.py")
    monkeypatch.setattr(pairs_mod.subprocess, "run", None)
    with pytest.raises(SystemExit) as exc:
        pairs_mod.main(["HEAD~1", "HEAD", *argv])
    assert exc.value.code == 2 and "error:" in capsys.readouterr().err


def fake_export(rev, dest):
    """Stands in for the git archive export: the tree holds its revision's name."""
    dest.mkdir(parents=True)
    (dest / "REV").write_text(rev)
    return f"commit-{rev}"


def fake_produce(tree, work):
    """Two files per revision; revision "flip" changes one bit of the
    report, and "extra" writes one more file."""
    rev = (tree / "REV").read_text()
    out = work / "files" / "out" / "cv_fused_seed1"
    out.mkdir(parents=True)
    (out / "report_B2.csv").write_bytes(b"1,x,0.4\n" if rev == "flip" else b"1,x,0.5\n")
    (out / "summary_B2.txt").write_text("summary\n")
    if rev == "extra":
        (work / "files" / "out" / "model.ckpt").write_text("v3\n")


REPORT, SUMMARY = "out/cv_fused_seed1/report_B2.csv", "out/cv_fused_seed1/summary_B2.txt"


@pytest.mark.parametrize("rev_b, code, lines", [
    ("HEAD", 0, [f"same: {REPORT}", f"same: {SUMMARY}", "2 of 2 files same, 0 differ"]),
    ("flip", 1, [f"differs: {REPORT}", f"same: {SUMMARY}", "1 of 2 files same, 1 differ"]),
    ("extra", 1, [f"same: {REPORT}", f"same: {SUMMARY}", "only in B: out/model.ckpt",
                  "2 of 3 files same, 1 differ"]),
])
def test_same_bits_names_each_differing_file(monkeypatch, capsys, rev_b, code, lines):
    """main with the export and the runs replaced by fakes."""
    same = load(ROOT / "scripts" / "same_bits.py")
    monkeypatch.setattr(same.subprocess, "run", None)  # any process start fails
    monkeypatch.setattr(same, "export", fake_export)
    monkeypatch.setattr(same, "produce", fake_produce)
    assert same.main(["HEAD", rev_b]) == code
    out = capsys.readouterr().out.splitlines()
    assert out == ["A = HEAD (commit-HEAD)", f"B = {rev_b} (commit-{rev_b})", *lines]


def test_same_bits_runs_each_job_with_the_exported_package(monkeypatch, tmp_path):
    """produce with a fake process runner: every job's config loads, and
    each verb runs from the export's src/ at one BLAS thread."""
    same = load(ROOT / "scripts" / "same_bits.py")
    runs = []

    def fake_run(cmd, cwd, env, **_kw):
        runs.append((cmd[1:3], cmd[3:-1], Path(cmd[-1]).stem, cwd,
                     env["PYTHONPATH"], env["OPENBLAS_NUM_THREADS"]))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(same.subprocess, "run", fake_run)
    tree, work = tmp_path / "tree", tmp_path / "work"
    same.produce(tree, work)
    assert all(r[0] == ["-m", "mccrcnn.harness.cli"] for r in runs)
    assert {r[3:] for r in runs} == {(work, str(tree / "src"), "1")}
    assert [(r[2], " ".join(r[1])) for r in runs] == [
        (name, " ".join(verb)) for name, _ini, verbs in same.JOBS for verb in verbs]

    cfgs = {name: load_config(work / f"{name}.ini") for name, _ini, _verbs in same.JOBS}
    for name, cfg in cfgs.items():
        assert cfg.corpus == work / "files" / "corpus" / name
        assert cfg.out_dir == work / "files" / "out" / name and cfg.folds == 2

    def shape(name):
        s = cfgs[name].synthetic
        return cfgs[name].seed, s.families, s.samples_per_family, s.fusion_mode

    assert [shape(f"cv_fused_seed{s}") for s in (1, 2, 3)] == [(s, 3, 100, False)
                                                            for s in (1, 2, 3)]
    assert [shape(f"suites_seed{s}") for s in (1, 2)] == [(1, 3, 20, False), (2, 3, 20, False)]
    assert shape("fusion_seed7") == (7, 2, 30, True)
    tiny = cfgs["cli_tiny"]
    assert shape("cli_tiny") == (5, 2, 6, False)
    assert (tiny.embedding.k, tiny.model.seq_len, tiny.train.epochs) == (6, 16, 2)

    def failing_run(cmd, **_kw):
        return subprocess.CompletedProcess(cmd, 3, "", "error: diverged")

    monkeypatch.setattr(same.subprocess, "run", failing_run)
    with pytest.raises(SystemExit, match="gen cv_fused_seed1 .* exited 3:\nerror: diverged"):
        same.produce(tree, tmp_path / "work2")
