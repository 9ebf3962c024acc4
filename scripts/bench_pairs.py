"""Compare two revisions on one benchmark workload over paired runs.

Both revisions are exported with ``git archive`` into a temporary
directory outside the repository, and ``bench/run_bench.py --trace 0``
runs in each export, one process at a time.  Pair i runs both sides on
seed ``first_seed + i``, and the side that runs first alternates from
pair to pair: whichever side runs second in a pair can read several
per cent slower or faster on a shared host, so a fixed order biases
every pair the same way.

Each pair prints both sides' end-to-end metrics (the ``end_to_end``
names of BENCHMARK.json) and whether each run was correct.  The summary
gives, per metric, each side's median and quartiles, the median of the
per-pair ratios B / A, in how many pairs B read lower than A (ties
count for neither) and a verdict.  Every gated metric is lower-is-better:

* ``gain``: B read lower in at least 9 of 10 pairs, and A's median
  exceeds B's by more than the distance between A's quartiles
* ``regression``: B's median exceeds A's by more than the metric's
  ``bound`` (a fraction of A's median, as BENCHMARK.json gives it)
* ``none``: neither

Usage, from anywhere inside the repository::

    python scripts/bench_pairs.py b165a5f HEAD --workload scan --pairs 10
    python scripts/bench_pairs.py HEAD~1 HEAD --workload cv_fused --pairs 10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def schedule(pairs: int) -> list[tuple[str, str]]:
    """Run order of each pair: A first in even pairs, B first in odd ones."""
    return [("A", "B") if i % 2 == 0 else ("B", "A") for i in range(pairs)]


def parse_result(stdout: str) -> dict:
    """The benchmark's last output line: correct, attempted, failed and
    metrics as {name: value}."""
    result = json.loads(stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[dict[str, dict]], metrics: list[str]) -> dict[str, dict]:
    """Per metric over ``pairs`` ({"A": result, "B": result} each): both
    sides' medians and quartiles, the median ratio B / A and the number
    of pairs in which B read lower."""
    out = {}
    for name in metrics:
        a = [p["A"]["metrics"][name] for p in pairs]
        b = [p["B"]["metrics"][name] for p in pairs]
        out[name] = {
            "median_a": statistics.median(a), "quartiles_a": _quartiles(a),
            "median_b": statistics.median(b), "quartiles_b": _quartiles(b),
            "median_ratio": statistics.median(y / x for x, y in zip(a, b)),
            "b_lower": sum(y < x for x, y in zip(a, b)),
        }
    return out


def verdict(s: dict, pairs: int, bound: float) -> str:
    """``gain``, ``regression`` or ``none`` for one metric's summary ``s``
    over ``pairs`` pairs, by the rules of the module docstring."""
    q1, q3 = s["quartiles_a"]
    if 10 * s["b_lower"] >= 9 * pairs and s["median_a"] - s["median_b"] > q3 - q1:
        return "gain"
    if s["median_b"] > s["median_a"] * (1 + bound):
        return "regression"
    return "none"


def _git(*args: str, **kw) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw)
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr
        sys.exit(f"error: git {args[0]} failed: {stderr.strip()}")


def export(rev: str, dest: Path) -> str:
    """Extract ``rev``'s committed files into ``dest``; returns its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = _git("archive", "--format=tar", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: benchmark in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def _line(result: dict, metrics: list[str]) -> str:
    values = " ".join(f"{name}={result['metrics'][name]:.4f}" for name in metrics)
    return f"{values} correct={result['correct']} failed={result['failed']}"


def _pairs_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    gated = list(bounds)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", help="revision A, the base of every ratio")
    parser.add_argument("rev_b", help="revision B")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=_pairs_arg, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs first_seed + i")
    args = parser.parse_args(argv)

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {}
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            trees[side] = Path(tmp) / side
            print(f"{side} = {rev} ({export(rev, trees[side])})", flush=True)
        for i, order in enumerate(schedule(args.pairs)):
            seed = args.first_seed + i
            pair = {side: run_bench(trees[side], args.workload, seed, args.seconds)
                    for side in order}
            pairs.append(pair)
            print(f"pair {i + 1} seed {seed} first {order[0]}", flush=True)
            for side in "AB":
                print(f"  {side}: {_line(pair[side], gated)}", flush=True)

    n = len(pairs)
    for side in "AB":
        bad = sum(not p[side]["correct"] for p in pairs)
        print(f"{side}: {n - bad}/{n} runs correct, "
              f"{sum(p[side]['failed'] for p in pairs)} operations failed")
    for name, s in summarize(pairs, gated).items():
        (a1, a3), (b1, b3) = s["quartiles_a"], s["quartiles_b"]
        print(f"{name}: A {s['median_a']:.4f} [{a1:.4f}..{a3:.4f}]  "
              f"B {s['median_b']:.4f} [{b1:.4f}..{b3:.4f}]  "
              f"B/A median {s['median_ratio']:.4f}  B lower in {s['b_lower']}/{n}  "
              f"verdict {verdict(s, n, bounds[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
