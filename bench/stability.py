"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 bench/stability.py --seeds 1-10 [--workloads scan cv_fused] [--trace 1]
                               [--out bench/BENCH_baseline.json]
                               [--against bench/BENCH_baseline.json]

Runs are made one at a time.  For every workload and metric it prints
the median and the quartile spread, (Q3 - Q1) / median with quartiles
from ``statistics.quantiles(values, n=4)``.  End-to-end metrics are
marked "ok" when the spread is below a third of their bound in
BENCHMARK.json.  ``--out`` writes the medians and quartiles as JSON,
under the key ``trace0`` or ``trace1`` of that file.  ``--against``
compares each gated median with the one stored in such a file and marks
it "WORSE" when it is worse by more than the metric's bound.  The exit
code is 0 only when every run was correct, every gated spread is below
a third of its bound and no gated median is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update({k: v["value"] for k, v in info["workload_metrics"].items()})
    return {"result": result, "env": info["env"], "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write medians and quartiles here as JSON")
    parser.add_argument("--against", help="compare medians with this --out file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}
    before = {}
    if args.against:
        stored = json.loads(Path(args.against).read_text(encoding="utf-8"))
        before = stored[f"trace{args.trace}"]["workloads"]
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    passed = True
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
            passed &= r["correct"] and r["failed"] == 0
        table = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric] for run in runs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            table[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
            flag = ""
            if metric in bounds:
                ok = spread < bounds[metric] / 3
                passed &= ok
                flag = f"bound {bounds[metric]:<5} {'ok' if ok else 'TOO WIDE'}"
                old = before.get(workload, {}).get("metrics", {}).get(metric)
                if old:
                    shift = sign[metric] * (med - old["median"]) / old["median"]
                    passed &= shift <= bounds[metric]
                    flag += f"  vs stored {shift:+7.2%} {'ok' if shift <= bounds[metric] else 'WORSE'}"
            print(f"  {metric:32s} median {med:<12.6g} spread {spread:7.2%}  {flag}")
        summary["workloads"][workload] = {"env": runs[0]["env"], "metrics": table}
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        merged[f"trace{args.trace}"] = summary
        out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print("all checks passed" if passed else "NOT all checks passed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
