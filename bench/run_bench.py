"""Pipeline benchmark: one command, two workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run_bench.py --workload cv_fused --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --smoke

``--trace 0`` measures the end-to-end metrics with no span recorded: its
only hooks run the host-speed reference of hostspeed.py between the
program's public calls, and times are scaled by it.
``--trace 1`` makes a fixed number of traced passes, reports the
per-layer metrics from the traced spans, the tracing overhead and the
uncovered share, and writes the spans to .bench_out/spans-<workload>.jsonl.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment and the workload's own metrics.  ``--smoke`` runs every
workload at a tiny size in both modes and checks that every metric
name is emitted.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()
CPU_START = time.thread_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: metric names and units, with --trace 0 and --trace 1
UNITS = {
    trace: {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]}
    for trace, section in ((False, "end_to_end"), (True, "per_layer"))
}

#: one BLAS thread: steadier on a shared machine.  On 2 CPUs, 2 threads
#: saved ~6% of wall time for ~65% more CPU time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

#: an untraced run sets up at least 3 times and for at least this many
#: seconds, so that a 1 s set-up is sampled over seconds, not at one
#: moment; setup_s is import time plus the median set-up, both scaled
SETUP_SECONDS = 12.0
#: traced passes in a traced run; a fixed count keeps layer totals comparable
TRACE_PASSES = {"cv_fused": 1, "scan": 3}


def _import_package():
    src = ROOT / "src"
    if not (src / "mccrcnn" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mccrcnn
    if Path(mccrcnn.__file__).resolve().parent != (src / "mccrcnn").resolve():
        sys.exit(f"error: imported mccrcnn from {mccrcnn.__file__}, not {src}")
    import hostspeed
    import tracer
    import workloads
    return hostspeed, tracer, workloads


def _blas_info() -> dict:
    """OpenBLAS version and live thread count, read from numpy's own library."""
    import ctypes

    import numpy as np

    info = {"blas_threads_requested": BLAS_THREADS}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = None  # library not found: only the request is known
    return info


def environment() -> dict:
    import platform
    import subprocess

    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, **_blas_info()}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["git_commit"] = None  # unknown outside a git checkout of this repository
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            env["git_commit"] = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return env


def _timed(fn) -> tuple[float, float]:
    """(wall seconds, CPU seconds of this thread) of one call of ``fn``."""
    t, c = time.perf_counter(), time.thread_time()
    fn()
    return time.perf_counter() - t, time.thread_time() - c


def _repeat(timed, fn, seconds: float, times: int = 3) -> list[tuple]:
    """timed(fn) repeated at least ``times`` times and ``seconds`` long."""
    out = []
    t_end = time.perf_counter() + seconds
    while len(out) < times or time.perf_counter() < t_end:
        out.append(timed(fn))
    return out


def _warm_up(wl) -> None:
    t_end = time.perf_counter() + (0.0 if wl.tiny else wl.warmup_s)
    while time.perf_counter() < t_end:
        wl.run_pass(record=False)


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    hostspeed, tracer_mod, workloads = _import_package()
    import_s = time.perf_counter() - T_START, time.thread_time() - CPU_START
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[name](seed, size, workdir)
        values: dict[str, float] = {}
        passes: list[tuple] = []
        if not trace:
            pacer = hostspeed.Pacer()
            # the import ran before any reference did: scale it by the
            # reference runs right after it, which also warm them up
            import_scaled = hostspeed.scaled(import_s[1], pacer.burst(30))
            wl.paused_wall = lambda: pacer.spent_wall
            with pacer.hooked():
                setups = _repeat(pacer.timed_setup, wl.setup, 0.0 if wl.tiny else SETUP_SECONDS)
                _warm_up(wl)
                first = len(pacer.samples)
                passes = _repeat(pacer.timed, wl.run_pass, seconds)
                # passes too short to reach a due sample (smoke size): sample now
                pass_samples = pacer.samples[first:] or pacer.burst(hostspeed.BRACKET)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # mean CPU seconds of a pass, scaled to a fixed host speed by
            # every reference sample taken during the passes; the median
            # set-up, each scaled by its own samples
            cpu = statistics.mean(c for _w, c in passes)
            values["pass_s"] = hostspeed.scaled(cpu, pass_samples)
            values["setup_s"] = import_scaled + statistics.median(s for _w, _c, s in setups)
            own_wall = {
                "wall_s": statistics.mean(w for w, _c in passes),
                "cpu_s": cpu,
                "setup_wall_s": import_s[0] + statistics.median(w for w, _c, _s in setups),
                "setup_cpu_s": import_s[1] + statistics.median(c for _w, c, _s in setups),
                "ref_s": statistics.mean(pass_samples),
            }
        else:
            tr = tracer_mod.Tracer()
            with tr.hooked(), tr.span("setup"):
                wl.setup()
            _warm_up(wl)
            first = len(tr.spans)
            n_passes = 1 if wl.tiny else TRACE_PASSES[name]
            for _ in range(n_passes):
                with tr.hooked(), tr.span("pass"):
                    passes.append(_timed(wl.run_pass))
            values = tracer_mod.layer_metrics(tr.spans)
            values.update(tracer_mod.probe_neural())
            # estimated from what the trace recorded, not from two noisy walls
            layer_spans = (len(tr.spans) - first - n_passes) / n_passes
            values["trace.overhead_s"] = layer_spans * tracer_mod.span_cost()
            tr.write(OUT / f"spans-{name}.jsonl")
            own_wall = {}
        own = wl.finish()
        own.update({k: (v, "s") for k, v in own_wall.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "trace": int(trace), "size": size,
        "env": environment(), "workload_metrics": own, "problems": wl.problems,
        "pass_wall_s": [w for w, _c in passes], "pass_cpu_s": [c for _w, c in passes],
        "correct": not wl.problems and wl.failed == 0,
        "attempted": wl.attempted, "failed": min(wl.failed, wl.attempted),
        # a layer that did no work has no spans: its metrics read 0
        "metrics": {m: (float(values.get(m, 0.0)), u) for m, u in UNITS[trace].items()},
    }


def _as_json(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def emit(result: dict) -> None:
    info = {k: result[k] for k in ("workload", "seed", "trace", "size", "env", "problems",
                                   "pass_wall_s", "pass_cpu_s")}
    info["workload_metrics"] = _as_json(result["workload_metrics"])
    print(json.dumps(info, sort_keys=True))
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**info, "metrics": _as_json(result["metrics"])}) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": _as_json(result["metrics"]),
    }))


#: workload metrics each workload must report (README.md, end-to-end table)
WORKLOAD_METRICS = {
    "cv_fused": {"accuracy"},
    "scan": {"scan_ms.p50", "scan_ms.p95", "scan_listings", "accuracy", "train_loss"},
}
#: unscaled figures every untraced run reports beside them
UNSCALED_METRICS = {"wall_s", "cpu_s", "setup_wall_s", "setup_cpu_s", "ref_s"}


def smoke() -> int:
    """Tiny run of every workload in both modes; 0 when all names are emitted.

    Every per-layer metric must also be non-zero on some workload, except
    ``extraction.dropped``: no workload drops a sample.
    """
    bad = []
    nonzero = set()
    for name in WORKLOAD_METRICS:
        for trace in (False, True):
            result = run(name, seed=1, seconds=0.0, trace=trace, size="tiny")
            emit(result)
            missing = set(UNITS[trace]) - set(result["metrics"])
            missing |= (WORKLOAD_METRICS[name] | (set() if trace else UNSCALED_METRICS)) - set(
                result["workload_metrics"])
            if missing:
                bad.append(f"{name} trace={trace:d}: missing {sorted(missing)}")
            if not result["correct"]:
                bad.append(f"{name} trace={trace:d}: {result['problems']}")
            nonzero |= {m for m, (v, _u) in result["metrics"].items() if v}
    never = set(UNITS[True]) - nonzero - {"extraction.dropped"}
    if never:
        bad.append(f"per-layer metrics 0 on every workload: {sorted(never)}")
    for line in bad:
        print("smoke: " + line, file=sys.stderr)
    print("smoke: " + ("FAIL" if bad else "ok"), file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_METRICS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    emit(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
