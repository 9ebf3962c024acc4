"""Check that two revisions write the same files, byte for byte.

Both revisions are exported with ``git archive`` (``bench_pairs.py``'s
``export``) into a temporary directory outside the repository.  In each
export the package's own command line, imported from that export's
``src/``, writes one fixed set of files (``JOBS``), one process at a
time and with OpenBLAS at one thread:

* corpora: the default 3 x 100 on seeds 1..3 and a fusion-mode 2 x 30
  on seed 7, each with its ``extract`` token streams
* B2's report and summary at the ``cv_fused`` benchmark's settings
  (3 x 100, 2 folds) on seeds 1..3
* ``report_{A,B1,B2,C}.csv`` and ``summary_{A,B1,B2,C}.txt`` at 3 x 20,
  2 folds, on seeds 1 and 2
* the tiny 2 x 6 command-line run that CI makes: ``gen``, ``train`` and
  ``eval``, whose ``model.ckpt``, ``history.csv`` and
  ``eval_report.csv`` are compared with the tables beside them

It prints one line per file (``same``, ``differs``, ``only in A`` or
``only in B``) and a count, and exits 1 on any difference.  Byte
identity holds for one numpy and BLAS build, so this compares two
revisions on one machine, never against stored hashes.  Both sides
together take about 50 s on two CPUs.

Usage, from anywhere inside the repository::

    python scripts/same_bits.py HEAD~1 HEAD
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the export is bench_pairs.py's; this also finds it when the file is loaded by path
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export  # noqa: E402

_TINY = """\
[embedding]
k = 6
window = 4
epochs = 4
[model]
seq_len = 16
hidden = 6
conv_channels = 6
[train]
epochs = 2
batch_size = 4
"""


def _job(name: str, seed: int, synthetic: str, verbs: list[list[str]],
         extra: str = "") -> tuple[str, str, list[list[str]]]:
    ini = (f"[run]\nseed = {seed}\nfolds = 2\nout = files/out/{name}\n"
           f"[data]\ncorpus = files/corpus/{name}\n[synthetic]\n{synthetic}{extra}")
    return name, ini, verbs


#: (name, INI text, command-line verbs) of every run; each writes its
#: corpus under files/corpus/<name> and its outputs under files/out/<name>
JOBS = [
    *(_job(f"cv_fused_seed{s}", s, "families = 3\nsamples_per_family = 100\n",
           [["gen"], ["extract"], ["experiment", "B2"]]) for s in (1, 2, 3)),
    _job("fusion_seed7", 7, "families = 2\nsamples_per_family = 30\nfusion_mode = true\n",
         [["gen"], ["extract"]]),
    *(_job(f"suites_seed{s}", s, "families = 3\nsamples_per_family = 20\n",
           [["gen"]] + [["experiment", name] for name in ("A", "B1", "B2", "C")])
      for s in (1, 2)),
    _job("cli_tiny", 5, "families = 2\nsamples_per_family = 6\nmin_len = 40\nmax_len = 60\n",
         [["gen"], ["train"], ["eval"]], extra=_TINY),
]


def produce(tree: Path, work: Path) -> None:
    """Run every job of JOBS with ``tree``'s package; the files land
    under ``work / "files"``."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    for name, ini, verbs in JOBS:
        config = work / f"{name}.ini"
        config.write_text(ini, encoding="utf-8")
        for verb in verbs:
            proc = subprocess.run(
                [sys.executable, "-m", "mccrcnn.harness.cli", *verb, str(config)],
                cwd=work, env=env, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"error: {' '.join(verb)} {name} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")


def compare(a: Path, b: Path) -> list[tuple[str, str]]:
    """(path relative to ``a`` and ``b``, state) for every file under
    either directory, sorted; the state is ``same``, ``differs``,
    ``only in A`` or ``only in B``."""

    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    rows = []
    for rel in sorted(in_a | in_b):
        if rel not in in_b:
            rows.append((rel, "only in A"))
        elif rel not in in_a:
            rows.append((rel, "only in B"))
        else:
            same = filecmp.cmp(a / rel, b / rel, shallow=False)
            rows.append((rel, "same" if same else "differs"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", help="revision A")
    parser.add_argument("rev_b", help="revision B")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            tree = Path(tmp) / side / "tree"
            print(f"{side} = {rev} ({export(rev, tree)})", flush=True)
            produce(tree, Path(tmp) / side / "work")
        rows = compare(*(Path(tmp) / side / "work" / "files" for side in "AB"))
    for rel, state in rows:
        print(f"{state}: {rel}")
    differ = sum(state != "same" for _rel, state in rows)
    print(f"{len(rows) - differ} of {len(rows)} files same, {differ} differ")
    return 1 if differ or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
