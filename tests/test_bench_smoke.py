"""The benchmark's smoke mode runs and emits every metric.

The benchmark hooks public functions of the package (the LSTM forward
probe, the checkpoint save/load round trip, training and prediction), so
a refactor that breaks one of those hooks fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "smoke: ok" in proc.stderr.splitlines()
