"""The scripts under scripts/ run against the package as it is."""

import importlib.util
import math
from pathlib import Path

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
    accuracy, loss = survey.survey_seed(4, tmp_path / "survey", per_family=6, **workloads.TINY)
    assert 0.0 <= accuracy <= 1.0 and math.isfinite(loss)

    scan = workloads.Scan(4, "tiny", tmp_path / "scan")
    (tmp_path / "scan").mkdir()
    scan.setup()
    scan.run_pass()
    metrics = scan.finish()
    assert not scan.problems, scan.problems
    assert (accuracy, loss) == (metrics["accuracy"][0], metrics["train_loss"][0])
