"""The bench's traced mode, run end to end as the benchmark runs it.

perfbench/run.py --trace 1 patches the program's stages and reads its
calibration rows, timing spans and gradient workspace, then checks them
against its reference code. One operation of each workload in a fresh
interpreter takes a few seconds; its trace file goes to the ignored
.perfbench_out/. lines-3d is the only run here of the exact sums on a 3-D
map inside the bench, whose check of the final micro loss against the
exact KL reads the final gradient's workspace.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["roll-1k", "lines-3d"])
def test_traced_workload_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1",
        ],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout.splitlines()[-1])
    assert verdict["correct"] is True, done.stderr
    assert verdict["attempted"] >= 1 and verdict["failed"] == 0, done.stderr
    metrics = verdict["metrics"]
    assert metrics["affinity.rows_off_target"]["value"] == 0
    assert metrics["affinity.nnz"]["value"] > 0
