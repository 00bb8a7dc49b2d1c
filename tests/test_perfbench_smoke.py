"""The benchmark harness runs one op of each workload and checks its metrics."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_smoke(tmp_path):
    run = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, (run.stdout + run.stderr)[-2000:]
    assert run.stdout.strip().splitlines()[-1] == "smoke ok"
