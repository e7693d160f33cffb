"""The benchmark's smoke run: each workload's warm-up operation once, judged.

The workload judges read the CLI's output files (the ``cli_desk`` judge
parses ``report.json`` and ``smiles.csv``), so an output change that breaks
the benchmark fails here. The run writes only under the checkout's
``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == 3, proc.stdout
    for result in results:
        assert result["correct"] is True, proc.stderr
        assert result["failed"] == 0, proc.stderr
