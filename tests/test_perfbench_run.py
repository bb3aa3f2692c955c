"""The benchmark runs end to end on these sources: each workload of
BENCHMARK.json exits 0 and ends with one JSON result line that passes its own
checks, so a drift between ``src/`` and ``perfbench/`` fails here first."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# generous sanity ceilings; the bounds that matter are relative, in BENCHMARK.json
CEILINGS = {"frames_per_s": 1e6, "frame_ms_p90": 1e4, "setup_s": 60.0, "peak_alloc_mb": 1024.0}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_runs(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]} == set(CEILINGS)
    for name, value in metrics.items():
        assert math.isfinite(value) and 0 < value < CEILINGS[name], (name, value)
