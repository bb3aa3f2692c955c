"""The benchmark runs end to end on these sources: each workload of
BENCHMARK.json exits 0 and ends with one JSON result line that passes its own
checks, so a drift between ``src/`` and ``perfbench/`` fails here first. The
traced run must also account for the decoder calls with its layer spans, so
work moved out of a hooked kernel fails here too."""

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
MIN_ACCOUNTED = 0.98  # share of decoder-call time the layer spans of a traced run cover


def run_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0, \
        proc.stdout
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_runs(workload):
    metrics = run_workload(workload, trace=0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]} == set(CEILINGS)
    for name, value in metrics.items():
        assert math.isfinite(value) and 0 < value < CEILINGS[name], (name, value)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_workload_accounts_for_decoder_calls(workload):
    metrics = run_workload(workload, trace=1)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace_accounted_frac"] >= MIN_ACCOUNTED
