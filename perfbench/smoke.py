"""Smoke test of the benchmark itself: every workload at minimal size.

    python3 perfbench/smoke.py

For each workload, an untraced and a traced one-second run must report
every metric named in BENCHMARK.json with no failed operation, and the
traced runs must show the two bypasses: no time-ordered product outside
``time_ordered`` and no scaled series on ``closed_form_sweep``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def check_workload(name: str):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(name, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
        assert "failed_frac" in proc.stdout
        metrics = result["metrics"]
        missing = [m["name"] for m in SPEC[section] if m["name"] not in metrics]
        assert not missing, f"{name} trace={trace} lacks {missing}"
        if trace:
            calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
            assert calls["cli.main.calls"] >= 1, calls
            if name != "time_ordered":
                assert calls["numerics.trotter_propagator.calls"] == 0, name
            if name == "closed_form_sweep":
                assert calls["numerics.generator_series_scaled.calls"] == 0, name
        print(f"ok {name} trace={trace}: {result['attempted']} ops")


if __name__ == "__main__":
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])
