"""Smoke test for the benchmark itself.

    python -m pytest bench -q

One short run of each workload, untraced and traced, must print every metric
``BENCHMARK.json`` declares, with its unit; a wrong pinned hash must show up
as a failed op; and a directory without ``src/fano4`` must make the benchmark
exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_declared_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_pinned_hash_counts_as_failed_op():
    mods = workloads.load()
    expected = workloads.load_expected()
    expected["export"]["csv"] = "0" * 64
    inputs = workloads.make_inputs("library_verify", 1, mods, expected)
    tally = run.Tally()
    metrics = run.timed_run("library_verify", 1, 0.1, mods, inputs, expected,
                            tally)
    assert tally.failed == tally.attempted > 0
    assert metrics["success_rate"] == 0


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench(tmp_path, "library_verify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_calibration_scales_op_times_to_the_nominal_probe_time(monkeypatch):
    import calibrate

    monkeypatch.setattr(calibrate, "probe_ns",
                        lambda: 2 * calibrate.NOMINAL_PROBE_NS)
    cal = calibrate.Calibrator(window_s=0)
    cal.add(1000)
    cal.add(3000)
    cal.flush()
    assert cal.scaled == [500.0, 1500.0]
    assert cal.factors == [0.5, 0.5]
