"""Self-tests of the benchmark: seed determinism, metric names, smoke runs.

Run from the repository root with ``python3 -m pytest -q stsclbench``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import telemetry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _set_up(name: str, seed: int):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = _set_up(name, 7).inputs_fingerprint()
    assert _set_up(name, 7).inputs_fingerprint() == first
    assert _set_up(name, 8).inputs_fingerprint() != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_layer_counts(name):
    seen = []
    for _ in range(2):
        workload = _set_up(name, 3)
        with telemetry.tracing("determinism") as trace:
            record = workload.job(1)
        seen.append((record["counts"], layers.counter_totals(trace.root)))
    assert seen[0] == seen[1]
    assert seen[0][1]["device_bank_evals"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["end_to_end"] + spec["per_layer"]}
    ours = {**run.END_TO_END, **layers.PER_LAYER}
    assert declared == ours
    for name, (unit, better) in ours.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("lower", "higher")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "5", "--trace", str(trace), "--jobs", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = dict(layers.PER_LAYER if trace else run.END_TO_END)
    if not trace:
        # Two jobs leave no percentile above the median for the tail.
        del expected["job_tail_s"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: unit for k, (unit, _) in expected.items()}
