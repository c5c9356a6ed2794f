"""Smoke test of the perf-bench harness (not part of the tier-1 suite;
run explicitly or via the CI perf-smoke job).

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import json
import subprocess
import sys

import pytest

from repro.bench import (ALLOW_REGRESSION_ENV, BENCH_SCHEMA, BenchResult,
                         compare_results, load_baseline, run_benchmarks,
                         write_report)
from repro.errors import AnalysisError

ALL_CASES = {"op_chain", "dc_sweep", "transient", "transient_lte",
             "ac_sweep", "montecarlo", "batched_montecarlo",
             "batched_sweep", "sparse_adder_chain",
             "sparse_batched_montecarlo", "scope_capture",
             "batched_transient_montecarlo", "fai_adc_yield_smoke"}


def test_quick_benchmarks_produce_all_cases(tmp_path):
    results = run_benchmarks(quick=True, repeats=1)
    names = {r.name for r in results}
    assert names == ALL_CASES
    for result in results:
        assert result.wall_s > 0.0
        assert result.meta  # every case reports its workload detail

    path = write_report(results, tmp_path / "BENCH_perf.json", quick=True)
    report = json.loads(path.read_text())
    assert report["schema"] == BENCH_SCHEMA
    assert report["quick"] is True
    assert set(report["results"]) == names
    assert report["results"]["dc_sweep"]["meta"]["compile_count"] == 1
    # Every case's traced warmup attaches its counter totals, and the
    # cache-traffic counter reconciles with the compile count.
    for name in names:
        counters = report["results"][name]["trace_counters"]
        assert counters["jacobian_factorizations"] > 0
        assert counters["device_bank_evals"] > 0
    assert (report["results"]["dc_sweep"]["trace_counters"]
            ["compile_cache_misses"] == 1)
    # The batched cases record their lane counts and touched the
    # stacked path (batch_lanes counter from repro.spice.batch).  The
    # Monte-Carlo backend warm-starts from a one-lane pilot solve, so
    # its campaign counts one extra lane.
    for name in ("batched_montecarlo", "batched_sweep"):
        entry = report["results"][name]
        assert entry["meta"]["batch"] > 1
        assert entry["trace_counters"]["batch_lanes"] in (
            entry["meta"]["batch"], entry["meta"]["batch"] + 1)
    # The batched Monte Carlo times the same population as the serial
    # case: identical seeds, identical draws, identical mean.
    by_name = {r.name: r for r in results}
    serial_mc = by_name["montecarlo"]
    batched_mc = by_name["batched_montecarlo"]
    assert serial_mc.meta["n_seeds"] <= batched_mc.meta["n_seeds"]
    # Schema v5: every solver case records the backend that ran it and
    # the MNA system size, and the adder chain is big enough that auto
    # picked sparse even in quick mode.  (scope_capture times the
    # capture layer, not a solve, and carries no solver meta.)
    for name in names - {"scope_capture"}:
        meta = report["results"][name]["meta"]
        assert meta["backend"] in ("dense", "sparse")
        assert meta["n_unknowns"] > 0
    # Schema v7: the sparse batched ensemble shares one symbolic
    # factorization across the whole campaign and decodes the exact
    # sum on every seed.
    smc = report["results"]["sparse_batched_montecarlo"]["meta"]
    assert smc["backend"] == "sparse"
    assert smc["campaign_counters"]["sparse_symbolic_factorizations"] == 1
    assert smc["sum_mean"] == smc["sum_expected"]
    assert smc["n_failed"] == 0
    # Schema v8: the lockstep transient ensemble integrates every seed
    # on one shared grid (batch_transient_steps in its campaign
    # counters), the serial Monte-Carlo case reuses one compiled chip
    # across the population, and the FAI yield case's batched INL/DNL
    # is bit-identical to the serial loop on the shared fixed grid.
    btm = report["results"]["batched_transient_montecarlo"]["meta"]
    assert btm["n_failed"] == 0
    assert btm["campaign_counters"]["batch_transient_steps"] > 0
    assert (report["results"]["montecarlo"]["trace_counters"]
            ["compile_cache_misses"] == 1)
    fai = report["results"]["fai_adc_yield_smoke"]["meta"]
    assert fai["bit_identical_to_serial"] is True
    assert fai["inl_max_mean"] >= 0.0
    adder = report["results"]["sparse_adder_chain"]["meta"]
    assert adder["backend"] == "sparse"
    assert adder["headline_s"] > 0.0
    for rung in adder["dense_vs_sparse"]:
        assert rung["dense_s"] > 0.0 and rung["sparse_s"] > 0.0
        assert rung["n_unknowns"] < adder["n_unknowns"]
    # Provenance: numbers are only comparable when the numerics stack
    # is known, so the report carries numpy/BLAS/thread pinning.
    runtime = report["runtime"]
    assert runtime["numpy"]
    assert "name" in runtime["blas"]
    assert "OMP_NUM_THREADS" in runtime["thread_env"]


def test_cli_bench_quick_writes_report(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--quick",
         "--output", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    report = json.loads(out.read_text())
    assert report["schema"] == BENCH_SCHEMA
    assert "dc_sweep" in report["results"]
    assert "batched_montecarlo" in report["results"]


def _result(name, wall_s):
    return BenchResult(name=name, wall_s=wall_s, repeats=1, meta={})


def test_compare_flags_only_regressed_cases():
    baseline = {"a": 0.010, "b": 0.010, "gone": 0.010}
    results = [_result("a", 0.011),    # fine
               _result("b", 0.030),    # 3x: regressed
               _result("new", 0.005)]  # no baseline: reported, not gated
    report = compare_results(results, baseline, max_ratio=2.0)
    assert not report.passed
    assert [c.name for c in report.regressions] == ["b"]
    by_name = {c.name: c for c in report.cases}
    assert by_name["new"].baseline_s is None and not by_name["new"].regressed
    assert by_name["gone"].fresh_s is None and not by_name["gone"].regressed
    assert "REGRESSED" in report.describe()


def test_compare_require_cases_fails_on_missing_baseline_case():
    baseline = {"a": 0.010, "gone": 0.010}
    results = [_result("a", 0.011), _result("new", 0.005)]
    # Default: a baseline-only case is benignly "retired".
    lenient = compare_results(results, baseline, max_ratio=2.0)
    assert lenient.passed and not lenient.missing_cases
    # --require-cases: the same drop fails the gate; new cases still
    # pass (they have no baseline to be missing from).
    strict = compare_results(results, baseline, max_ratio=2.0,
                             require_cases=True)
    assert not strict.passed
    assert [c.name for c in strict.missing_cases] == ["gone"]
    assert "MISSING" in strict.describe()
    assert "gate FAILED" in strict.describe()
    by_name = {c.name: c for c in strict.cases}
    assert not by_name["new"].missing


def test_sparse_batched_mc_full_case_meets_acceptance():
    """Acceptance pin for the sparse batched ensemble: on the
    1164-unknown 32-bit adder the campaign runs >= 3x faster per seed
    than one cold serial sparse solve, shares exactly one symbolic
    factorization, and every seed decodes the exact arithmetic sum."""
    from repro import telemetry
    from repro.bench.perf import _bench_sparse_batched_montecarlo

    with telemetry.tracing("sparse-batched-mc-acceptance"):
        meta = _bench_sparse_batched_montecarlo(quick=False)()
    assert meta["n_unknowns"] >= 1000
    assert meta["backend"] == "sparse"
    assert meta["n_failed"] == 0
    assert meta["sum_mean"] == meta["sum_expected"]
    counters = meta["campaign_counters"]
    assert counters["sparse_symbolic_factorizations"] == 1
    assert counters["lu_reuses"] > 0
    assert meta["per_seed_speedup"] >= 3.0, (
        f"batched {meta['batched_per_seed_s'] * 1e3:.1f} ms/seed vs "
        f"serial {meta['serial_seed_s'] * 1e3:.1f} ms/seed = "
        f"{meta['per_seed_speedup']:.2f}x, expected >= 3x")


def test_batched_transient_mc_full_case_meets_acceptance():
    """Acceptance pin for the lockstep transient ensemble: the D-latch
    Monte-Carlo population integrates >= 3x faster per seed than one
    serial transient of the same spec, with no lane falling off the
    shared grid."""
    from repro import telemetry
    from repro.bench.perf import _bench_batched_transient_montecarlo

    with telemetry.tracing("batched-tran-mc-acceptance"):
        meta = _bench_batched_transient_montecarlo(quick=False)()
    assert meta["n_seeds"] >= 8
    assert meta["n_failed"] == 0
    counters = meta["campaign_counters"]
    assert counters["batch_transient_steps"] > 0
    assert counters["batch_lane_fallbacks"] == 0
    assert meta["per_seed_speedup"] >= 3.0, (
        f"batched {meta['batched_per_seed_s'] * 1e3:.1f} ms/seed vs "
        f"serial {meta['serial_seed_s'] * 1e3:.1f} ms/seed = "
        f"{meta['per_seed_speedup']:.2f}x, expected >= 3x")


def test_fai_adc_yield_full_case_is_bit_identical():
    """Acceptance pin for the yield-surface workload: on the shared
    fixed grid every lane's sampled codes -- and therefore the INL/DNL
    surface -- must match the serial loop bit for bit."""
    from repro.bench.perf import _bench_fai_adc_yield_smoke

    meta = _bench_fai_adc_yield_smoke(quick=False)()
    assert meta["n_seeds"] >= 6
    assert meta["bit_identical_to_serial"] is True
    assert meta["n_grid_steps"] >= 512


def test_compare_wall_floor_exempts_sub_floor_cases():
    """Cases where both sides run under the absolute floor report their
    ratio but never regress; crossing the floor still gates."""
    baseline = {"tiny": 0.0004, "crossed": 0.015, "big": 0.050}
    results = [_result("tiny", 0.0011),    # 2.75x but sub-floor: exempt
               _result("crossed", 0.045),  # 3x and fresh over floor
               _result("big", 0.055)]      # 1.1x: fine
    report = compare_results(results, baseline, max_ratio=2.0,
                             min_wall_s=0.02)
    assert [c.name for c in report.regressions] == ["crossed"]
    by_name = {c.name: c for c in report.cases}
    assert by_name["tiny"].under_floor and not by_name["tiny"].regressed
    assert "under floor" in by_name["tiny"].describe()
    # Floor disabled: the sub-floor blip regresses again.
    strict = compare_results(results, baseline, max_ratio=2.0,
                             min_wall_s=0.0)
    assert {c.name for c in strict.regressions} == {"tiny", "crossed"}
    with pytest.raises(AnalysisError):
        compare_results(results, baseline, min_wall_s=-1.0)


def test_compare_rejects_bad_inputs(tmp_path):
    with pytest.raises(AnalysisError):
        compare_results([_result("a", 0.01)], {"a": 0.01}, max_ratio=1.0)
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "something-else/v1", "results": {}}')
    with pytest.raises(AnalysisError):
        load_baseline(bad)
    with pytest.raises(AnalysisError):
        load_baseline(tmp_path / "missing.json")


def test_compare_loads_committed_schema(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    results = [_result("a", 0.010)]
    write_report(results, path, quick=True)
    baseline = load_baseline(path)
    assert baseline == {"a": 0.010}
    assert compare_results([_result("a", 0.012)], baseline).passed


def test_cli_compare_gates_and_escape_hatch(tmp_path, monkeypatch):
    # A baseline claiming every case once ran in 1 ns fails the gate...
    out = tmp_path / "fresh.json"
    baseline = tmp_path / "baseline.json"
    write_report([_result(name, 1e-9) for name in ALL_CASES],
                 baseline, quick=True)
    argv = [sys.executable, "-m", "repro", "bench", "--quick",
            "--output", str(out), "--compare", str(baseline)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout
    assert "gate FAILED" in proc.stdout
    # ...unless the escape hatch is set.
    import os
    env = dict(os.environ)
    env[ALLOW_REGRESSION_ENV] = "1"
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout
    assert "regression tolerated" in proc.stdout


def test_stacked_ac_is_at_least_5x_faster_than_loop():
    """Acceptance pin for the stacked-frequency AC fast path: on a
    >= 200-point grid the stacked backend beats the per-frequency loop
    by >= 5x.  The operating point is precomputed and shared so only
    the frequency solve is timed (best-of-5 per backend)."""
    import time

    import numpy as np

    from repro.bench.perf import _VDD, _design
    from repro.spice import operating_point
    from repro.spice.ac import ac_analysis
    from repro.stscl.netlist_gen import stscl_inverter_circuit

    circuit, _ = stscl_inverter_circuit(_design(), _VDD)
    circuit.element("vinp").ac_mag = 1.0
    op = operating_point(circuit)
    freqs = np.logspace(2.0, 9.0, 601)

    def best_of(backend, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            ac_analysis(circuit, freqs, backend=backend, op=op)
            best = min(best, time.perf_counter() - t0)
        return best

    best_of("stacked", repeats=1)  # warm both paths before timing
    best_of("loop", repeats=1)
    stacked = best_of("stacked")
    loop = best_of("loop")
    assert loop / stacked >= 5.0, (
        f"stacked {stacked * 1e3:.2f} ms vs loop {loop * 1e3:.2f} ms "
        f"= {loop / stacked:.1f}x, expected >= 5x")


def test_lte_bench_config_is_no_less_accurate_than_legacy():
    """Acceptance pin for the transient fast path: at the benchmark's
    LTE settings the D-latch waveforms are at least as close to a
    dense-step reference as the pre-LTE heuristic (``dt_max = t_d/15``)
    was, while committing far fewer steps."""
    import numpy as np

    from repro.bench.perf import _design, _latch_circuit
    from repro.spice import TransientOptions, transient

    design = _design()
    t_d = design.delay()

    def run(**overrides):
        return transient(_latch_circuit(design), 10.0 * t_d,
                         TransientOptions(**overrides))

    reference = run(step_control="legacy", dt_max=t_d / 100.0)

    def error_vs_reference(result):
        worst = 0.0
        for node in reference.voltages:
            resampled = np.interp(reference.time, result.time,
                                  result.voltage(node))
            worst = max(worst, float(np.max(
                np.abs(resampled - reference.voltage(node)))))
        return worst

    legacy = run(step_control="legacy", dt_max=t_d / 15.0)
    lte = run(reltol=4e-3, abstol=1e-4, dt_max=t_d / 2.5)
    assert error_vs_reference(lte) <= error_vs_reference(legacy)
    assert lte.telemetry.steps_accepted < \
        0.7 * legacy.telemetry.steps_accepted
