"""STSCL design-flow benchmark: one workload, one closed-loop run.

Usage (from the repository root)::

    python3 stsclbench/run.py --workload adder_dc --seed 1 --seconds 15 --trace 0

One client, one process, one job at a time: the next job starts when
the previous one returns.  BLAS threads are pinned to 1.  The seed
generates every input; correctness checks and serial reference runs
happen outside the timed window.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same jobs untraced and then traced, checks that
both passes did identical work, writes the spans as JSONL under
``.stsclbench/`` and reports the per-layer metrics.  The last line of
standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits 1 when any job failed or a check broke, and 2 when
the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: name -> (unit, better) of the end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Fresh-interpreter set-ups timed per run, spread evenly over the
#: window; setup_s is their median.  One probe's time spreads by 10-25 %
#: (IQR/median) on a shared host; the median of seven by far less.
SETUP_PROBES = 7
#: The untraced window runs at least this many jobs (extending past
#: ``--seconds`` if it must) so job_tail_s always has ten jobs beyond it
#: above the median.
MIN_JOBS = 22
#: ...but never past this multiple of ``--seconds``.
MAX_WINDOW_FACTOR = 4.0
TAIL_BEYOND = 10


def _import_checkout():
    """Import ``repro`` and the workloads from this checkout only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; the benchmark "
              f"needs the repository checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return workloads


class HostClock:
    """Host-speed guard.

    The benchmark host's speed swings by up to 2x over a few seconds
    (other tenants share its cores), and job time follows it.  A fixed
    numpy kernel -- 17x17 dense solves, the latch's MNA size, so its
    cost is the same per-call dispatch overhead the solver pays -- is
    timed in a short slice before every job and after the last one.
    Each job's latency is rescaled to a host running the kernel at
    :data:`REFERENCE_RATE`, using the mean rate of the slices on either
    side of it.  The raw figures are printed in the report's notes.
    Set-up probes are not rescaled: a fresh interpreter's imports do
    not follow the kernel the way the solver's calls do.
    """

    #: Kernel solves per second of the reference host.
    REFERENCE_RATE = 100_000.0

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(12345)
        self._a = rng.normal(size=(17, 17)) + 17.0 * np.eye(17)
        self._b = rng.normal(size=17)
        self._solve = np.linalg.solve

    def rate(self, n: int = 1000) -> float:
        """Kernel solves per second over ``n`` solves."""
        a, b, solve = self._a, self._b, self._solve
        t0 = time.perf_counter()
        for _ in range(n):
            solve(a, b)
        return n / (time.perf_counter() - t0)

    def factors(self, rates: list[float]) -> list[float]:
        """Per-job rescaling factors from the ``len(jobs) + 1`` slice
        rates bracketing the jobs."""
        return [0.5 * (lo + hi) / self.REFERENCE_RATE
                for lo, hi in zip(rates, rates[1:])]


def set_up(workloads, name: str, seed: int):
    """Inputs, circuits and their first compile: what ``setup_s`` times."""
    workload = workloads.WORKLOADS[name](seed)
    with workloads.layer("setup"):
        workload.setup()
    return workload


def setup_workload(workloads, name: str, seed: int):
    """:func:`set_up`, then one untimed warm-up job so lazy imports and
    first-call costs land before the window, not in its first job."""
    workload = set_up(workloads, name, seed)
    try:
        with workloads.layer("warmup"):
            workload.job(0)
    except Exception:  # job 0 runs again in the window, which records it
        pass
    return workload


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its workload being
    set up (it prints ``ready``); waits for the child to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           name, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{err.strip()[-2000:]}")
    return elapsed


class Window:
    """Outcome of one closed loop over jobs."""

    def __init__(self) -> None:
        self.records: dict[int, dict] = {}
        self.errors: dict[int, str] = {}
        self.latencies: list[float] = []
        self.rates: list[float] = []
        self.probes: list[float] = []  # set-up probe times [s]
        self.wall = 0.0

    def slice(self, clock: HostClock) -> None:
        self.rates.append(clock.rate())

    def scaled(self, clock: HostClock) -> list[float]:
        """Job latencies rescaled to the reference host."""
        return [lat * f for lat, f in
                zip(self.latencies, clock.factors(self.rates))]


def run_jobs(workload, clock: HostClock, indices=None, seconds=None,
             min_jobs=1, probe=None, n_probes=0) -> Window:
    """Closed loop: the given job ``indices``, or jobs 0, 1, ... until
    ``seconds`` have passed and ``min_jobs`` ran.  A kernel slice runs
    between jobs, outside their timing.  ``probe`` (a set-up probe) runs
    ``n_probes`` times between jobs, evenly over the window; its time
    does not count towards the window."""
    from repro import telemetry
    window = Window()
    start = time.perf_counter()
    index = 0
    while True:
        window.slice(clock)
        if probe is not None and len(window.probes) < n_probes and \
                time.perf_counter() - start >= \
                len(window.probes) * seconds / n_probes:
            t0 = time.perf_counter()
            window.probes.append(probe())
            start += time.perf_counter() - t0
            window.slice(clock)
        if indices is not None:
            if index >= len(indices):
                break
            job = indices[index]
        else:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and index >= min_jobs:
                break
            if elapsed >= seconds * MAX_WINDOW_FACTOR and index >= 1:
                break
            job = index
        t0 = time.perf_counter()
        try:
            with telemetry.span("bench.job", index=job):
                window.records[job] = workload.job(job)
        except Exception as error:  # a failed job is data, not a crash
            window.errors[job] = f"{type(error).__name__}: {error}"
        window.latencies.append(time.perf_counter() - t0)
        index += 1
    window.wall = time.perf_counter() - start
    return window


def oracle_failures(workload, records, errors) -> dict[int, str]:
    failures = dict(errors)
    for job, record in records.items():
        reason = workload.check(job, record)
        if reason is not None:
            failures.setdefault(job, reason)
    return failures


def tail(latencies):
    """Highest empirical percentile with at least ten jobs beyond it,
    as ``(value, percentile)``; None unless it lies above the median."""
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _window(workload, clock, args, seconds, min_jobs, **probes) -> Window:
    if args.jobs:
        return run_jobs(workload, clock, indices=list(range(args.jobs)),
                        seconds=seconds, **probes)
    return run_jobs(workload, clock, seconds=seconds, min_jobs=min_jobs,
                    **probes)


def untraced_run(workloads, args) -> tuple:
    clock = HostClock()
    workload = setup_workload(workloads, args.workload, args.seed)
    rate_before = clock.rate(20000)
    window = _window(workload, clock, args, args.seconds, MIN_JOBS,
                     probe=lambda: probe_setup(args.workload, args.seed),
                     n_probes=1 if args.jobs else SETUP_PROBES)
    rate_after = clock.rate(20000)
    failures = oracle_failures(workload, window.records, window.errors)
    for job, reason in workload.references(window.records).items():
        failures.setdefault(job, f"serial reference: {reason}")

    n = len(window.latencies)
    scaled = window.scaled(clock)
    metrics = {
        "setup_s": statistics.median(window.probes),
        "jobs_per_s": n / sum(scaled),
        "job_p50_s": statistics.median(scaled),
        "ok_frac": (n - len(failures)) / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"{n} jobs in a {window.wall:.2f} s window; raw "
        f"{n / sum(window.latencies):.4g} jobs/s, raw p50 "
        f"{statistics.median(window.latencies):.4g} s",
        "set-up probes (not rescaled) "
        + ", ".join(f"{p:.3f}" for p in window.probes) + " s",
        f"host kernel {min(window.rates):.0f}..{max(window.rates):.0f} "
        f"solves/s in the window (reference "
        f"{HostClock.REFERENCE_RATE:.0f}); host.speed_ratio = "
        f"{rate_after / rate_before:.4f}"]
    tail_stat = tail(scaled)
    if tail_stat is not None:
        metrics["job_tail_s"] = tail_stat[0]
        notes.append(f"job_tail_s is p{tail_stat[1]:.1f} of {n} jobs")
    else:
        notes.append(f"job_tail_s omitted: {n} jobs leave no percentile "
                     f"above the median with {TAIL_BEYOND} jobs beyond it")
    return metrics, n, failures, notes, []


def traced_run(workloads, args) -> tuple:
    from repro import telemetry
    from repro.spice.validate import validate_structure
    from layers import (PER_LAYER, counter_totals,
                        lane_identity_violations, per_layer)

    clock = HostClock()
    workload = setup_workload(workloads, args.workload, args.seed)
    rate_before = clock.rate(20000)
    untraced = _window(workload, clock, args, args.seconds / 2.0, 3)
    jobs = list(range(len(untraced.latencies)))

    with telemetry.tracing(f"stsclbench-{args.workload}",
                           seed=args.seed) as trace:
        fresh = setup_workload(workloads, args.workload, args.seed)
        traced = run_jobs(fresh, clock, indices=jobs)
        with telemetry.span("bench.replay"):
            run_jobs(fresh, clock, indices=jobs[:1])
        validate = []
        for _ in range(3):
            netlists = fresh.fresh_netlists()
            with workloads.layer("netlist.validate") as span:
                for netlist in netlists:
                    validate_structure(netlist)
            validate.append(span.duration_s)
    rate_after = clock.rate(20000)

    setup_span = _find(trace.root, "bench.setup")
    job_spans = [s for s in trace.root.children if s.name == "bench.job"]
    replay = _find(trace.root, "bench.replay").children[0]

    failures = oracle_failures(workload, untraced.records, untraced.errors)
    for job, reason in oracle_failures(fresh, traced.records,
                                       traced.errors).items():
        failures.setdefault(job, f"traced pass: {reason}")
    for job, reason in workload.references(untraced.records).items():
        failures.setdefault(job, f"serial reference: {reason}")
    for job in jobs:
        counts_u = untraced.records.get(job, {}).get("counts")
        counts_t = traced.records.get(job, {}).get("counts")
        if counts_u != counts_t:
            failures.setdefault(job, f"traced counts {counts_t} != "
                                     f"untraced {counts_u}")
    problems = lane_identity_violations(
        job_spans, [traced.records.get(j, {"counts": {}}) for j in jobs])
    if counter_totals(replay) != counter_totals(job_spans[0]):
        problems.append(f"replayed job 0 counters {counter_totals(replay)}"
                        f" != first pass {counter_totals(job_spans[0])}")

    traced_scaled = traced.scaled(clock)
    metrics = per_layer(
        setup_span, job_spans,
        [traced.records[j] for j in jobs if j in traced.records],
        validate_s=statistics.median(validate),
        trace_overhead=sum(traced_scaled) / sum(untraced.scaled(clock)),
        speed_ratio=rate_after / rate_before)
    # Layer times are rescaled like job latencies, by the traced pass's
    # mean host factor, so runs on a slow and a fast phase compare.
    factor = sum(traced_scaled) / sum(traced.latencies)
    for name, (unit, _) in PER_LAYER.items():
        if unit in ("s", "us"):
            metrics[name] *= factor
    out = ROOT / ".stsclbench"
    out.mkdir(exist_ok=True)
    path = telemetry.write_jsonl(
        trace, out / f"trace-{args.workload}.jsonl")
    notes = [f"{len(jobs)} jobs untraced then traced; spans in {path}",
             f"layer times rescaled to the reference host by {factor:.4f}"]
    return metrics, 2 * len(jobs), failures, notes, problems


def _find(root, name):
    return next(s for s in root.walk() if s.name == name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("adder_dc", "cell_serial",
                                 "latch_mc_batched", "adc_yield"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer "
                             "metrics from a traced run; 2: both, one after "
                             "the other, every metric in one report")
    parser.add_argument("--jobs", type=int, default=0,
                        help="run exactly this many jobs instead of a "
                             "timed window (smoke mode)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    workloads = _import_checkout()
    if args.setup_probe:
        set_up(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from layers import PER_LAYER
    runs = {0: [(untraced_run, END_TO_END)], 1: [(traced_run, PER_LAYER)],
            2: [(untraced_run, END_TO_END), (traced_run, PER_LAYER)]}
    metrics, failures, units = {}, {}, {}
    attempted, notes, problems = 0, [], []
    for runner, declared in runs[args.trace]:
        m, a, f, n, p = runner(workloads, args)
        metrics.update(m)
        attempted += a
        for job, reason in f.items():
            failures.setdefault(job, reason)
        notes += n
        problems += p
        units.update(declared)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  check FAILED: {problem}")
    for job, reason in sorted(failures.items()):
        print(f"  job {job} FAILED: {reason}")
    for name, (unit, _) in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in units.items()
                    if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
