"""Per-layer metrics, derived from one traced pass.

Every number here is measured from outside the program: the durations
of the benchmark's own ``bench.<layer>`` spans around its calls into a
layer, the counters and spans the program already records under them,
and the ``SolverDiagnostics`` / ``TransientTelemetry`` the results carry.
Values are per job unless the README marks them otherwise.
"""

from __future__ import annotations

#: name -> (unit, better).  The order is the report order.
PER_LAYER = {
    "stscl.build_s": ("s", "lower"),
    "netlist.compile_s": ("s", "lower"),
    "netlist.validate_s": ("s", "lower"),
    "netlist.compile_cache_misses": ("count", "lower"),
    "dc.solve_s": ("s", "lower"),
    "dc.newton_iters": ("count", "lower"),
    **{f"dc.rung.{rung}.{kind}": (unit, "lower")
       for rung in ("newton", "gmin", "source", "ptran")
       for kind, unit in (("iters", "count"), ("s", "s"))},
    "dc.first_rung_frac": ("ratio", "higher"),
    "dc.failed_rung_iter_frac": ("ratio", "lower"),
    "devices.bank_evals": ("count", "lower"),
    "linalg.jacobian_factorizations": ("count", "lower"),
    "linalg.lu_reuses": ("count", "higher"),
    "linalg.lu_reuse_frac": ("ratio", "higher"),
    "sparse.numeric_refactorizations": ("count", "lower"),
    "sparse.factorizations": ("count", "lower"),
    "sparse.pattern_builds": ("count", "lower"),
    "transient.solve_s": ("s", "lower"),
    "transient.steps_accepted": ("count", "lower"),
    "transient.steps_rejected": ("count", "lower"),
    "transient.step_accept_frac": ("ratio", "higher"),
    "transient.host_us_per_step": ("us", "lower"),
    "batch.ensemble_s": ("s", "lower"),
    "batch.lanes": ("count", "higher"),
    "batch.steps": ("count", "lower"),
    "batch.lane_rejections": ("count", "lower"),
    "batch.fallback_frac": ("ratio", "lower"),
    "batch.host_us_per_lane_step": ("us", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "adc.codes_s": ("s", "lower"),
    "adc.linearity_s": ("s", "lower"),
    **{f"span.{name}.self_s": ("s", "lower")
       for name in ("operating-point", "newton", "transient",
                    "batch-transient", "montecarlo")},
    "telemetry.trace_overhead": ("ratio", "lower"),
    "host.speed_ratio": ("ratio", "higher"),
    "trace.jobs": ("count", "higher"),
}

#: Program spans that are engine work, not Monte-Carlo bookkeeping.
ENGINE_SPANS = ("operating-point", "batch-operating-point", "transient",
                "batch-transient")

#: Counters whose totals must repeat exactly when a job is replayed.
DETERMINISTIC_COUNTERS = (
    "device_bank_evals", "jacobian_factorizations", "lu_reuses",
    "lu_refactorizations", "sparse_factorizations",
    "sparse_numeric_refactorizations", "sparse_symbolic_factorizations",
    "compile_cache_misses", "transient_steps_accepted",
    "transient_steps_rejected", "batch_transient_steps",
    "batch_transient_lane_rejections", "batch_lane_fallbacks")


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer did no work on this
    workload (the metric contract allows numbers only)."""
    return num / den if den else 0.0


def _span_time(spans, name: str) -> float:
    return sum(s.duration_s for root in spans for s in root.walk()
               if s.name == name)


def _self_time(span) -> float:
    return span.duration_s - sum(c.duration_s for c in span.children)


def counter_totals(span) -> dict[str, int]:
    totals = span.total_counters()
    return {key: totals.get(key, 0) for key in DETERMINISTIC_COUNTERS}


def lane_identity_violations(job_spans, records) -> list[str]:
    """Check ``lane_samples == steps_accepted * lanes_lockstep +
    fallback_serial_steps`` on every batched-transient span, its step
    counter, and the lane samples the measure callbacks saw."""
    problems = []
    for job, record in zip(job_spans, records):
        spans = job.find_all("batch-transient")
        for span in spans:
            a = span.attrs
            if a["lane_samples"] != (a["steps_accepted"] * a["lanes_lockstep"]
                                     + a["fallback_serial_steps"]):
                problems.append(f"{job.name}: lane-sample identity broken: "
                                f"{a}")
            if span.counter("batch_transient_steps") != a["steps_accepted"]:
                problems.append(f"{job.name}: batch_transient_steps "
                                f"{span.counter('batch_transient_steps')} "
                                f"!= steps_accepted {a['steps_accepted']}")
        seen = sum(record["counts"].get("lane_steps", ()))
        if spans and seen != sum(s.attrs["lane_samples"] for s in spans):
            problems.append(f"{job.name}: measured lane samples {seen} "
                            f"!= traced lane_samples")
    return problems


def per_layer(setup_span, job_spans, records, validate_s: float,
              trace_overhead: float, speed_ratio: float) -> dict:
    """Every :data:`PER_LAYER` metric from the traced pass.

    ``setup_span`` is the traced set-up, ``job_spans`` one
    ``bench.job`` span per traced job and ``records`` their job
    records.  Build and compile metrics are per job where the job
    builds or compiles (``adder_dc``) and per set-up elsewhere.
    """
    n = len(job_spans)
    per_job = 1.0 / n
    totals: dict[str, int] = {}
    for job in job_spans:
        for key, value in job.total_counters().items():
            totals[key] = totals.get(key, 0) + value

    def job_or_setup(name: str) -> float:
        in_jobs = _span_time(job_spans, name)
        return in_jobs * per_job if in_jobs else _span_time([setup_span],
                                                            name)

    misses = totals.get("compile_cache_misses", 0)
    m = {
        "stscl.build_s": job_or_setup("bench.stscl.build"),
        "netlist.compile_s": job_or_setup("bench.netlist.compile"),
        "netlist.validate_s": validate_s,
        "netlist.compile_cache_misses": (
            misses * per_job if misses
            else setup_span.total_counter("compile_cache_misses")),
    }

    ops = [op for r in records for op in r.get("ops", ())]
    stages = [stage for op in ops for stage in op["stages"]]
    all_iters = sum(s[1] for s in stages)
    m["dc.solve_s"] = _span_time(job_spans, "bench.dc.operating_point") \
        * per_job
    m["dc.newton_iters"] = all_iters * per_job
    for rung in ("newton", "gmin", "source", "ptran"):
        mine = [s for s in stages if s[0] == rung]
        m[f"dc.rung.{rung}.iters"] = sum(s[1] for s in mine) * per_job
        m[f"dc.rung.{rung}.s"] = sum(s[2] for s in mine) * per_job
    m["dc.first_rung_frac"] = _ratio(
        sum(1 for op in ops if op["stages"][0][3]), len(ops))
    m["dc.failed_rung_iter_frac"] = _ratio(
        sum(s[1] for s in stages if not s[3]), all_iters)

    m["devices.bank_evals"] = totals.get("device_bank_evals", 0) * per_job
    refactor = totals.get("lu_refactorizations", 0)
    reuses = totals.get("lu_reuses", 0)
    m["linalg.jacobian_factorizations"] = \
        totals.get("jacobian_factorizations", 0) * per_job
    m["linalg.lu_reuses"] = reuses * per_job
    m["linalg.lu_reuse_frac"] = _ratio(reuses, reuses + refactor)
    m["sparse.numeric_refactorizations"] = \
        totals.get("sparse_numeric_refactorizations", 0) * per_job
    m["sparse.factorizations"] = \
        totals.get("sparse_factorizations", 0) * per_job
    # The counter is named for symbolic factorizations but counts
    # SparseSystem pattern builds.
    m["sparse.pattern_builds"] = \
        totals.get("sparse_symbolic_factorizations", 0) * per_job

    accepted = sum(r["counts"].get("steps_accepted", 0) for r in records)
    rejected = sum(r["counts"].get("steps_rejected", 0) for r in records)
    tran_s = _span_time(job_spans, "bench.transient.transient")
    m["transient.solve_s"] = tran_s * per_job
    m["transient.steps_accepted"] = accepted * per_job
    m["transient.steps_rejected"] = rejected * per_job
    m["transient.step_accept_frac"] = _ratio(accepted, accepted + rejected)
    m["transient.host_us_per_step"] = _ratio(tran_s * 1e6, accepted)

    batches = [s for job in job_spans for s in job.find_all("batch-transient")]
    lanes = sum(s.attrs["batch"] for s in batches)
    ensemble_s = sum(s.duration_s for s in batches)
    lane_steps = sum(s.attrs["steps_accepted"] * s.attrs["batch"]
                     for s in batches)
    m["batch.ensemble_s"] = ensemble_s * per_job
    m["batch.lanes"] = lanes * per_job
    m["batch.steps"] = totals.get("batch_transient_steps", 0) * per_job
    m["batch.lane_rejections"] = \
        totals.get("batch_transient_lane_rejections", 0) * per_job
    m["batch.fallback_frac"] = _ratio(totals.get("batch_lane_fallbacks", 0),
                                      lanes)
    m["batch.host_us_per_lane_step"] = _ratio(ensemble_s * 1e6, lane_steps)

    mc = [s for job in job_spans for s in job.find_all("montecarlo")]
    m["montecarlo.self_s"] = sum(
        s.duration_s - sum(c.duration_s for c in s.children
                           if c.name in ENGINE_SPANS)
        for s in mc) * per_job
    m["adc.codes_s"] = _span_time(job_spans, "bench.adc.codes") * per_job
    m["adc.linearity_s"] = _span_time(job_spans, "bench.adc.linearity") \
        * per_job
    for name in ("operating-point", "newton", "transient",
                 "batch-transient", "montecarlo"):
        m[f"span.{name}.self_s"] = sum(
            _self_time(s) for job in job_spans for s in job.find_all(name)
        ) * per_job
    m["telemetry.trace_overhead"] = trace_overhead
    m["host.speed_ratio"] = speed_ratio
    m["trace.jobs"] = n
    return m
