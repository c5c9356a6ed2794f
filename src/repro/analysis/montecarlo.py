"""Generic Monte-Carlo runner over seeded chip instances.

The convention throughout the library: a *seed* fully determines one
chip's mismatch pattern.  The runner maps seeds through a user metric
function and summarises the distribution -- this is how the Fig. 11
INL/DNL numbers are reproduced as a population rather than one lucky
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import telemetry
from ..errors import AnalysisError, ReproError
from .parallel import ensure_picklable, run_ordered, validate_workers


def _mc_eval(metric_fn: Callable[[int], dict[str, float]],
             seed: int) -> tuple[str, object]:
    try:
        return ("ok", metric_fn(seed))
    except ReproError as error:
        return ("error", error)


def _mc_worker(metric_fn: Callable[[int], dict[str, float]],
               seed: int, capture_trace: bool = False) -> tuple:
    """Evaluate one seed; in a worker process when parallel.

    Library errors come back as data -- ``("error", exception)`` -- so
    the parent applies the same ``on_error`` policy as the serial loop.
    Module-level so it pickles.

    ``capture_trace`` is set by the parallel path when the *parent* was
    tracing: the worker records a private trace around the evaluation
    and ships its spans back as a third tuple element for the parent to
    merge in submission order.  A fork-started worker inherits the
    parent's trace as a dead copy (mutations never propagate back), so
    it is dropped first.  The serial path instead opens a plain child
    span, which nests naturally.
    """
    if capture_trace:
        telemetry.reset()
        with telemetry.tracing(f"seed-{seed}", seed=seed) as trace:
            outcome = _mc_eval(metric_fn, seed)
        return outcome + (trace.root.to_dict(),)
    with telemetry.span(f"seed-{seed}", seed=seed):
        return _mc_eval(metric_fn, seed)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Distribution summary of one scalar metric.

    Attributes:
        name: Metric label.
        values: Raw per-seed values.
        mean / std / median: Moments.
        p05 / p95: 5th / 95th percentiles.
    """

    name: str
    values: np.ndarray
    mean: float
    std: float
    median: float
    p05: float
    p95: float

    @classmethod
    def from_values(cls, name: str, values) -> "MonteCarloSummary":
        array = np.asarray(list(values), dtype=float)
        if array.size == 0:
            raise AnalysisError(f"no samples for metric {name!r}")
        # Sample standard deviation (ddof=1): these values estimate the
        # spread of the *population* the seeds were drawn from, not of
        # the finite sample itself.  A single sample carries no spread
        # information, so it reports 0.0 (not NaN).
        std = float(array.std(ddof=1)) if array.size > 1 else 0.0
        return cls(name=name, values=array,
                   mean=float(array.mean()), std=std,
                   median=float(np.median(array)),
                   p05=float(np.percentile(array, 5)),
                   p95=float(np.percentile(array, 95)))


class MonteCarloRun(dict):
    """Per-metric summaries plus the population's failure record.

    Behaves exactly like the ``dict[str, MonteCarloSummary]`` older
    callers expect, with the skipped seeds on the side.

    Attributes:
        failed_seeds: ``(seed, message)`` per seed whose metric
            evaluation raised under ``on_error="skip"``.
    """

    def __init__(self, summaries: dict[str, "MonteCarloSummary"],
                 failed_seeds: list[tuple[int, str]]) -> None:
        super().__init__(summaries)
        self.failed_seeds = list(failed_seeds)

    @property
    def n_failed(self) -> int:
        return len(self.failed_seeds)

    def describe(self) -> str:
        lines = [f"{name}: mean {summary.mean:.4g} "
                 f"std {summary.std:.4g} "
                 f"[p05 {summary.p05:.4g}, p95 {summary.p95:.4g}]"
                 for name, summary in self.items()]
        if self.failed_seeds:
            seeds = ", ".join(str(seed) for seed, _ in self.failed_seeds)
            lines.append(f"failed seeds ({self.n_failed}): {seeds}")
        return "\n".join(lines)


class MonteCarlo:
    """Run ``metric_fn(seed) -> dict[str, float]`` over many seeds.

    Example::

        def chip_metrics(seed):
            adc = FaiAdc(seed=seed)
            report = linearity_test(adc)
            return {"inl": report.inl_max, "dnl": report.dnl_max}

        mc = MonteCarlo(chip_metrics, n_runs=25)
        print(mc.run()["inl"].median)

    ``on_error`` selects the per-seed policy when ``metric_fn`` raises a
    library error (:class:`~repro.errors.ReproError` -- convergence
    failures above all):

    * ``"raise"`` (default): propagate, aborting the population;
    * ``"skip"``: record the seed in
      :attr:`MonteCarloRun.failed_seeds` and keep going, so one
      pathological chip cannot destroy a long campaign.

    ``n_workers > 1`` fans the seeds out over a process pool.  Seeds
    fully determine each chip, so the population is identical to the
    serial run -- same summaries, same failed-seed records, in the same
    seed order -- just wall-clock faster.  ``metric_fn`` must then be
    picklable (a module-level function, not a lambda); it ships with
    every task chunk.  Pass a :meth:`~repro.spice.batch.BatchedOpMetric.
    plan` so that payload carries a pre-compiled circuit and the whole
    fleet compiles exactly once.

    ``backend="batched"`` solves the whole population as one stacked
    tensor instead of one Newton solve per seed; ``metric_fn`` must
    then be a :class:`~repro.spice.batch.BatchedOpMetric` spec (which
    is also a plain callable, so the same spec runs under every
    backend).  Each seed's mismatch draw becomes one lane of a
    :func:`~repro.spice.batch.batch_operating_point`; lanes the batched
    loop cannot converge fall back to the serial strategy ladder, so
    summaries, failed-seed records and their ordering match the serial
    backend (to float tolerance far inside 1e-9).

    ``analysis="transient"`` evaluates each seed as a waveform instead
    of a DC point: ``metric_fn`` is then a
    :class:`~repro.spice.batch.BatchedTranMetric` spec measuring a
    :class:`~repro.spice.results.TranResult`.  Under
    ``backend="batched"`` the whole population integrates as **one**
    lockstep :func:`~repro.spice.batch.batch_transient` campaign
    (shared adaptive grid, per-lane LTE, serial fallback for lanes
    that leave the grid); under ``backend="serial"`` the spec is
    simply called per seed.
    """

    def __init__(self, metric_fn: Callable[[int], dict[str, float]],
                 n_runs: int = 25, seed_base: int = 0,
                 on_error: str = "raise",
                 n_workers: int | None = None,
                 backend: str = "serial",
                 analysis: str = "op",
                 matrix_backend: str | None = None) -> None:
        if n_runs < 1:
            raise AnalysisError(f"n_runs must be >= 1: {n_runs}")
        if on_error not in ("raise", "skip"):
            raise AnalysisError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}")
        if backend not in ("serial", "batched"):
            raise AnalysisError(
                f"backend must be 'serial' or 'batched', got {backend!r}")
        if analysis not in ("op", "transient"):
            raise AnalysisError(
                f"analysis must be 'op' or 'transient', got {analysis!r}")
        if backend == "batched" and n_workers not in (None, 1):
            raise AnalysisError(
                "backend='batched' replaces the process pool; "
                "leave n_workers unset")
        if matrix_backend is not None and backend != "batched":
            raise AnalysisError(
                "matrix_backend overrides apply to backend='batched' only")
        self.metric_fn = metric_fn
        self.n_runs = n_runs
        self.seed_base = seed_base
        self.on_error = on_error
        self.n_workers = validate_workers(n_workers)
        self.backend = backend
        self.analysis = analysis
        self.matrix_backend = matrix_backend

    def _seeds(self) -> list[int]:
        return [self.seed_base + k for k in range(self.n_runs)]

    def _outcomes_serial(self):
        """Yield (seed, ("ok", metrics) | ("error", exception)) lazily
        -- under ``on_error="raise"`` later seeds never evaluate."""
        for seed in self._seeds():
            yield seed, _mc_worker(self.metric_fn, seed)

    def _outcomes_parallel(self):
        """Same outcome stream, evaluated on a process pool.

        Futures are collected in seed-submission order, so the
        reduction sees the exact sequence of the serial loop -- and,
        when tracing, the per-worker spans merge in that same order.
        """
        ensure_picklable(self.metric_fn, "metric_fn")
        trace_on = telemetry.is_enabled()
        results = run_ordered(_mc_worker,
                              [(self.metric_fn, seed, trace_on)
                               for seed in self._seeds()],
                              self.n_workers)
        return zip(self._seeds(), results)

    def _outcomes_batched(self, tspan):
        """Same (seed, outcome) stream, produced by one stacked solve.

        Each seed's lane draw is a pure function of the seed (the
        :class:`~repro.spice.batch.BatchedOpMetric` contract), so the
        population is the one the serial loop would have evaluated;
        lanes that fail every strategy surface as the same
        ``("error", ConvergenceError)`` records, in seed order.

        Populations larger than one lane warm-start from a pilot solve
        of the first seed's lane (the sweep backend's pattern): every
        seed is a small perturbation of the same circuit, so the
        pilot's operating point puts the whole stack in the converged
        basin -- which is what lets circuits only the full homotopy
        ladder can solve cold (the bistable adder latches, say) run as
        stacked ensembles at all.  A failed pilot degrades to the flat
        nodeset start instead of poisoning the population.
        """
        from ..spice.batch import (BatchedOpMetric, BatchedTranMetric,
                                   batch_operating_point)
        spec = self.metric_fn
        if isinstance(spec, BatchedTranMetric):
            raise AnalysisError(
                "metric_fn is a BatchedTranMetric (a waveform metric); "
                "pass analysis='transient' to run it as a lockstep "
                "transient campaign")
        if not isinstance(spec, BatchedOpMetric):
            raise AnalysisError(
                "backend='batched' needs a BatchedOpMetric spec as "
                f"metric_fn, got {type(spec).__name__}; wrap the build/"
                "draw/measure triple in repro.spice.batch.BatchedOpMetric")
        circuit = spec.build()
        seeds = self._seeds()
        lanes = [spec.draw(seed, circuit) for seed in seeds]
        x0 = None
        if len(lanes) > 1:
            pilot = batch_operating_point(
                circuit, lanes[:1], options=spec.options,
                strategies=spec.strategies, on_error="skip",
                matrix_backend=self.matrix_backend)
            if not pilot.failures:
                x0 = pilot.points[0].x
                tspan.event("pilot-warm-start", seed=seeds[0])
            else:
                tspan.event("pilot-failed-flat-start",
                            why=str(pilot.failures[0][1]))
        batch = batch_operating_point(circuit, lanes, options=spec.options,
                                      strategies=spec.strategies,
                                      on_error="skip", x0=x0,
                                      matrix_backend=self.matrix_backend)
        failed = dict(batch.failures)
        outcomes = []
        for index, seed in enumerate(seeds):
            if index in failed:
                outcomes.append((seed, ("error", failed[index])))
                continue
            try:
                metrics = {name: float(value) for name, value in
                           spec.measure(batch.points[index]).items()}
            except ReproError as error:
                outcomes.append((seed, ("error", error)))
                continue
            outcomes.append((seed, ("ok", metrics)))
        return outcomes

    def _outcomes_batched_tran(self, tspan):
        """The transient twin of :meth:`_outcomes_batched`: one
        lockstep :func:`~repro.spice.batch.batch_transient` campaign
        produces the whole population's waveforms.

        No pilot warm start here -- every lane's t = 0 point is its own
        stacked DC solve inside the engine, and lanes that leave the
        shared grid rerun the full serial ladder + serial transient, so
        failures surface as the same ``("error", ConvergenceError)``
        records the serial loop would record, in seed order.
        """
        from ..spice.batch import BatchedTranMetric, batch_transient
        spec = self.metric_fn
        if not isinstance(spec, BatchedTranMetric):
            raise AnalysisError(
                "analysis='transient' with backend='batched' needs a "
                "BatchedTranMetric spec as metric_fn, got "
                f"{type(spec).__name__}; wrap the build/draw/measure "
                "triple in repro.spice.batch.BatchedTranMetric")
        circuit = spec.build()
        seeds = self._seeds()
        lanes = [spec.draw(seed, circuit) for seed in seeds]
        batch = batch_transient(circuit, lanes, spec.t_stop,
                                spec.options, on_error="skip",
                                matrix_backend=self.matrix_backend)
        failed = dict(batch.failures)
        outcomes = []
        for index, seed in enumerate(seeds):
            if index in failed:
                outcomes.append((seed, ("error", failed[index])))
                continue
            try:
                metrics = {name: float(value) for name, value in
                           spec.measure(batch.results[index]).items()}
            except ReproError as error:
                outcomes.append((seed, ("error", error)))
                continue
            outcomes.append((seed, ("ok", metrics)))
        return outcomes

    def run(self) -> MonteCarloRun:
        """Execute all runs; returns per-metric summaries (a dict) with
        the failed-seed record attached."""
        with telemetry.span("montecarlo", n_runs=self.n_runs,
                            n_workers=self.n_workers,
                            backend=self.backend,
                            analysis=self.analysis,
                            seed_base=self.seed_base) as tspan:
            return self._run(tspan)

    def _run(self, tspan) -> MonteCarloRun:
        if self.backend == "batched":
            if self.analysis == "transient":
                outcomes = self._outcomes_batched_tran(tspan)
            else:
                outcomes = self._outcomes_batched(tspan)
        elif self.n_workers > 1:
            outcomes = self._outcomes_parallel()
        else:
            outcomes = self._outcomes_serial()
        collected: dict[str, list[float]] = {}
        expected_keys: set[str] | None = None
        failed: list[tuple[int, str]] = []
        for seed, outcome in outcomes:
            status, payload = outcome[0], outcome[1]
            if len(outcome) > 2 and outcome[2] is not None:
                # Worker-captured spans: graft them under this span in
                # submission order, exactly where the serial child span
                # would have gone.
                tspan.adopt(outcome[2])
            if status == "error":
                if self.on_error == "raise":
                    raise payload
                tspan.event("seed-failed", seed=seed, why=str(payload))
                tspan.inc("seeds_failed")
                failed.append((seed, str(payload)))
                continue
            metrics = payload
            if not metrics:
                raise AnalysisError("metric function returned no metrics")
            if expected_keys is None:
                expected_keys = set(metrics)
            elif set(metrics) != expected_keys:
                raise AnalysisError(
                    "metric function returned inconsistent metric sets: "
                    f"{sorted(expected_keys)} vs {sorted(metrics)}")
            for name, value in metrics.items():
                collected.setdefault(name, []).append(float(value))
        if not collected:
            raise AnalysisError(
                f"every seed failed ({len(failed)} of {self.n_runs}); "
                f"first: {failed[0][1] if failed else 'n/a'}")
        tspan.annotate(n_failed=len(failed))
        return MonteCarloRun(
            {name: MonteCarloSummary.from_values(name, values)
             for name, values in collected.items()}, failed)
