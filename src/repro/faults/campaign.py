"""Fault campaigns: apply a fault catalogue, measure the blast radius.

A :class:`FaultCampaign` rebuilds the target fresh for every fault
(faults never contaminate each other), runs the same metric function on
the healthy and each faulted instance, and reports per-fault metric
deltas.  A fault whose evaluation fails -- a non-converging faulted
circuit is *expected* for severe faults -- is recorded with its error
message instead of aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .. import telemetry
from ..analysis.parallel import (ensure_picklable, run_ordered,
                                 validate_workers)
from ..errors import AnalysisError, ReproError
from .models import FaultModel


def _coerce_metrics(raw: Mapping[str, float]) -> dict[str, float]:
    metrics = {name: float(value) for name, value in raw.items()}
    if not metrics:
        raise AnalysisError("metric function returned no metrics")
    return metrics


def _fault_eval(build: Callable[[], object],
                metric_fn: Callable[[object], Mapping[str, float]],
                fault: "FaultModel") -> tuple[str, object]:
    try:
        faulted = fault.apply(build())
        return ("ok", _coerce_metrics(metric_fn(faulted)))
    except ReproError as error:
        return ("error", error)


class _OpResultFault:
    """A fault wrapper whose ``apply`` also *solves* the faulted
    circuit.

    The batched campaign hands ``metric_fn`` solved
    :class:`~repro.spice.results.OpResult` objects (its lanes come out
    of the stacked solve already solved); structural faults that cannot
    ride a lane go through this wrapper so they honour the same
    contract.
    """

    def __init__(self, fault: "FaultModel", solve) -> None:
        self._fault = fault
        self._solve = solve

    @property
    def name(self) -> str:
        return self._fault.name

    def apply(self, target):
        return self._solve(self._fault.apply(target))


def _fault_worker(build: Callable[[], object],
                  metric_fn: Callable[[object], Mapping[str, float]],
                  fault: "FaultModel",
                  capture_trace: bool = False) -> tuple:
    """Evaluate one fault against a fresh target.

    Module-level so it pickles into worker processes; library errors
    (non-converging faulted circuits above all) come back as data so
    the parent records them exactly like the serial loop would.  With
    ``capture_trace`` set (parallel path under an active parent trace),
    the worker drops any fork-inherited dead-copy trace, records its
    own, and ships the spans back as a third tuple element for in-order
    merging.
    """
    if capture_trace:
        telemetry.reset()
        with telemetry.tracing(f"fault-{fault.name}",
                               fault=fault.name) as trace:
            outcome = _fault_eval(build, metric_fn, fault)
        return outcome + (trace.root.to_dict(),)
    with telemetry.span(f"fault-{fault.name}", fault=fault.name):
        return _fault_eval(build, metric_fn, fault)


@dataclass(frozen=True)
class FaultOutcome:
    """What one fault did to the metrics.

    Attributes:
        fault: Fault name.
        metrics: Metric name -> faulted value (None when the evaluation
            failed).
        deltas: Metric name -> faulted minus baseline.
        error: Failure message when the faulted target could not be
            evaluated.
    """

    fault: str
    metrics: dict[str, float] | None = None
    deltas: dict[str, float] | None = None
    error: str | None = None

    @property
    def evaluated(self) -> bool:
        return self.error is None


@dataclass
class CampaignReport:
    """Blast-radius report of one campaign run.

    Attributes:
        baseline: Healthy-target metrics.
        outcomes: One :class:`FaultOutcome` per fault, in catalogue
            order.
    """

    baseline: dict[str, float]
    outcomes: list[FaultOutcome] = field(default_factory=list)

    @property
    def failed(self) -> list[FaultOutcome]:
        """Faults whose evaluation itself broke down."""
        return [o for o in self.outcomes if not o.evaluated]

    def outcome(self, fault: str) -> FaultOutcome:
        for candidate in self.outcomes:
            if candidate.fault == fault:
                return candidate
        raise AnalysisError(f"no fault {fault!r} in campaign report")

    def worst(self, metric: str) -> FaultOutcome:
        """The evaluated fault with the largest |delta| on ``metric``."""
        evaluated = [o for o in self.outcomes
                     if o.evaluated and metric in (o.deltas or {})]
        if not evaluated:
            raise AnalysisError(
                f"no evaluated fault carries metric {metric!r}")
        return max(evaluated, key=lambda o: abs(o.deltas[metric]))

    def describe(self) -> str:
        """Human-readable blast-radius table."""
        names = list(self.baseline)
        width = max([len(o.fault) for o in self.outcomes] + [8])
        header = f"{'fault':{width}}  " + "  ".join(
            f"{f'd({name})':>12}" for name in names)
        lines = [header]
        lines.append(f"{'baseline':{width}}  " + "  ".join(
            f"{self.baseline[name]:>12.3f}" for name in names))
        for outcome in self.outcomes:
            if not outcome.evaluated:
                lines.append(f"{outcome.fault:{width}}  "
                             f"FAILED: {outcome.error}")
                continue
            lines.append(f"{outcome.fault:{width}}  " + "  ".join(
                f"{outcome.deltas.get(name, float('nan')):>+12.3f}"
                for name in names))
        return "\n".join(lines)


class FaultCampaign:
    """Run a fault catalogue against a rebuildable target.

    Example -- blast radius of comparator faults on a chip::

        campaign = FaultCampaign(
            build=lambda: FaiAdc(seed=3),
            metric_fn=lambda adc: {
                "inl": linearity_test(adc, samples_per_code=4).inl_max},
            faults=[StuckComparator("fine", 9, True),
                    BiasBranchOpen("coarse")])
        report = campaign.run()
        print(report.describe())

    Attributes:
        build: Zero-argument factory producing a *fresh* healthy target
            (circuit or converter); called once per fault plus once for
            the baseline.
        metric_fn: Target -> metric dict; must return the same keys for
            every target it can evaluate.
        faults: The fault catalogue.
        n_workers: Process-pool width for the per-fault evaluations
            (the baseline always runs in-process).  Every fault gets a
            fresh target either way, so the report is identical to the
            serial run, in catalogue order; ``build`` / ``metric_fn`` /
            the faults must then be picklable (module-level functions,
            not lambdas).
        backend: ``"serial"`` (default) evaluates one fault at a time.
            ``"batched"`` solves the baseline and every fault
            expressible as a parameter perturbation
            (:meth:`~repro.faults.models.FaultModel.lane_spec`) as one
            stacked DC system; the contract changes: ``build`` must
            return a :class:`~repro.spice.netlist.Circuit` and
            ``metric_fn`` receives the solved
            :class:`~repro.spice.results.OpResult` (for batched lanes
            and structural faults alike) instead of the raw target.
        analysis: ``"op"`` (default) measures DC operating points.
            ``"transient"`` (``backend="batched"`` only) integrates the
            baseline and every lane-expressible fault as one lockstep
            :func:`~repro.spice.batch.batch_transient` campaign to
            ``t_stop``; ``metric_fn`` then receives solved
            :class:`~repro.spice.results.TranResult` waveforms, and
            structural faults rebuild-and-integrate serially under the
            same contract.
        t_stop / tran_options: The transient window and options,
            required for / honoured by ``analysis="transient"``.
    """

    def __init__(self, build: Callable[[], object],
                 metric_fn: Callable[[object], Mapping[str, float]],
                 faults: Sequence[FaultModel],
                 n_workers: int | None = None,
                 backend: str = "serial",
                 matrix_backend: str | None = None,
                 analysis: str = "op",
                 t_stop: float | None = None,
                 tran_options=None) -> None:
        if not faults:
            raise AnalysisError("campaign needs at least one fault")
        if backend not in ("serial", "batched"):
            raise AnalysisError(
                f"backend must be 'serial' or 'batched', got {backend!r}")
        if analysis not in ("op", "transient"):
            raise AnalysisError(
                f"analysis must be 'op' or 'transient', got {analysis!r}")
        if analysis == "transient":
            if backend != "batched":
                raise AnalysisError(
                    "analysis='transient' campaigns run on the batched "
                    "backend; pass backend='batched'")
            if t_stop is None or t_stop <= 0.0:
                raise AnalysisError(
                    "analysis='transient' needs a positive t_stop")
        if backend == "batched" and n_workers not in (None, 1):
            raise AnalysisError(
                "backend='batched' replaces the process pool; "
                "leave n_workers unset")
        if matrix_backend is not None and backend != "batched":
            raise AnalysisError(
                "matrix_backend overrides apply to backend='batched' only")
        self.build = build
        self.metric_fn = metric_fn
        self.faults = list(faults)
        self.n_workers = validate_workers(n_workers)
        self.backend = backend
        self.matrix_backend = matrix_backend
        self.analysis = analysis
        self.t_stop = t_stop
        self.tran_options = tran_options

    def _evaluate(self, target) -> dict[str, float]:
        return _coerce_metrics(self.metric_fn(target))

    def _fault_outcomes(self) -> list[tuple[str, object]]:
        """("ok", metrics) / ("error", exception) per fault, in
        catalogue order, serial or fanned out over a process pool."""
        if self.n_workers > 1:
            for role, obj in (("build", self.build),
                              ("metric_fn", self.metric_fn),
                              ("fault catalogue", self.faults)):
                ensure_picklable(obj, role)
            trace_on = telemetry.is_enabled()
            return run_ordered(_fault_worker,
                               [(self.build, self.metric_fn, fault, trace_on)
                                for fault in self.faults],
                               self.n_workers)
        return [_fault_worker(self.build, self.metric_fn, fault)
                for fault in self.faults]

    def _batched_outcomes(self) -> tuple[dict[str, float],
                                         list[tuple[str, object]]]:
        """(baseline metrics, per-fault outcome stream) from one
        stacked solve.

        Lane 0 is the unperturbed baseline; every lane-expressible
        fault rides the same :func:`~repro.spice.batch.
        batch_operating_point`.  Structural faults (``lane_spec`` is
        None) are evaluated through the classic rebuild-and-solve path
        -- with the same OpResult-based ``metric_fn`` contract -- so
        one campaign mixes both kinds transparently.
        """
        from ..spice.batch import LaneSpec, batch_operating_point
        from ..spice.dc import operating_point
        from ..spice.netlist import Circuit

        circuit = self.build()
        if not isinstance(circuit, Circuit):
            raise AnalysisError(
                "backend='batched' needs build() to return a Circuit, "
                f"got {type(circuit).__name__}")
        lanes = [LaneSpec(label="baseline")]
        lane_of_fault: dict[int, int] = {}
        for index, fault in enumerate(self.faults):
            lane = fault.lane_spec(circuit)
            if lane is not None:
                lane_of_fault[index] = len(lanes)
                lanes.append(lane)
        batch = batch_operating_point(circuit, lanes, on_error="skip",
                                      matrix_backend=self.matrix_backend)
        lane_errors = dict(batch.failures)
        if 0 in lane_errors:
            raise lane_errors[0]  # baseline failures always propagate
        baseline = self._evaluate(batch.points[0])
        outcomes: list[tuple[str, object]] = []
        for index, fault in enumerate(self.faults):
            lane_index = lane_of_fault.get(index)
            with telemetry.span(f"fault-{fault.name}", fault=fault.name,
                                batched=lane_index is not None):
                if lane_index is None:
                    outcomes.append(_fault_eval(
                        self.build, self.metric_fn,
                        _OpResultFault(fault, operating_point)))
                    continue
                error = lane_errors.get(lane_index)
                if error is not None:
                    outcomes.append(("error", error))
                    continue
                try:
                    outcomes.append(("ok", _coerce_metrics(
                        self.metric_fn(batch.points[lane_index]))))
                except ReproError as metric_error:
                    outcomes.append(("error", metric_error))
        return baseline, outcomes

    def _batched_tran_outcomes(self) -> tuple[dict[str, float],
                                              list[tuple[str, object]]]:
        """The transient twin of :meth:`_batched_outcomes`: baseline
        plus every lane-expressible fault integrate in lockstep on one
        shared grid; ``metric_fn`` measures the per-lane waveforms.
        Structural faults rebuild and integrate serially, same
        TranResult contract."""
        from ..spice.batch import LaneSpec, batch_transient
        from ..spice.netlist import Circuit
        from ..spice.transient import transient

        circuit = self.build()
        if not isinstance(circuit, Circuit):
            raise AnalysisError(
                "backend='batched' needs build() to return a Circuit, "
                f"got {type(circuit).__name__}")
        lanes = [LaneSpec(label="baseline")]
        lane_of_fault: dict[int, int] = {}
        for index, fault in enumerate(self.faults):
            lane = fault.lane_spec(circuit)
            if lane is not None:
                lane_of_fault[index] = len(lanes)
                lanes.append(lane)
        batch = batch_transient(circuit, lanes, self.t_stop,
                                self.tran_options, on_error="skip",
                                matrix_backend=self.matrix_backend)
        lane_errors = dict(batch.failures)
        if 0 in lane_errors:
            raise lane_errors[0]  # baseline failures always propagate
        baseline = self._evaluate(batch.results[0])

        def solve_tran(faulted):
            return transient(faulted, self.t_stop, self.tran_options)

        outcomes: list[tuple[str, object]] = []
        for index, fault in enumerate(self.faults):
            lane_index = lane_of_fault.get(index)
            with telemetry.span(f"fault-{fault.name}", fault=fault.name,
                                batched=lane_index is not None):
                if lane_index is None:
                    outcomes.append(_fault_eval(
                        self.build, self.metric_fn,
                        _OpResultFault(fault, solve_tran)))
                    continue
                error = lane_errors.get(lane_index)
                if error is not None:
                    outcomes.append(("error", error))
                    continue
                try:
                    outcomes.append(("ok", _coerce_metrics(
                        self.metric_fn(batch.results[lane_index]))))
                except ReproError as metric_error:
                    outcomes.append(("error", metric_error))
        return baseline, outcomes

    def run(self) -> CampaignReport:
        """Baseline plus one outcome per fault."""
        with telemetry.span("fault-campaign", n_faults=len(self.faults),
                            n_workers=self.n_workers,
                            backend=self.backend,
                            analysis=self.analysis) as tspan:
            return self._run(tspan)

    def _run(self, tspan) -> CampaignReport:
        if self.backend == "batched" and self.analysis == "transient":
            baseline, outcomes = self._batched_tran_outcomes()
        elif self.backend == "batched":
            baseline, outcomes = self._batched_outcomes()
        else:
            with telemetry.span("baseline"):
                baseline = self._evaluate(self.build())
            outcomes = self._fault_outcomes()
        report = CampaignReport(baseline=baseline)
        for fault, outcome in zip(self.faults, outcomes):
            status, payload = outcome[0], outcome[1]
            if len(outcome) > 2 and outcome[2] is not None:
                # Worker-captured spans, merged in catalogue order.
                tspan.adopt(outcome[2])
            if status == "error":
                tspan.event("fault-eval-failed", fault=fault.name,
                            why=str(payload))
                tspan.inc("faults_failed")
                report.outcomes.append(FaultOutcome(
                    fault=fault.name, error=str(payload)))
                continue
            metrics = payload
            deltas = {name: metrics[name] - baseline[name]
                      for name in baseline if name in metrics}
            report.outcomes.append(FaultOutcome(
                fault=fault.name, metrics=metrics, deltas=deltas))
        tspan.annotate(n_failed=len(report.failed))
        return report
