"""Transient analysis: trapezoidal / backward-Euler with adaptive steps.

The integrator is charge-based: at each accepted time point the solver
records the charge of every dynamic term, and each Newton solve at the
new time point stamps the companion current

    BE:    i = (q(x) - q_prev) / dt
    TRAP:  i = 2 (q(x) - q_prev) / dt - i_prev

Waveform breakpoints (pulse edges etc.) are always landed on exactly.

Step sizes come from one local-truncation-error controller,
:class:`StepController`: each accepted candidate solution is compared
against a polynomial predictor extrapolated through the last accepted
points; the difference, scaled by the standard per-method error
constant (``dt^3 x'''/12`` for trap, ``dt^2 x''/2`` for backward
Euler), estimates the LTE, and the step size is driven toward the
``reltol``/``abstol`` target.  Steps whose estimated error exceeds the
target are rejected and retried smaller -- telemetry distinguishes
these *LTE rejections* from *Newton rejections*.  A fixed grid is
``dt_initial == dt_min == dt_max``.  The lockstep ensemble engine
(:func:`~repro.spice.batch.batch_transient`) drives the same
controller with stacked ``(B, N)`` lane solutions and reduces the
per-lane verdicts by its min-rule.

The per-step Newton solves share one Jacobian LU factorization through
a :class:`~repro.spice.strategies.LuReuseState` held across accepted
steps and invalidated on every dt change (chord Newton under the
:attr:`~repro.spice.strategies.NewtonOptions.lu_contraction` monitor).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import math
import time as _time

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from ..scope.capture import ScopeSession

from .. import telemetry
from ..errors import AnalysisError, ConvergenceError, NetlistError
from .dc import NewtonOptions, _newton, operating_point
from .elements import CurrentSource, Stamper, VoltageSource
from .netlist import Circuit
from .results import OpResult, TranResult
from .strategies import LuReuseState


@dataclass(frozen=True)
class TransientOptions:
    """Transient-engine knobs.

    Attributes:
        dt_initial: First step size [s]; default t_stop / 1000.
        dt_min: Smallest allowed step [s]; default t_stop * 1e-9.
        dt_max: Largest allowed step [s]; default t_stop / 50.
        method: 'trap' (default) or 'be'.
        newton: Nonlinear-solver options per step.
        record_currents: Also record branch currents of voltage sources.
        max_rejections: Total step-rejection budget for the whole run
            (None: unlimited), counting Newton and LTE rejections
            alike.  A circuit that keeps rejecting steps is diagnosed
            early with its telemetry instead of grinding the step size
            down to ``dt_min``.
        reltol: Relative waveform-error target per step (LTE control).
        abstol: Absolute waveform-error floor per step [V].
        trtol: Truncation-error overestimation divisor (SPICE's TRTOL).
            The divided-difference LTE estimate is conservative by
            roughly this factor on smooth waveforms.
        max_wall_time: Wall-clock budget [s] for the whole run (initial
            operating point included).  When exceeded, the run aborts
            with :class:`~repro.errors.ConvergenceError` carrying the
            :class:`TransientTelemetry` gathered so far (stage
            ``"wall-clock"``); None (default) means unlimited and
            leaves the step loop's instruction sequence untouched.
    """

    dt_initial: float | None = None
    dt_min: float | None = None
    dt_max: float | None = None
    method: str = "trap"
    newton: NewtonOptions = NewtonOptions(max_iterations=60)
    record_currents: bool = False
    max_rejections: int | None = None
    reltol: float = 1.0e-3
    abstol: float = 1.0e-6
    trtol: float = 7.0
    max_wall_time: float | None = None


@dataclass
class TransientTelemetry:
    """Step-acceptance record of one transient run.

    Attributes:
        steps_accepted: Time points committed.
        steps_rejected: Attempts that shrank the step (all causes).
        newton_rejections: Rejections caused by a Newton failure.
        lte_rejections: Rejections caused by the LTE controller.
        newton_iterations: Total Newton iterations over accepted steps.
        rejection_times: Simulation times [s] at which rejections
            happened (capped at 64 entries; earliest kept).
        dt_smallest: Smallest step size actually committed [s].
    """

    steps_accepted: int = 0
    steps_rejected: int = 0
    newton_rejections: int = 0
    lte_rejections: int = 0
    newton_iterations: int = 0
    rejection_times: list[float] = field(default_factory=list)
    dt_smallest: float = float("inf")

    _REJECTION_LOG_LIMIT = 64

    def record_rejection(self, time: float, kind: str = "newton") -> None:
        self.steps_rejected += 1
        if kind == "lte":
            self.lte_rejections += 1
        else:
            self.newton_rejections += 1
        if len(self.rejection_times) < self._REJECTION_LOG_LIMIT:
            self.rejection_times.append(time)

    def describe(self) -> str:
        rate = self.steps_rejected / max(
            1, self.steps_accepted + self.steps_rejected)
        # dt_smallest is the identity of min() until a step commits; a
        # run that died before its first commit must not report an
        # "inf seconds" step size.
        dt_text = (f"{self.dt_smallest:.3e} s"
                   if math.isfinite(self.dt_smallest)
                   else "n/a (no committed steps)")
        text = (f"{self.steps_accepted} steps accepted, "
                f"{self.steps_rejected} rejected ({rate:.0%}), "
                f"{self.newton_iterations} Newton iterations, "
                f"smallest dt {dt_text}")
        # Breakdown appended after the historical string shape, so
        # prefix-matching log parsers keep working.
        if self.steps_rejected:
            text += (f"; rejections: {self.newton_rejections} newton, "
                     f"{self.lte_rejections} lte")
        return text


#: Breakpoints closer together than this fraction of t_stop are merged
#: (and ones this close to t=0 / t=t_stop dropped): two waveform edges
#: a few float-ulps apart must not force a sub-``dt_min`` landing step.
_BREAKPOINT_MERGE_RTOL = 1.0e-9


def _breakpoints(circuit: Circuit, t_stop: float) -> list[float]:
    from .subckt import Instance
    points: set[float] = set()

    def collect(element) -> None:
        if isinstance(element, (VoltageSource, CurrentSource)):
            # breakpoints_within drops corners at or beyond t_stop at
            # the waveform (pre-merge), and lets periodic waveforms
            # generate corners for the whole window instead of a
            # fixed-length table.
            for t in element.waveform.breakpoints_within(t_stop):
                if 0.0 < t < t_stop:
                    points.add(float(t))
        elif isinstance(element, Instance):
            for source in element.waveform_sources():
                collect(source)

    for element in circuit.elements:
        collect(element)
    merge_below = _BREAKPOINT_MERGE_RTOL * t_stop
    merged: list[float] = []
    for t in sorted(points):
        if t <= merge_below or t >= t_stop - merge_below:
            continue  # coincides with an endpoint the loop lands anyway
        if merged and t - merged[-1] <= merge_below:
            continue  # near-duplicate edge: keep the earliest
        merged.append(t)
    return merged


#: Step-growth cap, shrink floor and safety factor of the LTE
#: controller (standard embedded-error-controller constants).
_LTE_MAX_GROWTH = 3.0
_LTE_MIN_SHRINK = 0.1
_LTE_SAFETY = 0.9

#: First step after a waveform corner, as a fraction of the run to the
#: next breakpoint.  The predictor history is empty right after a
#: corner, so that one step is taken blind (no LTE check); starting it
#: small bounds the unchecked error, and the controller's growth cap
#: recovers the step size within a couple of accepted steps.
_BREAKPOINT_RESTART_FRACTION = 0.125


def _predict(t_new: float, hist_t: list[float],
             hist_x: list[np.ndarray], k: int) -> np.ndarray:
    """Lagrange extrapolation through the last ``k`` accepted points."""
    ts = hist_t[-k:]
    xs = hist_x[-k:]
    pred = np.zeros_like(xs[0])
    for i in range(k):
        weight = 1.0
        for j in range(k):
            if j != i:
                weight *= (t_new - ts[j]) / (ts[i] - ts[j])
        pred += weight * xs[i]
    return pred


def _lte_factor(err_norm: float, order: int) -> float:
    """Step-scale factor an error norm asks for (clamped by caller)."""
    if err_norm <= 0.0:
        return _LTE_MAX_GROWTH
    return _LTE_SAFETY * err_norm ** (-1.0 / (order + 1))


class StepController:
    """The LTE step-size policy of one transient run.

    Both :func:`transient` and the lockstep ensemble engine
    (:func:`~repro.spice.batch.batch_transient`) drive one instance;
    each engine keeps only its own failure handling (the serial engine
    raises, the batched one kicks lanes out and reduces per-lane
    verdicts by its min-rule).  The controller owns the dt bounds and
    the Newton tolerance coupling, the snapping of steps onto waveform
    breakpoints, the predictor history and its restart at waveform
    corners, the LTE estimate and the shrink / grow factors.

    History vectors are whatever the engine commits: one solution
    vector (serial) or a ``(B, N)`` lane stack (batched).  Every
    operation acts along the last axis, so one lane of a stack follows
    exactly the arithmetic of a serial run; ``rows`` selects the live
    lanes of a stack.
    """

    def __init__(self, circuit: Circuit, t_stop: float,
                 options: TransientOptions) -> None:
        self.options = options
        self.t_stop = t_stop
        self.dt_min = options.dt_min or t_stop * 1e-9
        self.dt_max = options.dt_max or t_stop / 50.0
        self.dt = min(options.dt_initial or t_stop / 1000.0, self.dt_max)
        self.order = 2 if options.method == "trap" else 1
        newton = options.newton
        #: One absolute wall-clock deadline for the whole run, also
        #: threaded into every Newton solve so a single stuck solve
        #: cannot outlive the budget (None: unlimited).
        self.deadline = None
        if options.max_wall_time is not None:
            self.deadline = _time.perf_counter() + options.max_wall_time
            newton = replace(newton, deadline=self.deadline)
        # The waveform accuracy contract is (reltol, abstol); resolving
        # each nonlinear solve tighter than the absolute waveform
        # tolerance is wasted iterations, so the Newton update
        # tolerance is raised to ``abstol`` (a tighter user-set
        # ``vntol`` is honoured by lowering ``abstol``).
        self.newton = replace(newton,
                              vntol=max(newton.vntol, options.abstol))
        self.breakpoints = _breakpoints(circuit, t_stop)
        self._cursor = 0
        self.n_nodes = 0
        self.hist_t: list[float] = []
        self.hist_x: list[np.ndarray] = []

    def begin(self, x0: np.ndarray, n_nodes: int) -> None:
        """Seed the predictor history with the t = 0 solution."""
        self.n_nodes = n_nodes
        self.hist_t = [0.0]
        self.hist_x = [x0.copy()]

    def next_step(self, t: float) -> float:
        """The step to attempt from ``t``: ``dt``, cut short to land
        exactly on the next breakpoint or the stop time."""
        points = self.breakpoints
        while True:
            while (self._cursor < len(points)
                   and points[self._cursor] <= t * (1 + 1e-12)):
                self._cursor += 1
            t_limit = (points[self._cursor] if self._cursor < len(points)
                       else self.t_stop)
            step = min(self.dt, min(t_limit, self.t_stop) - t)
            if step > 0.0:
                return step
            self._cursor += 1

    def predict(self, t_new: float, rows=None):
        """``(prediction, estimate order)`` at ``t_new``.

        The polynomial predictor through the accepted history is the
        LTE reference AND -- being the best available forecast of the
        solution -- Newton's starting point (a stale start costs
        several extra iterations per large step).  While the history
        is still rebuilding after t = 0 or a waveform corner, a shorter
        (lower-order) predictor is used: its divided-difference LTE
        estimate is conservative for the trap step, which beats taking
        the step blind.  ``(None, 0)`` when the history holds fewer
        than two points or the extrapolation is non-finite over
        ``rows``.
        """
        if len(self.hist_t) < 2:
            return None, 0
        k = min(self.order + 1, len(self.hist_t))
        candidate = _predict(t_new, self.hist_t, self.hist_x, k)
        if not np.all(np.isfinite(candidate if rows is None
                                  else candidate[rows])):
            return None, 0
        return candidate, k - 1

    def lte_norms(self, t_new: float, x_new: np.ndarray,
                  x_pred: np.ndarray, order: int, rows=None):
        """Estimated LTE over the node voltages, normalised to the
        ``reltol``/``abstol`` target (``<= 1`` accepts the step): a
        scalar for a solution vector, one norm per row of a stack.

        The predictor difference ``x_new - p(t_new)`` equals
        ``prod(t_new - t_i) * DD_{k}`` with ``DD_k`` the k-th divided
        difference including the new point, which yields the standard
        truncation-error estimates ``dt^3 x'''/12`` (trap,
        ``x''' ~ 6 DD3``) and ``dt^2 x''/2`` (BE, ``x'' ~ 2 DD2``).
        """
        x_last = self.hist_x[-1]
        if rows is not None:
            x_new, x_pred, x_last = x_new[rows], x_pred[rows], x_last[rows]
        n = self.n_nodes
        if n == 0:
            return np.zeros(x_new.shape[:-1])
        hist_t = self.hist_t
        err = np.abs(x_new[..., :n] - x_pred[..., :n])
        dt = t_new - hist_t[-1]
        if order == 2:
            w = (dt * (t_new - hist_t[-2]) * (t_new - hist_t[-3]))
            lte = err * (dt ** 3) / (2.0 * w)
        else:
            w = dt * (t_new - hist_t[-2])
            lte = err * (dt ** 2) / w
        options = self.options
        tol = options.abstol + options.reltol * np.maximum(
            np.abs(x_new[..., :n]), np.abs(x_last[..., :n]))
        return np.max(lte / (options.trtol * tol), axis=-1)

    def can_reject(self, order: int) -> bool:
        """Whether an estimate of ``order`` may reject a step.

        A reduced-order estimate (history still rebuilding after a
        corner; trap stepping but only a linear predictor)
        systematically *overstates* the trap error, so it steers the
        next step size but must not reject -- post-corner steps are
        restarted small, and full-order control resumes one step later.
        """
        return order == self.order

    def at_floor(self, step: float) -> bool:
        """The step is ``dt_min``: an LTE miss is accepted, not retried."""
        return step <= self.dt_min * (1.0 + 1e-9)

    def lte_retry(self, step: float, err_norm: float, order: int) -> float:
        """The smaller step to retry after an LTE rejection."""
        factor = max(_LTE_MIN_SHRINK,
                     min(0.9, _lte_factor(err_norm, order)))
        return max(self.dt_min, step * factor)

    @staticmethod
    def newton_retry(step: float) -> float:
        """The smaller step to retry after a Newton failure."""
        return step / 4.0

    def accept(self, t: float, x: np.ndarray, step: float,
               err_norm: float | None, order: int) -> None:
        """Advance the policy past a step of ``step`` committed at ``t``
        with solution ``x`` (kept, not copied) and LTE estimate
        ``err_norm`` of ``order`` (None: none was available)."""
        points = self.breakpoints
        cursor = self._cursor
        if cursor < len(points) and t >= points[cursor] * (1 - 1e-12):
            # Waveform corner: restart the predictor history so no
            # polynomial spans the derivative discontinuity.  The
            # landing sample itself is excluded too -- it holds the
            # *pre-edge* source values, which would poison the
            # extrapolation of every driven node.  The first step past
            # the corner runs without an LTE check, so it is restarted
            # small relative to the upcoming breakpoint interval; the
            # controller grows it back once the estimator is online.
            self.hist_t = []
            self.hist_x = []
            gap = (points[cursor + 1] if cursor + 1 < len(points)
                   else self.t_stop) - t
            self.dt = max(self.dt_min,
                          min(step, gap * _BREAKPOINT_RESTART_FRACTION))
            return
        self.hist_t.append(t)
        self.hist_x.append(x)
        if len(self.hist_t) > self.order + 1:
            del self.hist_t[0], self.hist_x[0]
        if err_norm is None:
            # No estimate yet (history still rebuilding after t=0 or a
            # waveform corner): hold dt -- blind growth here is what
            # causes spurious rejections once the estimator comes back
            # online.
            factor = 1.0
        else:
            factor = min(_LTE_MAX_GROWTH,
                         max(0.3, _lte_factor(err_norm, order)))
        self.dt = min(self.dt_max, max(self.dt_min, step * factor))


def transient(circuit: Circuit, t_stop: float,
              options: TransientOptions | None = None,
              initial_op: OpResult | None = None,
              max_wall_time: float | None = None,
              scope: "ScopeSession | None" = None) -> TranResult:
    """Integrate ``circuit`` from t = 0 (DC operating point) to ``t_stop``.

    Under an active telemetry trace the whole run is wrapped in a
    ``transient`` span: step-acceptance counters, one ``step-rejected``
    event per shrink (annotated with its cause, ``newton`` or ``lte``),
    and the per-step Newton spans of the inner solver nest underneath.

    ``max_wall_time`` is a convenience override for
    :attr:`TransientOptions.max_wall_time`.

    ``scope`` attaches a :class:`repro.scope.capture.ScopeSession`: the
    session sees every committed sample (t = 0 included) for triggered
    ring-buffer capture.  With ``scope.replace_dense`` set the engine
    skips its own dense full-history record entirely -- the returned
    result then carries the time axis and telemetry but an empty
    ``voltages`` dict, and the session's bounded windows are the only
    waveform storage of the run (O(window), not O(steps)).
    """
    if t_stop <= 0.0:
        raise NetlistError(f"t_stop must be positive, got {t_stop}")
    options = options or TransientOptions()
    if max_wall_time is not None:
        options = replace(options, max_wall_time=max_wall_time)
    if options.method not in ("trap", "be"):
        raise NetlistError(f"unknown method {options.method!r}")
    with telemetry.span("transient", circuit=circuit.name,
                        t_stop=t_stop, method=options.method) as tspan:
        return _transient_run(circuit, t_stop, options, initial_op, tspan,
                              scope)


def _transient_run(circuit: Circuit, t_stop: float,
                   options: TransientOptions,
                   initial_op: OpResult | None, tspan,
                   scope: "ScopeSession | None" = None) -> TranResult:
    control = StepController(circuit, t_stop, options)
    newton_options = control.newton
    deadline = control.deadline

    if initial_op is None:
        initial_op = operating_point(circuit, newton_options)
    if initial_op.x is None:
        raise AnalysisError(
            "initial_op carries no solution vector (x is None): it is a "
            "NaN placeholder from a non-converged sweep point recorded "
            "under on_error='skip'; filter those out (OpResult.converged) "
            "before handing them to transient()")
    compiled = circuit.compile()
    assembler = compiled.prepare()
    x = initial_op.x.copy()

    # Initial charge state; capacitor currents are zero at DC.  The
    # vectorized charge system is used whenever no foreign element
    # subclass overrides charge_terms (then: per-element fallback).
    vectorized = assembler.charges_vectorized
    if vectorized:
        q_prev = assembler.charge_vector(x)
    else:
        q_prev = np.array([term.q for term in compiled.charge_terms(x)])
    i_prev = np.zeros(len(q_prev))

    # Dense recording keeps the full MNA vector of every accepted step
    # and transposes into per-node waveforms once at the end -- a
    # per-name python append loop per step is measurable against the
    # solver hot path.  An attached scope session with replace_dense
    # skips this entirely: the session's bounded windows are then the
    # only waveform storage (the scalar time axis is always kept).
    record_dense = scope is None or not scope.replace_dense
    times = [0.0]
    samples = [x.copy()] if record_dense else []
    if scope is not None:
        scope._bind(compiled.node_index, circuit.name, tspan)
        scope._on_sample(0.0, x)
    # Only voltage-defined elements own an MNA branch current; with
    # record_currents set, exactly the independent VoltageSource
    # branches are recorded (CurrentSource currents are their waveform
    # values and carry no branch unknown).
    recorded_sources = [e for e in circuit.elements
                        if isinstance(e, VoltageSource)]

    step_log = TransientTelemetry()
    # One factorization is carried across iterations *and* accepted
    # steps; keyed on the companion coefficient so any dt change
    # refactorizes.
    lu_state = LuReuseState()
    control.begin(x, len(compiled.node_index))

    def reject(kind: str, t: float, step: float, err_norm=None) -> None:
        step_log.record_rejection(t, kind)
        tspan.inc("transient_steps_rejected")
        tspan.inc(f"transient_{kind}_rejections")
        tspan.event("step-rejected", t=t, dt=step, cause=kind,
                    **({} if err_norm is None else
                       {"err_norm": err_norm}))
        if (options.max_rejections is not None
                and step_log.steps_rejected > options.max_rejections):
            raise ConvergenceError(
                f"transient exhausted its rejection budget of "
                f"{options.max_rejections} at t={t:.3e}s in "
                f"{circuit.name} ({step_log.describe()})",
                diagnostics=step_log, stage="rejection-budget")

    t = 0.0
    # Relative tolerance above float epsilon: accumulated rounding in
    # ``t`` must not leave a ~1e-16*t_stop residue to be "stepped" over
    # (it would pollute the telemetry's smallest committed step).
    while t < t_stop * (1.0 - 1e-12):
        if deadline is not None and _time.perf_counter() >= deadline:
            raise ConvergenceError(
                f"transient exceeded its wall-clock budget of "
                f"{options.max_wall_time:.3g}s at t={t:.3e}s "
                f"({t / t_stop:.0%} of t_stop) in {circuit.name} "
                f"({step_log.describe()})",
                diagnostics=step_log, stage="wall-clock")
        step = control.next_step(t)

        accepted = False
        err_norm: float | None = None
        while not accepted:
            t_new = t + step
            if options.method == "trap":
                c0 = 2.0 / step
                rhs = -c0 * q_prev - i_prev
            else:
                c0 = 1.0 / step
                rhs = -c0 * q_prev

            if vectorized:
                def dynamic_stamp(st: Stamper, xv: np.ndarray) -> None:
                    assembler.stamp_charges(st, xv, c0, rhs)
            else:
                def dynamic_stamp(st: Stamper, xv: np.ndarray) -> None:
                    for k, term in enumerate(compiled.charge_terms(xv)):
                        i_k = c0 * term.q + rhs[k]
                        st.add_f(term.pos, i_k)
                        st.add_f(term.neg, -i_k)
                        for col, dqdv in term.derivs:
                            st.add_j(term.pos, col, c0 * dqdv)
                            st.add_j(term.neg, col, -c0 * dqdv)

            # dt (hence c0) changed => the dynamic stamps changed =>
            # any held factorization is stale.
            lu_state.ensure_key(c0)
            x_pred, pred_order = control.predict(t_new)
            try:
                x_new, iters = _newton(compiled,
                                       x if x_pred is None else x_pred,
                                       t_new, newton_options,
                                       newton_options.gmin,
                                       extra_stamp=dynamic_stamp,
                                       lu_state=lu_state)
                step_log.newton_iterations += iters
            except ConvergenceError:
                if deadline is not None and \
                        _time.perf_counter() >= deadline:
                    # A budget-killed Newton solve must surface as the
                    # wall-clock abort, not grind dt to the dt-min
                    # stall diagnosis.
                    raise ConvergenceError(
                        f"transient exceeded its wall-clock budget of "
                        f"{options.max_wall_time:.3g}s at t={t:.3e}s "
                        f"in {circuit.name} ({step_log.describe()})",
                        diagnostics=step_log, stage="wall-clock")
                reject("newton", t, step)
                step = control.newton_retry(step)
                if step < control.dt_min:
                    raise ConvergenceError(
                        f"transient stalled at t={t:.3e}s in "
                        f"{circuit.name} (dt below {control.dt_min:.1e}; "
                        f"{step_log.describe()})",
                        diagnostics=step_log, stage="dt-min")
                continue

            err_norm = None
            if x_pred is not None:
                err_norm = float(control.lte_norms(t_new, x_new, x_pred,
                                                   pred_order))
                if err_norm > 1.0 and control.can_reject(pred_order):
                    if control.at_floor(step):
                        # The floor wins: accept rather than stall --
                        # but leave a forensic marker.
                        tspan.event("lte-floor", t=t, dt=step,
                                    err_norm=err_norm)
                    else:
                        reject("lte", t, step, err_norm)
                        step = control.lte_retry(step, err_norm,
                                                 pred_order)
                        continue
            accepted = True

        # Commit the step: update charge state.
        if vectorized:
            q_new = assembler.charge_vector(x_new)
        else:
            q_new = np.array([term.q
                              for term in compiled.charge_terms(x_new)])
        i_new = c0 * q_new + rhs
        q_prev, i_prev = q_new, i_new
        x = x_new
        t = t_new
        step_log.steps_accepted += 1
        tspan.inc("transient_steps_accepted")
        step_log.dt_smallest = min(step_log.dt_smallest, step)
        times.append(t)
        # x_new is never mutated in place downstream (_newton copies
        # its start vector), so recording it unaliased needs no copy.
        if record_dense:
            samples.append(x_new)
        if scope is not None:
            scope._on_sample(t, x_new)
        control.accept(t, x, step, err_norm, pred_order)

    tspan.annotate(steps_accepted=step_log.steps_accepted,
                   steps_rejected=step_log.steps_rejected,
                   newton_rejections=step_log.newton_rejections,
                   lte_rejections=step_log.lte_rejections,
                   newton_iterations=step_log.newton_iterations)
    if scope is not None:
        scope._finish()
    if not record_dense:
        return TranResult(time=np.asarray(times), voltages={},
                          branch_currents={}, telemetry=step_log)
    # Transpose the step vectors into ONE (unknowns, steps) store and
    # hand out contiguous row views.  Each step vector is released the
    # moment it is copied, so peak waveform memory is ~2x the final
    # footprint (the old per-node ascontiguousarray materialisation
    # held samples + a stacked trace + the growing copies: ~3x).
    n_samples = len(samples)
    store = np.empty((samples[0].size, n_samples))
    for k in range(n_samples):
        store[:, k] = samples[k]
        samples[k] = None
    return TranResult(
        time=np.asarray(times),
        voltages={name: store[idx]
                  for name, idx in compiled.node_index.items()},
        branch_currents=(
            {e.name: store[compiled.aux_index[e.name][0]]
             for e in recorded_sources}
            if options.record_currents else {}),
        telemetry=step_log)
