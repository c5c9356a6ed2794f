"""Pluggable DC solve strategies, the homotopy ladder, and diagnostics.

The nonlinear DC solve is organised as a *ladder* of
:class:`SolveStrategy` objects tried in order until one converges:

1. :class:`NewtonStrategy` -- plain damped Newton from the initial guess;
2. :class:`GminSteppingStrategy` -- solve with a heavy shunt conductance
   on every node, then relax it geometrically (continuation in gmin);
3. :class:`SourceSteppingStrategy` -- ramp every independent source up
   from a fraction of its value (continuation in the excitation);
4. :class:`PseudoTransientStrategy` -- anchor each solve to the previous
   iterate through a decaying conductance, mimicking the damping of a
   transient run settling to DC (continuation in pseudo-time).

Every rung, successful or not, is recorded in a
:class:`SolverDiagnostics` carried by the returned
:class:`~repro.spice.results.OpResult` -- and by the raised
:class:`~repro.errors.ConvergenceError` when the whole ladder fails --
so a non-converging Monte-Carlo seed or sweep point can be diagnosed
from its forensic record instead of re-run under a debugger.

Continuation stages commonly need a different per-solve iteration
budget than plain Newton (SPICE's ITL1 vs ITL6 distinction); each
strategy therefore takes an optional ``max_iterations`` override.
"""

from __future__ import annotations

import abc
import os
import time as _time
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError
from .elements import CurrentSource, Stamper, VoltageSource
from .sparse import SparseStamper
from .waveforms import dc_wave

try:  # pragma: no cover - scipy is a declared dependency
    # Raw LAPACK bindings: same getrf/getrs pair scipy.linalg's
    # lu_factor/lu_solve wrap, minus the per-call asarray/check_finite
    # wrapper overhead -- which is comparable to the factorization
    # itself at MNA sizes.  The (lu, piv) handle this module stores is
    # LAPACK-native (1-based pivots) and is only ever fed back to
    # _getrs here.
    from scipy.linalg.lapack import dgetrf as _getrf
    from scipy.linalg.lapack import dgetrs as _getrs
except ImportError:  # pragma: no cover - degraded environment
    _getrf = _getrs = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import Circuit, CompiledCircuit


@dataclass(frozen=True)
class NewtonOptions:
    """Tuning knobs of the Newton solver.

    Attributes:
        max_iterations: Iteration cap per solve.
        vntol: Absolute node-voltage update tolerance [V].
        reltol: Relative update tolerance.
        max_step: Maximum voltage change applied per iteration [V].
        gmin: Conductance from every node to ground [S]; small enough not
            to disturb pA-level circuits.
        stall_window: Bail out of a Newton solve early when the damped
            update norm fails to at least halve across a window of this
            many iterations.  A converging solve shrinks its updates
            far faster; a *stalled* rung (the classic failure mode on
            exponential circuits: updates creeping by fractions of a
            percent per iteration, never meeting tolerance) would waste
            its whole iteration budget before the next homotopy rung --
            which converges such cases quickly -- gets a turn.  0
            disables the detector.
        lu_reuse: Hold one LU factorization of the Jacobian across
            Newton iterations (chord / modified Newton) -- and, when
            the caller supplies a :class:`LuReuseState`, across
            transient time steps -- refactoring only when the
            convergence-rate monitor trips.  The residual is always
            assembled exactly, so the converged solution is the same
            fixed point; only the iteration trajectory differs.
        lu_contraction: Contraction the monitor demands of a
            reused-factorization step: the damped update norm must
            shrink below ``lu_contraction`` times the previous
            iteration's, otherwise the step is discarded and redone
            with a fresh factorization of the current Jacobian.  The
            default is deliberately strict: residual assembly costs
            several times a factorization on MNA systems of this size,
            so a chord that merely *converges* (say 10x per iteration)
            still loses wall time to the extra assembled iterations
            its linear tail needs -- reuse must be nearly free (close
            to the quadratic trajectory) to pay.
        max_wall_time: Wall-clock budget [s] for one whole ladder solve
            (every rung included).  When exhausted, the solve aborts
            with a :class:`~repro.errors.ConvergenceError` carrying the
            usual :class:`SolverDiagnostics` and ``stage="wall-clock"``
            -- so a pathological circuit (a fuzz case, a bad production
            job) can never hang a worker.  None: unlimited.
        deadline: Absolute ``time.perf_counter()`` cutoff, set
            *internally* by :func:`run_ladder` / the transient engine
            from ``max_wall_time``; leave None.  The Newton kernel
            checks it every iteration.
    """

    max_iterations: int = 200
    vntol: float = 1.0e-7
    reltol: float = 1.0e-4
    max_step: float = 0.3
    gmin: float = 1.0e-15
    stall_window: int = 25
    lu_reuse: bool = True
    lu_contraction: float = 0.04
    max_wall_time: float | None = None
    deadline: float | None = None


def step_converged(step_norm, v_max, options: NewtonOptions):
    """The Newton update-norm convergence criterion.

    Shared between the serial kernel and the batched ensemble solver
    (:mod:`repro.spice.batch`) so both paths accept a solution under
    exactly the same rule; works elementwise on per-lane arrays.
    """
    return step_norm < options.vntol * (1.0 + options.reltol * v_max)


class LuReuseState:
    """Cached LU factorization shared across Newton solves.

    The transient engine owns one instance per run and threads it
    through every per-step solve, so a factorization survives across
    accepted time steps while the companion-model coefficient is
    unchanged.  :meth:`ensure_key` invalidates the cache whenever that
    coefficient (or anything else baked into the Jacobian from outside
    the kernel, keyed by the caller) changes -- e.g. on every dt
    change.  DC solves that do not pass a state get a fresh private one
    per :func:`newton_solve` call, limiting reuse to iterations of one
    solve.

    The cached handle may be a SuperLU object (sparse backend) --
    C-level state that is neither picklable nor valid across a
    ``fork``.  The state therefore **degrades instead of travelling**:
    pickling one (``__reduce__``) ships a fresh empty state, and every
    live instance is invalidated in forked children via an
    ``os.register_at_fork`` hook over a weak registry, so a worker
    process can never back-substitute against factors whose underlying
    C memory belongs to the parent.  Losing the cache merely costs one
    refactorization; using a stale one would be memory-unsafe.
    """

    __slots__ = ("lu", "key", "__weakref__")

    def __init__(self) -> None:
        self.lu = None
        self.key = None
        _live_lu_states.add(self)

    def invalidate(self) -> None:
        self.lu = None

    def ensure_key(self, key) -> None:
        """Invalidate the cache when ``key`` differs from the last one."""
        if key != self.key:
            self.key = key
            self.lu = None

    def __reduce__(self):
        # Never pickle the handle: SuperLU objects cannot be serialized,
        # and dense (lu, piv) factors are stale bulk data the receiving
        # process would have to distrust anyway.  A round-tripped state
        # is simply empty.
        return (LuReuseState, ())


#: Weak registry of every live state, so the fork hook can invalidate
#: them all without keeping any alive.
_live_lu_states: "weakref.WeakSet[LuReuseState]" = weakref.WeakSet()


def _invalidate_lu_states_after_fork() -> None:  # pragma: no cover
    for state in list(_live_lu_states):
        state.lu = None
        state.key = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_invalidate_lu_states_after_fork)


def _factorize(jac: np.ndarray):
    """LU-factor ``jac``; None when it is singular or non-finite (the
    caller then falls back to least squares, matching the behavior of
    the plain ``np.linalg.solve`` path)."""
    lu, piv, info = _getrf(jac)
    # info > 0 flags an exactly zero pivot; NaN/Inf inputs propagate
    # into the factors, caught by the isfinite sweep.
    if info != 0 or not np.all(np.isfinite(lu)):
        return None
    return lu, piv


def _lu_apply(handle, rhs: np.ndarray) -> np.ndarray:
    """Back-substitute a factorization handle against ``rhs``.

    Dispatches on the handle type: a ``(lu, piv)`` tuple comes from the
    dense :func:`_factorize`, anything else is a SuperLU handle from
    :meth:`~repro.spice.sparse.SparseSystem.factorize` -- which is what lets
    one :class:`LuReuseState` serve both backends unchanged.
    """
    if not isinstance(handle, tuple):
        return handle.solve(rhs)
    dx, info = _getrs(handle[0], handle[1], rhs)
    if info != 0:  # pragma: no cover - getrs only rejects bad args
        raise ConvergenceError(f"LAPACK getrs failed (info={info})")
    return dx


def _damping(dx: np.ndarray, n_nodes: int,
             options: NewtonOptions) -> tuple[float, float]:
    """(largest node-voltage update, damping scale) for a raw step.
    Branch-current rows follow freely, exactly as in classic SPICE."""
    v_updates = np.abs(dx[:n_nodes]) if n_nodes else np.array([0.0])
    biggest = float(v_updates.max()) if v_updates.size else 0.0
    scale = 1.0 if biggest <= options.max_step else options.max_step / biggest
    return biggest, scale


def _lstsq_step(jac: np.ndarray, rhs: np.ndarray,
                compiled: "CompiledCircuit", iteration: int) -> np.ndarray:
    """Least-squares fallback for a singular Jacobian."""
    try:
        dx, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
    except np.linalg.LinAlgError as error:
        raise ConvergenceError(
            f"singular, non-recoverable Jacobian in "
            f"{compiled.circuit.name} ({error})", iterations=iteration)
    return dx


def newton_solve(compiled: "CompiledCircuit", x0: np.ndarray,
                 time: float | None, options: NewtonOptions, gmin: float,
                 extra_stamp=None,
                 trace: list[float] | None = None,
                 lu_state: LuReuseState | None = None,
                 ) -> tuple[np.ndarray, int]:
    """Run damped (modified) Newton from ``x0``; return (solution, iters).

    ``trace``, when given, accumulates the max-abs residual of every
    iteration -- the trajectory the diagnostics record keeps.
    ``lu_state`` carries a Jacobian factorization across calls (the
    transient engine's cross-step chord iteration); without it, LU
    reuse -- when enabled by ``options.lu_reuse`` -- is scoped to the
    iterations of this one solve.  Under an active telemetry trace each
    solve opens a ``newton`` span carrying one ``newton-iter`` event
    per iteration (residual, update norm, damping, stall-detector
    state) plus the ``jacobian_factorizations`` / ``lu_refactorizations``
    / ``lu_reuses`` counters; disabled tracing takes a
    single-flag-check fast path.
    """
    if not telemetry.is_enabled():
        return _newton_kernel(compiled, x0, time, options, gmin,
                              extra_stamp, trace, None, lu_state)
    with telemetry.span("newton", gmin=gmin) as tspan:
        try:
            x, iterations = _newton_kernel(compiled, x0, time, options,
                                           gmin, extra_stamp, trace,
                                           tspan, lu_state)
        except ConvergenceError as error:
            tspan.annotate(converged=False, detail=str(error))
            raise
        tspan.annotate(converged=True, iterations=iterations)
        return x, iterations


def _newton_kernel(compiled: "CompiledCircuit", x0: np.ndarray,
                   time: float | None, options: NewtonOptions, gmin: float,
                   extra_stamp, trace: list[float] | None,
                   tspan, lu_state: LuReuseState | None = None,
                   ) -> tuple[np.ndarray, int]:
    st = compiled.new_stamper()
    sparse_mode = isinstance(st, SparseStamper)
    x = x0.copy()
    n_nodes = len(compiled.node_index)
    stall_checkpoint = np.inf
    stall_residual = np.inf
    reusing = options.lu_reuse and (sparse_mode or _getrf is not None)
    state = (lu_state if lu_state is not None else LuReuseState()) \
        if reusing else None
    prev_norm = np.inf
    observing = trace is not None or tspan is not None
    deadline = options.deadline
    for iteration in range(1, options.max_iterations + 1):
        if deadline is not None and _time.perf_counter() >= deadline:
            raise ConvergenceError(
                f"wall-clock budget exhausted after {iteration - 1} "
                f"Newton iterations in {compiled.circuit.name}",
                iterations=iteration - 1, stage="wall-clock")
        compiled.stamp_all(st, x, time)
        if extra_stamp is not None:
            extra_stamp(st, x)
        if gmin > 0.0:
            st.add_diagonal(gmin, n_nodes)
            st.res[:n_nodes] += gmin * x[:n_nodes]
        # Only observers and the stall detector's window boundaries
        # read the residual norm; skip it on plain hot-path iterations.
        residual = None
        if observing or iteration == 1 or (
                options.stall_window > 0
                and iteration % options.stall_window == 0):
            residual = float(np.abs(st.res).max())
        if trace is not None:
            trace.append(residual)
        # Linear step.  With a cached factorization, try the chord step
        # first; keep it only while it contracts the damped update norm
        # by the configured ratio (the residual is exact either way, so
        # the converged fixed point is unchanged).  Otherwise -- and on
        # the non-reuse path -- factorize the current Jacobian.
        dx = None
        reused = False
        biggest = scale = 0.0
        if state is not None and state.lu is not None:
            candidate = _lu_apply(state.lu, -st.res)
            if np.all(np.isfinite(candidate)):
                biggest, scale = _damping(candidate, n_nodes, options)
                if biggest * scale <= options.lu_contraction * prev_norm:
                    dx, reused = candidate, True
        if dx is None:
            if sparse_mode:
                # The CSC data only materialises on factorizing
                # iterations -- chord steps above never need it.
                handle = st.factorize()
                if state is not None:
                    state.lu = handle
                if handle is not None:
                    dx = _lu_apply(handle, -st.res)
                else:
                    dx = _lstsq_step(st.matrix().toarray(), -st.res,
                                     compiled, iteration)
            elif state is not None:
                state.lu = _factorize(st.jac)
                if state.lu is not None:
                    dx = _lu_apply(state.lu, -st.res)
                else:
                    dx = _lstsq_step(st.jac, -st.res, compiled, iteration)
            else:
                try:
                    dx = np.linalg.solve(st.jac, -st.res)
                except np.linalg.LinAlgError:
                    dx = _lstsq_step(st.jac, -st.res, compiled, iteration)
            if not np.all(np.isfinite(dx)):
                raise ConvergenceError(
                    f"non-finite Newton update in {compiled.circuit.name}",
                    iterations=iteration)
            biggest, scale = _damping(dx, n_nodes, options)
        if tspan is not None:
            if reused:
                tspan.inc("lu_reuses")
            else:
                tspan.inc("jacobian_factorizations")
                if sparse_mode:
                    tspan.inc("sparse_factorizations")
                if state is not None:
                    tspan.inc("lu_refactorizations")
        x += scale * dx
        prev_norm = biggest * scale
        if iteration == 1:
            # Seed the stall detector with the opening update norm and
            # residual so the first window is already armed: a solve
            # where *neither* has halved by iteration ``stall_window``
            # is the limit-cycle failure mode, and waiting a second
            # full window just delays the homotopy rung that will
            # actually converge it.  A solve whose updates are pinned
            # at the damping cap while the residual keeps falling is
            # healthy (pseudo-transient continuation does exactly
            # this), which is why the residual check is part of the
            # trip condition.
            stall_checkpoint = prev_norm
            stall_residual = residual
        if tspan is not None:
            tspan.event("newton-iter", i=iteration, residual=residual,
                        update_norm=biggest * scale, damping=scale,
                        lu_reused=reused,
                        stall_checkpoint=(
                            None if stall_checkpoint == np.inf
                            else stall_checkpoint))
        converged = step_converged(
            biggest * scale,
            float(np.abs(x[:n_nodes]).max() if n_nodes else 0.0),
            options)
        if converged and scale == 1.0:
            if reused:
                # Never declare victory on a stale Jacobian: drop the
                # cached factorization so the next iteration takes a
                # fresh full-Newton step and re-checks.  This pins the
                # accepted solution to full-Newton accuracy (the final
                # step is always a true Newton step) at the cost of at
                # most one extra factorization per solve.
                state.invalidate()
            else:
                return x, iteration
        if options.stall_window > 0 and \
                iteration % options.stall_window == 0:
            step_norm = biggest * scale
            if step_norm > 0.5 * stall_checkpoint and \
                    residual > 0.5 * stall_residual:
                if tspan is not None:
                    tspan.event("stall", iteration=iteration,
                                update_norm=step_norm,
                                window=options.stall_window)
                raise ConvergenceError(
                    f"Newton stalled after {iteration} iterations in "
                    f"{compiled.circuit.name} (neither the update norm "
                    f"{step_norm:.3e} nor the residual {residual:.3e} "
                    f"halved over the last "
                    f"{options.stall_window} iterations)",
                    iterations=iteration, residual=residual)
            stall_checkpoint = step_norm
            stall_residual = residual
    raise ConvergenceError(
        f"Newton failed after {options.max_iterations} iterations "
        f"in {compiled.circuit.name}",
        iterations=options.max_iterations,
        residual=float(np.abs(st.res).max()))


# -- diagnostics ---------------------------------------------------------


@dataclass(frozen=True)
class StageReport:
    """Forensic record of one ladder rung.

    Attributes:
        strategy: Strategy name (e.g. ``"gmin-stepping"``).
        converged: Whether this rung produced the solution.
        iterations: Newton iterations spent inside the rung.
        wall_time: Seconds spent inside the rung.
        residuals: Max-abs residual per Newton iteration (the
            trajectory; truncated to the last
            :data:`RESIDUAL_TRACE_LIMIT` entries).
        detail: Failure message when the rung did not converge.
    """

    strategy: str
    converged: bool
    iterations: int
    wall_time: float
    residuals: tuple[float, ...] = ()
    detail: str = ""


#: Longest residual trajectory kept per stage (memory bound for sweeps).
RESIDUAL_TRACE_LIMIT = 256


@dataclass
class SolverDiagnostics:
    """What the homotopy ladder did for one operating-point solve.

    Attributes:
        circuit: Circuit name.
        stages: One :class:`StageReport` per rung attempted, in order.
        rescued_by: Name of the converging strategy (None: total failure).
        total_iterations: Newton iterations summed over every rung.
        wall_time: Seconds spent in the ladder.
    """

    circuit: str
    stages: list[StageReport] = field(default_factory=list)
    rescued_by: str | None = None
    total_iterations: int = 0
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.rescued_by is not None

    @property
    def rescue_needed(self) -> bool:
        """True when plain Newton was not enough."""
        return self.converged and len(self.stages) > 1

    def stage(self, name: str) -> StageReport:
        """The report of strategy ``name`` (last attempt wins)."""
        for report in reversed(self.stages):
            if report.strategy == name:
                return report
        raise KeyError(f"no stage {name!r} in diagnostics")

    def describe(self) -> str:
        """Multi-line human-readable account of the solve."""
        lines = [f"DC solve of {self.circuit!r}: "
                 + (f"converged via {self.rescued_by} "
                    if self.converged else "FAILED every strategy ")
                 + f"({self.total_iterations} Newton iterations, "
                   f"{self.wall_time * 1e3:.1f} ms)"]
        for report in self.stages:
            status = "ok" if report.converged else "failed"
            line = (f"  {report.strategy:17s} {status:6s} "
                    f"{report.iterations:5d} iters "
                    f"{report.wall_time * 1e3:8.2f} ms")
            if report.residuals:
                line += f"  residual {report.residuals[-1]:.3e}"
            if report.detail and not report.converged:
                line += f"  ({report.detail})"
            lines.append(line)
        return "\n".join(lines)


# -- strategies ----------------------------------------------------------


class SolveStrategy(abc.ABC):
    """One rung of the DC homotopy ladder."""

    #: Stable identifier used in diagnostics (subclasses override).
    name = "strategy"

    def __init__(self, max_iterations: int | None = None) -> None:
        #: Per-Newton-solve iteration override for this rung (None
        #: inherits ``NewtonOptions.max_iterations``).
        self.max_iterations = max_iterations

    def _options(self, options: NewtonOptions) -> NewtonOptions:
        if self.max_iterations is None:
            return options
        return replace(options, max_iterations=self.max_iterations)

    @abc.abstractmethod
    def solve(self, circuit: "Circuit", compiled: "CompiledCircuit",
              x0: np.ndarray, time: float | None, options: NewtonOptions,
              trace: list[float]) -> tuple[np.ndarray, int]:
        """Return (solution, total iterations) or raise ConvergenceError.

        ``trace`` accumulates the residual trajectory for diagnostics.
        """


class NewtonStrategy(SolveStrategy):
    """Plain damped Newton from the supplied initial guess."""

    name = "newton"

    def solve(self, circuit, compiled, x0, time, options, trace):
        options = self._options(options)
        return newton_solve(compiled, x0, time, options, options.gmin,
                            trace=trace)


class GminSteppingStrategy(SolveStrategy):
    """Continuation in the shunt conductance.

    Solves with ``gmin = 10^-start_exponent`` (a nearly linear system),
    then relaxes the shunt one decade at a time down to
    ``10^-stop_exponent``, warm-starting each stage from the previous
    one, and finishes with a plain solve at the true ``options.gmin``.
    """

    name = "gmin-stepping"

    def __init__(self, start_exponent: int = 3, stop_exponent: int = 15,
                 max_iterations: int | None = None) -> None:
        super().__init__(max_iterations)
        if stop_exponent <= start_exponent:
            raise ValueError("stop_exponent must exceed start_exponent")
        self.start_exponent = start_exponent
        self.stop_exponent = stop_exponent

    def solve(self, circuit, compiled, x0, time, options, trace):
        options = self._options(options)
        schedule = telemetry.current_span()
        x = x0.copy()
        total = 0
        for exponent in range(self.start_exponent, self.stop_exponent + 1):
            gmin = 10.0 ** (-exponent)
            x, iters = newton_solve(compiled, x, time, options,
                                    max(gmin, options.gmin), trace=trace)
            total += iters
            schedule.event("gmin-step", gmin=gmin, iterations=iters)
        x, iters = newton_solve(compiled, x, time, options, options.gmin,
                                trace=trace)
        return x, total + iters


class SourceSteppingStrategy(SolveStrategy):
    """Continuation in the independent-source excitation.

    Every independent source is ramped from ``start_fraction`` of its
    value to 100 % in ``steps`` increments; each increment warm-starts
    from the previous solution, so no single Newton solve faces the full
    excitation from a cold guess.
    """

    name = "source-stepping"

    def __init__(self, steps: int = 10, start_fraction: float = 0.1,
                 max_iterations: int | None = None) -> None:
        super().__init__(max_iterations)
        if steps < 2:
            raise ValueError(f"need at least 2 ramp steps, got {steps}")
        if not 0.0 < start_fraction < 1.0:
            raise ValueError(
                f"start_fraction must be in (0, 1): {start_fraction}")
        self.steps = steps
        self.start_fraction = start_fraction

    def solve(self, circuit, compiled, x0, time, options, trace):
        options = self._options(options)
        sources = [e for e in circuit.elements
                   if isinstance(e, (VoltageSource, CurrentSource))]
        saved = [source.waveform for source in sources]
        schedule = telemetry.current_span()
        try:
            x = np.zeros_like(x0)
            total = 0
            for fraction in np.linspace(self.start_fraction, 1.0,
                                        self.steps):
                for source, waveform in zip(sources, saved):
                    value = waveform(0.0 if time is None else time)
                    source.waveform = dc_wave(value * float(fraction))
                x, iters = newton_solve(compiled, x, None, options,
                                        max(1e-12, options.gmin),
                                        trace=trace)
                total += iters
                schedule.event("source-step", fraction=float(fraction),
                               iterations=iters)
            for source, waveform in zip(sources, saved):
                source.waveform = waveform
            x, iters = newton_solve(compiled, x, time, options,
                                    options.gmin, trace=trace)
            return x, total + iters
        finally:
            for source, waveform in zip(sources, saved):
                source.waveform = waveform


class PseudoTransientStrategy(SolveStrategy):
    """Pseudo-transient continuation (the final fallback).

    Each outer step solves the circuit with an extra conductance ``g``
    from every node to its *previous* voltage -- the resistive analogue
    of a capacitor to the old state, i.e. one implicit-Euler step of a
    fictitious transient.  ``g`` starts heavy (small pseudo-timestep,
    strongly damped) and decays by ``shrink`` per accepted step until it
    reaches ``options.gmin``, after which a plain Newton solve polishes
    the answer.  Unlike gmin stepping the anchor carries no bias toward
    ground, so it also tames circuits whose solution sits far from zero.
    """

    name = "pseudo-transient"

    def __init__(self, g_start: float = 1.0e-3, shrink: float = 10.0,
                 max_iterations: int | None = None) -> None:
        super().__init__(max_iterations)
        if g_start <= 0.0:
            raise ValueError(f"g_start must be positive: {g_start}")
        if shrink <= 1.0:
            raise ValueError(f"shrink must exceed 1: {shrink}")
        self.g_start = g_start
        self.shrink = shrink

    def solve(self, circuit, compiled, x0, time, options, trace):
        options = self._options(options)
        n_nodes = len(compiled.node_index)
        schedule = telemetry.current_span()
        x = x0.copy()
        total = 0
        g = self.g_start
        while g > options.gmin:
            x_prev = x.copy()

            def anchor(st, xv: np.ndarray,
                       g=g, x_prev=x_prev) -> None:
                st.add_diagonal(g, n_nodes)
                st.res[:n_nodes] += g * (xv[:n_nodes] - x_prev[:n_nodes])

            x, iters = newton_solve(compiled, x, time, options,
                                    options.gmin, extra_stamp=anchor,
                                    trace=trace)
            total += iters
            schedule.event("pseudo-transient-step", g=g, iterations=iters)
            g /= self.shrink
        x, iters = newton_solve(compiled, x, time, options, options.gmin,
                                trace=trace)
        return x, total + iters


#: The ladder ``operating_point`` climbs by default.
DEFAULT_LADDER: tuple[SolveStrategy, ...] = (
    NewtonStrategy(),
    GminSteppingStrategy(),
    SourceSteppingStrategy(),
    PseudoTransientStrategy(),
)


def run_ladder(circuit: "Circuit", compiled: "CompiledCircuit",
               x0: np.ndarray, time: float | None, options: NewtonOptions,
               strategies=None) -> tuple[np.ndarray, SolverDiagnostics]:
    """Try each strategy in order; return solution plus diagnostics.

    Raises :class:`~repro.errors.ConvergenceError` -- with the full
    :class:`SolverDiagnostics` attached as ``.diagnostics`` -- when
    every rung fails.
    """
    strategies = DEFAULT_LADDER if strategies is None else tuple(strategies)
    if not strategies:
        raise ValueError("empty strategy ladder")
    # One value-sync per solve: picks up element mutations (aged
    # resistors, swapped devices) without paying per-iteration checks.
    compiled.prepare()
    diagnostics = SolverDiagnostics(circuit=circuit.name)
    ladder = telemetry.current_span()
    ladder_start = _time.perf_counter()
    if options.max_wall_time is not None and options.deadline is None:
        # One absolute deadline covers the whole ladder; the Newton
        # kernel enforces it every iteration, and the rung loop below
        # stops climbing once it has passed.
        options = replace(options,
                          deadline=ladder_start + options.max_wall_time)
    deadline_hit = False
    for strategy in strategies:
        trace: list[float] = []
        stage_start = _time.perf_counter()
        error: ConvergenceError | None = None
        with telemetry.span(f"strategy:{strategy.name}",
                            strategy=strategy.name) as sspan:
            try:
                x, iterations = strategy.solve(circuit, compiled, x0,
                                               time, options, trace)
            except ConvergenceError as exc:
                error = exc
                sspan.annotate(converged=False, iterations=len(trace),
                               detail=str(exc))
            else:
                sspan.annotate(converged=True, iterations=iterations)
        if error is not None:
            ladder.event("ladder-rung", strategy=strategy.name,
                         converged=False, iterations=len(trace),
                         why=str(error))
            diagnostics.stages.append(StageReport(
                strategy=strategy.name, converged=False,
                iterations=len(trace),
                wall_time=_time.perf_counter() - stage_start,
                residuals=tuple(trace[-RESIDUAL_TRACE_LIMIT:]),
                detail=str(error)))
            diagnostics.total_iterations += len(trace)
            if options.deadline is not None and \
                    _time.perf_counter() >= options.deadline:
                deadline_hit = True
                ladder.event("ladder-deadline", strategy=strategy.name,
                             budget=options.max_wall_time)
                break
            continue
        ladder.event("ladder-rung", strategy=strategy.name,
                     converged=True, iterations=iterations,
                     why="converged")
        diagnostics.stages.append(StageReport(
            strategy=strategy.name, converged=True, iterations=iterations,
            wall_time=_time.perf_counter() - stage_start,
            residuals=tuple(trace[-RESIDUAL_TRACE_LIMIT:])))
        diagnostics.total_iterations += iterations
        diagnostics.rescued_by = strategy.name
        diagnostics.wall_time = _time.perf_counter() - ladder_start
        return x, diagnostics
    diagnostics.wall_time = _time.perf_counter() - ladder_start
    last = diagnostics.stages[-1]
    if deadline_hit:
        budget = (f"{options.max_wall_time:.3g}s"
                  if options.max_wall_time is not None else "deadline")
        raise ConvergenceError(
            f"wall-clock budget of {budget} "
            f"exhausted for {circuit.name!r} after "
            f"{', '.join(s.strategy for s in diagnostics.stages)} "
            f"({diagnostics.wall_time:.3g}s spent)",
            iterations=diagnostics.total_iterations,
            residual=last.residuals[-1] if last.residuals else None,
            diagnostics=diagnostics, stage="wall-clock")
    raise ConvergenceError(
        f"every solve strategy failed for {circuit.name!r} "
        f"(tried {', '.join(s.strategy for s in diagnostics.stages)})",
        iterations=diagnostics.total_iterations,
        residual=last.residuals[-1] if last.residuals else None,
        diagnostics=diagnostics, stage=last.strategy)
