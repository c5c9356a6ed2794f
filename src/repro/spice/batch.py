"""Batched ensemble Newton: many independent DC points as one tensor.

Monte-Carlo populations, bias sweeps and parameter-perturbation fault
campaigns all solve the *same* circuit topology at many independent
points -- only per-device parameters (a mismatch draw), a source value
(a sweep point) or a single element value (a fault) differ.  The serial
path pays one full Python Newton loop per point; this module solves the
whole population as one stacked system instead:

* a :class:`LaneSpec` describes one population member ("lane") as a
  perturbation of the base circuit -- per-device VT/beta deltas, scaled
  resistors, overridden source values -- without mutating anything;
* :class:`BatchAssembler` extends the compile-once
  :class:`~repro.spice.assembly.CircuitAssembler` with a ``(B, N)``
  assembly path: the MOS/diode banks are evaluated over ``(B,
  n_devices)`` voltage arrays in one numpy call and scattered into a
  ``(B, N, N)`` stacked Jacobian;
* :func:`batch_newton` runs damped Newton on all lanes at once -- one
  ``np.linalg.solve`` on the stacked Jacobian per iteration (LAPACK's
  batched path) -- with per-lane damping, convergence and stall
  detection.  Converged lanes freeze and leave the active set, so the
  work per iteration shrinks as the population converges;
* :func:`batch_operating_point` orchestrates the whole solve and
  re-runs every lane the batched loop could not converge *individually*
  through the existing strategy ladder
  (:func:`~repro.spice.strategies.run_ladder`), from the same initial
  guess a serial solve would use -- robustness is never worse than
  serial, and failed lanes carry the identical forensic
  :class:`~repro.spice.strategies.SolverDiagnostics`.

The per-lane Newton math mirrors the serial kernel exactly (same
damping rule, same update-norm convergence criterion via
:func:`~repro.spice.strategies.step_converged`, same stall window), so
a lane's trajectory matches its serial solve to LAPACK rounding --
population summaries agree with the serial backend far inside 1e-9
relative tolerance.

Circuits that resolve to the sparse backend
(:meth:`~repro.spice.netlist.CompiledCircuit.solver_backend`) swap the
dense ``(B, N, N)`` tensor for a shared-pattern sparse path: every lane
of an ensemble has the *same* sparsity structure, so the symbolic work
(triplet dedup, CSC ``indices``/``indptr``, the structure COLAMD orders
on) is computed **once** per campaign and each Newton iteration only
refactors per-active-lane numeric data rows ``(B, nnz)`` over it --
with the serial kernel's chord/LU-reuse discipline applied per lane
(reused SuperLU handles under the ``lu_contraction`` monitor, fresh
full-Newton step required before convergence is accepted).  That is
what makes thousand-unknown mismatch campaigns (the 32-bit adder, the
transistor-level ADC slices) feasible as ensembles instead of
one-lane-at-a-time serial solves.

:class:`BatchedOpMetric` and :class:`BatchedOpSweep` package the
pattern for the analysis layer: one spec object is both a plain
callable (the serial path: build, perturb, solve, measure) and the
vectorizable description the batched backends of
:class:`~repro.analysis.montecarlo.MonteCarlo`,
:func:`~repro.analysis.sweep.sweep_1d` and
:class:`~repro.faults.campaign.FaultCampaign` consume.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..errors import AnalysisError, ConvergenceError, NetlistError
from .elements import CurrentSource, Resistor, VoltageSource
from .sparse import SparseSystem, coo_to_csr, sparse_available
from .strategies import (DEFAULT_LADDER, GminSteppingStrategy,
                         NewtonOptions, SolverDiagnostics, StageReport,
                         run_ladder, step_converged)
from .assembly import CircuitAssembler
from .results import TranResult
from .transient import (TransientOptions, TransientTelemetry,
                        _BREAKPOINT_RESTART_FRACTION, _LTE_MAX_GROWTH,
                        _LTE_MIN_SHRINK, _breakpoints, _lte_factor,
                        _lte_norms_batch, _predict, transient)
from .waveforms import dc_wave

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import Circuit, CompiledCircuit
    from .results import OpResult

#: Stage name recorded in :class:`SolverDiagnostics` for lanes the
#: batched loop converged (and, as a failed first stage, for lanes it
#: handed to the serial fallback ladder).
BATCHED_STAGE = "batched-newton"

#: Stage name of the batched gmin-stepping continuation phase.
BATCHED_GMIN_STAGE = "batched-gmin-stepping"


@dataclass(frozen=True, eq=False)
class LaneSpec:
    """One population member, described as a perturbation of the base
    circuit.

    All fields are optional; an empty ``LaneSpec()`` is the unperturbed
    base circuit (used e.g. as the baseline lane of a batched fault
    campaign).

    Attributes:
        vt_delta: Additive VT shift per MOS element [V], in
            ``circuit.mos_elements()`` order (length ``n_mos``).
        beta_scale: Multiplicative current-factor error per MOS element,
            same order/length.
        resistor_scale: ``(name, factor)`` pairs scaling named
            resistors.
        source_values: ``(name, value)`` pairs overriding the DC value
            of named independent sources.
        label: Free-form tag for diagnostics (seed, sweep value, fault
            name).
    """

    vt_delta: np.ndarray | None = None
    beta_scale: np.ndarray | None = None
    resistor_scale: tuple[tuple[str, float], ...] = ()
    source_values: tuple[tuple[str, float], ...] = ()
    label: str = ""

    @classmethod
    def mismatch(cls, vt_delta, beta_scale=None,
                 label: str = "") -> "LaneSpec":
        """Lane from per-device mismatch arrays (bank order)."""
        return cls(vt_delta=np.asarray(vt_delta, dtype=float),
                   beta_scale=(None if beta_scale is None
                               else np.asarray(beta_scale, dtype=float)),
                   label=label)

    @classmethod
    def source(cls, name: str, value: float,
               label: str = "") -> "LaneSpec":
        """Lane overriding one independent source's DC value."""
        return cls(source_values=((name, float(value)),), label=label)


def _expand_bank_arrays(lane: LaneSpec, n_top: int, n_bank: int,
                        circuit_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a lane's mismatch arrays to full-bank ``(n_bank,)``
    shape: top-level-length arrays land on the bank's head (top-level
    elements lead the bank), full-bank arrays pass through, anything
    else is a spec error."""
    vt = np.zeros(n_bank)
    beta = np.ones(n_bank)
    for label, arr, out in (("vt_delta", lane.vt_delta, vt),
                            ("beta_scale", lane.beta_scale, beta)):
        if arr is None:
            continue
        arr = np.asarray(arr, dtype=float)
        if arr.size == n_bank:
            out[:] = arr
        elif arr.size == n_top:
            out[:n_top] = arr
        else:
            raise AnalysisError(
                f"lane {lane.label!r}: {label} has {arr.size} entries "
                f"for {n_top} top-level / {n_bank} total MOS devices "
                f"of {circuit_name!r} (bank order)")
    return vt, beta


def _overlay_bank_lane(circuit: "Circuit", lane: LaneSpec,
                       n_top: int) -> Callable[[], None]:
    """Realize a full-bank mismatch lane on the compiled assembler's
    device bank; returns the undo restoring the original bank."""
    compiled = circuit.compile()
    asm = compiled.assembler
    asm.sync()
    bank = asm._mos_bank
    n_bank = bank.n_devices if bank is not None else 0
    vt, beta = _expand_bank_arrays(lane, n_top, n_bank, circuit.name)
    saved = bank
    asm._mos_bank = bank.overlay(bank.vt + vt, bank.i_spec * beta)

    def undo() -> None:
        asm._mos_bank = saved
    return undo


def apply_lane(circuit: "Circuit", lane: LaneSpec) -> Callable[[], None]:
    """Mutate ``circuit`` into the lane's perturbed twin; return an undo.

    This is the *serial* realization of a :class:`LaneSpec` -- the
    per-lane fallback and the serial paths of the spec objects go
    through it, so batched and serial evaluations perturb the circuit
    identically.  Devices are replaced (never mutated in place): MOS
    device objects are commonly shared between elements and only the
    addressed element must move.

    Mismatch arrays address the top-level ``circuit.mos_elements()``
    by default; on hierarchical circuits they may instead cover the
    *full device bank* (top-level elements followed by every
    subcircuit instance's devices, in bank order -- the order
    ``compiled.assembler._mos_names`` lists).  Full-bank lanes are
    realized as a :meth:`~repro.devices.mosfet.MosBank.overlay` on the
    compiled assembler's bank (per-instance devices share template
    element objects, so device replacement cannot address them
    individually), and the undo restores the original bank.
    """
    mos = circuit.mos_elements()
    n_top = len(mos)
    bank_wide = any(
        arr is not None and len(arr) != n_top
        for arr in (lane.vt_delta, lane.beta_scale))
    if bank_wide:
        undos = [_overlay_bank_lane(circuit, lane, n_top)]
    else:
        undos = []

        def _restore_device(element, device):
            def undo():
                element.device = device
            return undo

        for k, element in enumerate(mos):
            vt = (0.0 if lane.vt_delta is None
                  else float(lane.vt_delta[k]))
            beta = (1.0 if lane.beta_scale is None
                    else float(lane.beta_scale[k]))
            if vt == 0.0 and beta == 1.0:
                continue
            undos.append(_restore_device(element, element.device))
            element.device = dataclasses.replace(
                element.device,
                vt_shift=element.device.vt_shift + vt,
                beta_factor=element.device.beta_factor * beta)
    for name, factor in lane.resistor_scale:
        element = circuit.element(name)
        if not isinstance(element, Resistor):
            raise AnalysisError(f"{name!r} is not a resistor")
        saved = element.resistance

        def _restore_r(element=element, saved=saved):
            element.resistance = saved
        undos.append(_restore_r)
        element.resistance = saved * factor
    for name, value in lane.source_values:
        element = circuit.element(name)
        if not isinstance(element, (VoltageSource, CurrentSource)):
            raise AnalysisError(f"{name!r} is not an independent source")
        saved = element.waveform

        def _restore_s(element=element, saved=saved):
            element.waveform = saved
        undos.append(_restore_s)
        element.waveform = dc_wave(float(value))

    def undo_all() -> None:
        for undo in reversed(undos):
            undo()
    return undo_all


class BatchAssembler(CircuitAssembler):
    """Stacked ``(B, N)`` assembly over one compiled circuit.

    Builds on the serial assembler's compile-once structure (constant
    linear part, bank index scatter patterns) and adds per-lane
    parameter overlays: VT / beta arrays of shape ``(B, n_mos)``,
    per-lane delta conductances for scaled resistors, per-lane source
    values.  :meth:`assemble_batch` then assembles any subset of lanes
    (the batched Newton loop's shrinking active set) in one pass of
    numpy calls.

    Circuits containing element types the assembler does not know
    (user subclasses stamped through the per-element fallback) cannot
    be batched; constructing a :class:`BatchAssembler` for one raises
    :class:`~repro.errors.AnalysisError` -- use the serial backend.
    """

    def __init__(self, compiled: "CompiledCircuit",
                 lanes: Sequence[LaneSpec]) -> None:
        super().__init__(compiled)
        if self._fallback:
            kinds = sorted({type(e).__name__ for e in self._fallback})
            raise AnalysisError(
                f"circuit {compiled.circuit.name!r} contains element "
                f"types the batched assembler cannot vectorize "
                f"({', '.join(kinds)}); use the serial backend")
        self.lanes = list(lanes)
        self.batch = len(self.lanes)
        if self.batch == 0:
            raise AnalysisError("empty lane list")
        #: Whether the stacked Newton loop solves lanes through the
        #: shared-pattern sparse backend (set by :meth:`enable_sparse`).
        self.use_sparse = False
        self._batch_sparse_system: SparseSystem | None = None
        self._build_lane_overlays()

    # -- lane overlays --------------------------------------------------

    def _build_lane_overlays(self) -> None:
        n_mos = len(self._mos)
        n_bank = len(self._mos_all)
        vt_rows, beta_rows = [], []
        any_mos = False
        for lane in self.lanes:
            # Lanes may address the top-level elements (head of the
            # bank, instance tail untouched) or the full device bank --
            # the hierarchical-mismatch contract apply_lane shares.
            vt, beta = _expand_bank_arrays(
                lane, n_mos, n_bank, self.compiled.circuit.name)
            any_mos |= (lane.vt_delta is not None
                        or lane.beta_scale is not None)
            vt_rows.append(vt)
            beta_rows.append(beta)
        self._mos_vt_b = None
        self._mos_ispec_b = None
        if any_mos and self._mos_bank is not None:
            bank = self._mos_bank
            self._mos_vt_b = bank.vt[None, :] + np.vstack(vt_rows)
            self._mos_ispec_b = bank.i_spec[None, :] * np.vstack(beta_rows)

        # Resistor overlays: one column per resistor any lane scales.
        over_names: list[str] = []
        for lane in self.lanes:
            for name, _factor in lane.resistor_scale:
                if name not in over_names:
                    over_names.append(name)
        self._rov_dg = None
        if over_names:
            by_name = {r.name: r for r in self._resistors}
            elements = []
            for name in over_names:
                if name not in by_name:
                    raise AnalysisError(
                        f"{name!r} is not a resistor of "
                        f"{self.compiled.circuit.name!r}")
                elements.append(by_name[name])
            a = np.array([e._idx[0] for e in elements], dtype=np.intp)
            b = np.array([e._idx[1] for e in elements], dtype=np.intp)
            self._rov_a, self._rov_b = a, b
            self._rov_a_mask = a >= 0
            self._rov_b_mask = b >= 0
            rows = np.concatenate([a, a, b, b])
            cols = np.concatenate([a, b, a, b])
            valid = (rows >= 0) & (cols >= 0)
            self._rov_flat = (rows[valid].astype(np.intp) * self.size
                              + cols[valid].astype(np.intp))
            self._rov_valid = valid
            n_over = len(elements)
            self._rov_sign = np.concatenate(
                [np.ones(n_over), -np.ones(n_over),
                 -np.ones(n_over), np.ones(n_over)])
            dg = np.zeros((self.batch, n_over))
            base_g = np.array([1.0 / e.resistance for e in elements])
            for li, lane in enumerate(self.lanes):
                for name, factor in lane.resistor_scale:
                    k = over_names.index(name)
                    if factor <= 0.0:
                        raise AnalysisError(
                            f"lane {lane.label!r}: resistor scale for "
                            f"{name!r} must be positive, got {factor}")
                    dg[li, k] = base_g[k] / factor - base_g[k]
            self._rov_dg = dg

        # Source overlays: one (B,) value column per source any lane
        # overrides, substituted into the expanded source values at
        # that source's column.  Overrides address top-level sources
        # only (the head of each expanded list), so a template source
        # that happens to share a top-level source's name is never
        # accidentally overridden.
        columns = {e.name: k for k, e in enumerate(self._vsources)}
        columns.update((e.name, self._n_vsrc + k)
                       for k, e in enumerate(self._isources))
        over: dict[int, np.ndarray] = {}
        for li, lane in enumerate(self.lanes):
            for name, value in lane.source_values:
                if name not in columns:
                    raise AnalysisError(
                        f"{name!r} is not an independent source of "
                        f"{self.compiled.circuit.name!r}")
                col = columns[name]
                if col not in over:
                    base = self._src_unique[self._src_expand[col]]
                    over[col] = np.full(self.batch, base.value_at(None))
                over[col][li] = float(value)
        self._src_over_cols = np.array(list(over), dtype=np.intp)
        self._src_over_vals = (np.column_stack(list(over.values()))
                               if over else None)

    # -- stacked hot path -----------------------------------------------

    def _grounded_batch(self, X: np.ndarray) -> np.ndarray:
        """``X`` (A, N) padded with a zero column so index -1 reads 0."""
        Xg = np.empty((X.shape[0], X.shape[1] + 1))
        Xg[:, :-1] = X
        Xg[:, -1] = 0.0
        return Xg

    def _batch_source_rhs(self, res: np.ndarray, lane_idx: np.ndarray,
                          time: float | None) -> None:
        """Independent-source excitations into the stacked residual:
        the serial scatter of :meth:`_source_rhs`, with the per-lane
        value overrides substituted as columns."""
        values, signed = self._source_values(time)
        if self._src_over_vals is not None:
            lane_values = np.tile(values, (res.shape[0], 1))
            lane_values[:, self._src_over_cols] = \
                self._src_over_vals[lane_idx]
            signed = self._src_sign * lane_values[:, self._src_take]
        np.add.at(res, (..., self._src_idx), signed)

    def _batch_mos_scatter(self, res: np.ndarray, Xg: np.ndarray,
                           lane_idx: np.ndarray) -> np.ndarray:
        """One lane-overlaid MOS bank evaluation: drain/source currents
        accumulated into the stacked residual, masked Jacobian scatter
        values (A, n_valid) returned -- the same array both the dense
        flat scatter and the sparse ``mos`` segment consume, so the two
        backends agree bit for bit."""
        d, g, s, b = self._mos_terms
        all_rows = (slice(None),)
        bank = self._lane_mos_bank(lane_idx)
        r = bank.evaluate(Xg[:, d], Xg[:, g], Xg[:, s], Xg[:, b])
        np.add.at(res, all_rows + (d[self._mos_d_mask],),
                  r.ids[:, self._mos_d_mask])
        np.add.at(res, all_rows + (s[self._mos_s_mask],),
                  -r.ids[:, self._mos_s_mask])
        partials = np.concatenate(
            [r.p_d, r.p_g, r.p_s, r.p_b,
             r.p_d, r.p_g, r.p_s, r.p_b], axis=1)
        return (self._mos_sign * partials)[:, self._mos_valid]

    def _batch_diode_scatter(self, res: np.ndarray,
                             Xg: np.ndarray) -> np.ndarray:
        """Diode bank twin of :meth:`_batch_mos_scatter`."""
        a, c = self._diode_terms
        all_rows = (slice(None),)
        current, conductance = self._diode_bank.current(
            Xg[:, a] - Xg[:, c])
        np.add.at(res, all_rows + (a[self._diode_a_mask],),
                  current[:, self._diode_a_mask])
        np.add.at(res, all_rows + (c[self._diode_c_mask],),
                  -current[:, self._diode_c_mask])
        values = self._diode_sign * np.tile(conductance, (1, 4))
        return values[:, self._diode_valid]

    def _batch_rov_scatter(self, res: np.ndarray, Xg: np.ndarray,
                           lane_idx: np.ndarray) -> np.ndarray:
        """Per-lane resistor-overlay delta conductances: currents into
        the stacked residual, scatter values returned."""
        dg = self._rov_dg[lane_idx]
        all_rows = (slice(None),)
        va = Xg[:, self._rov_a]
        vb = Xg[:, self._rov_b]
        i = dg * (va - vb)
        np.add.at(res, all_rows + (self._rov_a[self._rov_a_mask],),
                  i[:, self._rov_a_mask])
        np.add.at(res, all_rows + (self._rov_b[self._rov_b_mask],),
                  -i[:, self._rov_b_mask])
        values = self._rov_sign * np.tile(dg, (1, 4))
        return values[:, self._rov_valid]

    def assemble_batch(self, jac: np.ndarray, res: np.ndarray,
                       X: np.ndarray, lane_idx: np.ndarray,
                       time: float | None = None) -> None:
        """Overwrite ``jac`` (A, N, N) / ``res`` (A, N) with the full
        static system of lanes ``lane_idx`` at solutions ``X`` (A, N)."""
        n_active = X.shape[0]
        jac[:] = self._g_const
        np.matmul(X, self._g_const.T, out=res)
        self._batch_source_rhs(res, lane_idx, time)
        if telemetry.is_enabled():
            span = telemetry.current_span()
            if self._mos_bank is not None:
                span.inc("device_bank_evals")
            if self._diode_bank is not None:
                span.inc("device_bank_evals")
        Xg = self._grounded_batch(X)
        jac_flat = jac.reshape(n_active, -1)
        all_rows = (slice(None),)
        if self._mos_bank is not None:
            np.add.at(jac_flat, all_rows + (self._mos_flat,),
                      self._batch_mos_scatter(res, Xg, lane_idx))
        if self._diode_bank is not None:
            np.add.at(jac_flat, all_rows + (self._diode_flat,),
                      self._batch_diode_scatter(res, Xg))
        if self._rov_dg is not None:
            np.add.at(jac_flat, all_rows + (self._rov_flat,),
                      self._batch_rov_scatter(res, Xg, lane_idx))

    # -- shared-pattern sparse path --------------------------------------

    def enable_sparse(self) -> None:
        """Switch the stacked Newton loop to the shared-pattern sparse
        backend: the symbolic structure (triplet dedup, CSC
        ``indices``/``indptr``, COLAMD ordering input) is computed once
        here and reused by every lane's numeric refactorization across
        every Newton iteration."""
        if not sparse_available():  # pragma: no cover - guarded upstream
            raise AnalysisError(
                "sparse batched backend requires scipy.sparse")
        self.use_sparse = True
        self.sparse_batch_system()

    def sparse_batch_system(self) -> SparseSystem:
        """The ensemble's shared triplet->CSC scatter (built once).

        Lanes of an ensemble differ only in *values* (device overlays,
        source overrides, resistor-scale deltas), never in structure,
        so one symbolic build serves all B lanes.  Ensembles that scale
        resistors get one extra ``rov`` segment appended to the serial
        segment sequence -- the per-lane delta conductances land on
        entries the ``lin`` segment already owns, so the pattern (and
        its factorization structure) is lane-independent either way.
        """
        if self._batch_sparse_system is None:
            if self._rov_dg is None:
                # Identical pattern to the serial assembler's (both are
                # derived from the same compiled structure), so borrow
                # its cached system: pilot solves, per-lane serial
                # fallbacks and repeated ensembles over one compile all
                # share a single symbolic factorization.
                self._batch_sparse_system = \
                    self.compiled.assembler.sparse_system()
            else:
                segments = self._sparse_segments()
                segments["rov"] = (self._rov_flat // self.size,
                                   self._rov_flat % self.size)
                self._batch_sparse_system = SparseSystem(self.size,
                                                         segments)
        return self._batch_sparse_system

    def assemble_batch_sparse(self, vals: np.ndarray, res: np.ndarray,
                              X: np.ndarray, lane_idx: np.ndarray,
                              time: float | None = None) -> None:
        """Sparse twin of :meth:`assemble_batch`: overwrite ``vals``
        (A, n_triplets) / ``res`` (A, N) with per-lane triplet values
        over the shared pattern of :meth:`sparse_batch_system`.

        Segment values are produced by the same bank evaluations and
        scatter-value expressions as the dense stacked path, and the
        linear part rides the same cached CSR matvec as the serial
        sparse assembler -- so per-lane assembled entries are
        bit-identical to both.
        """
        system = self.sparse_batch_system()
        sl = system.segment_slices
        if self._lin_csr is None:
            self._lin_csr = coo_to_csr(self._lin_rows, self._lin_cols,
                                       self._lin_vals, self.size)
        vals.fill(0.0)
        vals[:, sl["lin"]] = self._lin_vals
        res[:] = self._lin_csr.dot(X.T).T
        self._batch_source_rhs(res, lane_idx, time)
        if telemetry.is_enabled():
            span = telemetry.current_span()
            if self._mos_bank is not None:
                span.inc("device_bank_evals")
            if self._diode_bank is not None:
                span.inc("device_bank_evals")
        Xg = self._grounded_batch(X)
        if self._mos_bank is not None:
            vals[:, sl["mos"]] = self._batch_mos_scatter(res, Xg,
                                                         lane_idx)
        if self._diode_bank is not None:
            vals[:, sl["dio"]] = self._batch_diode_scatter(res, Xg)
        if self._rov_dg is not None:
            vals[:, sl["rov"]] = self._batch_rov_scatter(res, Xg,
                                                         lane_idx)

    def _lane_mos_bank(self, lane_idx):
        """A bank view whose VT / I_spec rows are the selected lanes'.

        The bank math is pure elementwise numpy, so swapping the (n,)
        parameter arrays for (A, n) slices broadcasts the evaluation
        over the lane axis with zero duplicated model code.
        ``MosBank.overlay`` rebuilds the bank's derived packed
        constants along the way.
        """
        if self._mos_vt_b is None:
            return self._mos_bank
        return self._mos_bank.overlay(self._mos_vt_b[lane_idx],
                                      self._mos_ispec_b[lane_idx])

    def lane_device_ops(self, lane: int, x: np.ndarray) -> dict:
        """MOS element name -> operating point at ``x`` under the lane's
        parameter overlay (the batched analogue of
        :meth:`CircuitAssembler.device_operating_points`)."""
        if self._mos_bank is None:
            return {}
        bank = self._mos_bank
        if self._mos_vt_b is not None:
            bank = bank.overlay(self._mos_vt_b[lane],
                                self._mos_ispec_b[lane])
        d, g, s, b = self._mos_terms
        vd, vg, vs, vb = self._terminal_voltages(x, (d, g, s, b))
        points = bank.operating_points(vd, vg, vs, vb)
        return dict(zip(self._mos_names, points))


class _LaneDeviceOps(Mapping):
    """Per-lane ``device_ops`` mapping, materialized on first access."""

    def __init__(self, assembler: BatchAssembler, lane: int,
                 x: np.ndarray) -> None:
        self._assembler = assembler
        self._lane = lane
        self._x = x
        self._data: dict | None = None

    def _materialize(self) -> dict:
        if self._data is None:
            self._data = self._assembler.lane_device_ops(self._lane,
                                                         self._x)
        return self._data

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())


# -- batched Newton kernel ------------------------------------------------


@dataclass
class BatchDiagnostics:
    """What the batched solve did for one population.

    Attributes:
        circuit: Circuit name.
        batch: Population size B.
        iterations: Stacked Newton iterations run across both batched
            phases (shared clock).
        active_history: Lanes still active entering each stacked
            iteration -- the convergence-masking decay curve (phase 1
            then the gmin rungs).
        n_converged_batched: Lanes plain batched Newton converged
            directly.
        n_converged_gmin: Lanes the batched gmin-stepping continuation
            rescued.
        n_fallback: Lanes re-solved individually through the strategy
            ladder.
        n_failed: Lanes that failed the ladder too.
        fallback_lanes: ``(lane index, reason)`` per handed-off lane.
        wall_time: Seconds spent in the whole batched solve (stacked
            loop plus fallbacks).
    """

    circuit: str
    batch: int
    iterations: int = 0
    active_history: list[int] = field(default_factory=list)
    n_converged_batched: int = 0
    n_converged_gmin: int = 0
    n_fallback: int = 0
    n_failed: int = 0
    fallback_lanes: list[tuple[int, str]] = field(default_factory=list)
    wall_time: float = 0.0

    def describe(self) -> str:
        decay = " -> ".join(str(n) for n in self.active_history[:12])
        if len(self.active_history) > 12:
            decay += " -> ..."
        return (f"batched solve of {self.circuit!r}: B={self.batch}, "
                f"{self.n_converged_batched} converged directly + "
                f"{self.n_converged_gmin} via gmin stepping in "
                f"{self.iterations} stacked iterations "
                f"(active {decay}), {self.n_fallback} fell back to the "
                f"ladder, {self.n_failed} failed "
                f"({self.wall_time * 1e3:.1f} ms)")


@dataclass
class _BatchNewtonOutcome:
    converged: np.ndarray            # (B,) bool, scoped to entry lanes
    iterations: np.ndarray           # (B,) int, iterations this call
    reasons: dict[int, str]          # lane -> why it left the batch loop
    n_iterations: int


def _newton_rounds(assembler: BatchAssembler, X: np.ndarray,
                   lanes_idx: np.ndarray, options: NewtonOptions,
                   gmin: float,
                   active_history: list[int],
                   time: float | None = None,
                   extra=None,
                   chord: "_SparseChordState | None" = None,
                   ) -> _BatchNewtonOutcome:
    """One batched damped-Newton solve over ``lanes_idx``, in place.

    The per-lane math mirrors the serial kernel exactly: same damping
    rule, same update-norm convergence criterion
    (:func:`~repro.spice.strategies.step_converged`), same stall window
    -- applied with per-lane state.  Converged lanes freeze (their rows
    stop being assembled and solved, shrinking the stacked system each
    iteration); lanes with non-finite updates or a stalled trajectory
    are kicked out with their serial-identical failure reason.
    ``active_history`` accumulates the active-lane count entering each
    iteration (the masking decay curve for diagnostics).

    ``time`` is the source-waveform timestamp (None: DC).  ``extra``,
    when given, stamps additional per-lane contributions after the
    static assembly and before the gmin shunt -- the serial kernel's
    ``extra_stamp`` slot, which the batched transient engine fills with
    the stacked charge companions; it is called as
    ``extra(jac_or_vals, res, X_active, active_idx)``.  ``chord``
    carries the per-lane sparse LU/chord state across calls (the
    batched transient holds one across accepted steps, invalidated on
    dt changes); None creates one scoped to this call, preserving the
    gmin-rung isolation guarantee.
    """
    compiled = assembler.compiled
    B, N = X.shape
    n_nodes = len(compiled.node_index)
    diag = np.arange(n_nodes)
    use_sparse = assembler.use_sparse
    system = assembler.sparse_batch_system() if use_sparse else None
    diag_slice = system.segment_slices["diag"] if use_sparse else None
    if not (use_sparse and options.lu_reuse):
        chord = None
    elif chord is None:
        chord = _SparseChordState()
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    stall_checkpoint = np.full(B, np.inf)
    stall_residual = np.full(B, np.inf)
    reasons: dict[int, str] = {}
    active = np.asarray(lanes_idx, dtype=np.intp).copy()
    tspan = telemetry.current_span() if telemetry.is_enabled() else None
    deadline = options.deadline
    iteration = 0
    for iteration in range(1, options.max_iterations + 1):
        n_active = active.size
        if n_active == 0:
            iteration -= 1
            break
        if deadline is not None and _time.perf_counter() >= deadline:
            # Wall-clock budget exhausted mid-population: the serial
            # kernel raises stage="wall-clock" here; the batched loop
            # instead kicks every still-active lane out with that
            # reason (converged lanes keep their solutions) so the
            # caller's diagnostics carry the partial outcome.
            iteration -= 1
            for lane in active:
                reasons[int(lane)] = (
                    f"wall-clock budget exhausted after "
                    f"{int(iterations[lane])} batched Newton iterations "
                    f"in {compiled.circuit.name} [stage wall-clock]")
            if tspan is not None:
                tspan.event("batch-deadline", n_active=n_active,
                            iteration=iteration)
            active = active[:0]
            break
        active_history.append(n_active)
        res = np.empty((n_active, N))
        Xa = X[active]
        if use_sparse:
            vals = np.empty((n_active, system.n_triplets))
            assembler.assemble_batch_sparse(vals, res, Xa, active,
                                            time=time)
            if extra is not None:
                extra(vals, res, Xa, active)
            if gmin > 0.0:
                vals[:, diag_slice] += gmin
                res[:, :n_nodes] += gmin * Xa[:, :n_nodes]
        else:
            jac = np.empty((n_active, N, N))
            assembler.assemble_batch(jac, res, Xa, active, time=time)
            if extra is not None:
                extra(jac, res, Xa, active)
            if gmin > 0.0:
                jac[:, diag, diag] += gmin
                res[:, :n_nodes] += gmin * Xa[:, :n_nodes]
            if tspan is not None:
                # The dense stacked solve factors every active lane;
                # the sparse path counts per-lane inside the solver so
                # chord reuse shows up as fewer factorizations.
                tspan.inc("jacobian_factorizations", n_active)
        # Per-lane residual norms feed the stall detector (mirroring
        # the serial kernel); only window boundaries read them.
        res_norm = None
        if iteration == 1 or (options.stall_window > 0 and
                              iteration % options.stall_window == 0):
            res_norm = np.abs(res).max(axis=1)
        if use_sparse:
            dX, fresh = _solve_stacked_sparse(system, vals, res, active,
                                              n_nodes, options, chord,
                                              tspan)
        else:
            dX = _solve_stacked(jac, res)
            fresh = None
        finite = np.all(np.isfinite(dX), axis=1)
        if not finite.all():
            for lane in active[~finite]:
                reasons[int(lane)] = ("non-finite Newton update in "
                                      f"{compiled.circuit.name}")
                iterations[lane] = iteration
            active = active[finite]
            dX = dX[finite]
            if fresh is not None:
                fresh = fresh[finite]
            if res_norm is not None:
                res_norm = res_norm[finite]
            if active.size == 0:
                if tspan is not None:
                    tspan.event("batch-iter", i=iteration, n_active=0)
                continue
        v_updates = (np.abs(dX[:, :n_nodes]) if n_nodes
                     else np.zeros((active.size, 1)))
        biggest = (v_updates.max(axis=1) if v_updates.shape[1]
                   else np.zeros(active.size))
        scale = np.where(biggest <= options.max_step, 1.0,
                         options.max_step / np.maximum(biggest, 1e-300))
        X[active] += scale[:, None] * dX
        iterations[active] = iteration
        step_norm = biggest * scale
        if iteration == 1:
            # Arm the stall detector from the opening update norm and
            # residual -- mirrors the serial kernel so both paths kick
            # out a stalled lane after one window, not two.
            stall_checkpoint[active] = step_norm
            stall_residual[active] = res_norm
        v_max = (np.abs(X[active][:, :n_nodes]).max(axis=1) if n_nodes
                 else np.zeros(active.size))
        conv = step_converged(step_norm, v_max, options) & (scale == 1.0)
        if chord is not None:
            # Never declare victory on a stale (chord) Jacobian: drop
            # the lane's cached factorization and let the next
            # iteration take -- and re-check -- a fresh full-Newton
            # step, exactly like the serial kernel.
            for lane in active[conv & ~fresh]:
                chord.handles.pop(int(lane), None)
            conv &= fresh
            chord.note_norms(active, step_norm)
        if tspan is not None:
            tspan.event("batch-iter", i=iteration,
                        n_active=int(active.size),
                        n_converged=int(conv.sum()),
                        max_step_norm=float(step_norm.max(initial=0.0)))
        keep = ~conv
        converged[active[conv]] = True
        if options.stall_window > 0 and \
                iteration % options.stall_window == 0:
            stalled = (step_norm > 0.5 * stall_checkpoint[active]) \
                & (res_norm > 0.5 * stall_residual[active])
            stalled &= keep
            for lane, norm, rnorm in zip(active[stalled],
                                         step_norm[stalled],
                                         res_norm[stalled]):
                reasons[int(lane)] = (
                    f"Newton stalled after {iteration} iterations in "
                    f"{compiled.circuit.name} (neither the update norm "
                    f"{norm:.3e} nor the residual {rnorm:.3e} halved "
                    f"over the last "
                    f"{options.stall_window} iterations)")
            keep &= ~stalled
            stall_checkpoint[active] = step_norm
            stall_residual[active] = res_norm
        active = active[keep]
    for lane in active:
        reasons[int(lane)] = (
            f"Newton failed after {options.max_iterations} iterations "
            f"in {compiled.circuit.name}")
        iterations[lane] = iteration
    return _BatchNewtonOutcome(converged=converged,
                               iterations=iterations, reasons=reasons,
                               n_iterations=iteration)


def batch_newton(assembler: BatchAssembler, X: np.ndarray,
                 options: NewtonOptions, gmin: float,
                 active_history: list[int] | None = None,
                 ) -> _BatchNewtonOutcome:
    """Plain damped Newton over all lanes at once (in place on ``X``)."""
    if active_history is None:
        active_history = []
    return _newton_rounds(assembler, X, np.arange(X.shape[0]), options,
                          gmin, active_history)


def batch_gmin_stepping(assembler: BatchAssembler, X: np.ndarray,
                        lanes_idx: np.ndarray, options: NewtonOptions,
                        active_history: list[int],
                        start_exponent: int = 3, stop_exponent: int = 15,
                        ) -> _BatchNewtonOutcome:
    """Batched continuation in the shunt conductance.

    The stacked analogue of
    :class:`~repro.spice.strategies.GminSteppingStrategy` (same default
    schedule): solve all lanes with a heavy shunt, relax it one decade
    at a time down to ``options.gmin``, warm-starting each rung from
    the previous one, then polish with a plain solve.  A lane that
    fails any rung leaves the batch (its ``X`` row holds the last rung
    it did converge -- callers fall back per-lane from the original
    guess anyway); lanes that survive every rung converge exactly like
    their serial counterparts.
    """
    B = X.shape[0]
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    reasons: dict[int, str] = {}
    total_rounds = 0
    active = np.asarray(lanes_idx, dtype=np.intp).copy()
    tspan = telemetry.current_span() if telemetry.is_enabled() else None
    schedule = [max(10.0 ** (-e), options.gmin)
                for e in range(start_exponent, stop_exponent + 1)]
    schedule.append(options.gmin)
    for rung, gmin in enumerate(schedule):
        if active.size == 0:
            break
        outcome = _newton_rounds(assembler, X, active, options, gmin,
                                 active_history)
        total_rounds += outcome.n_iterations
        iterations += outcome.iterations
        for lane, why in outcome.reasons.items():
            reasons[lane] = (f"gmin rung {rung} (gmin={gmin:.1e}): "
                             f"{why}")
        if tspan is not None:
            tspan.event("batch-gmin-step", gmin=gmin,
                        n_active=int(active.size),
                        iterations=outcome.n_iterations)
        active = active[outcome.converged[active]]
    converged[active] = True
    return _BatchNewtonOutcome(converged=converged,
                               iterations=iterations, reasons=reasons,
                               n_iterations=total_rounds)


def _solve_stacked(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Solve every lane's system; singular lanes degrade to lstsq
    instead of poisoning the whole stacked call."""
    try:
        return np.linalg.solve(jac, -res[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dX = np.empty_like(res)
        for k in range(jac.shape[0]):
            try:
                dX[k] = np.linalg.solve(jac[k], -res[k])
            except np.linalg.LinAlgError:
                dX[k], *_ = np.linalg.lstsq(jac[k], -res[k], rcond=None)
        return dX


class _SparseChordState:
    """Per-lane chord-Newton bookkeeping for batched sparse solves.

    By default scoped to a single :func:`_newton_rounds` call, so a
    gmin-rung change can never serve a factorization of the previous
    rung's shunted Jacobian.  The batched transient engine instead
    holds one instance across accepted steps (cached SuperLU handles
    from the last step's companion Jacobian are excellent chord
    candidates at the next one) and keys it on the companion
    coefficient ``c0 = f(dt)``: :meth:`ensure_key` drops every cached
    handle whenever dt changes, and :meth:`invalidate` clears the cache
    after rejected attempts whose trial states were discarded.
    """

    __slots__ = ("handles", "prev_norm", "key")

    def __init__(self) -> None:
        self.handles: dict[int, object] = {}
        self.prev_norm: dict[int, float] = {}
        self.key: float | None = None

    def note_norms(self, active: np.ndarray,
                   step_norm: np.ndarray) -> None:
        for lane, norm in zip(active, step_norm):
            self.prev_norm[int(lane)] = float(norm)

    def ensure_key(self, key: float) -> None:
        if key != self.key:
            self.invalidate()
            self.key = key

    def invalidate(self) -> None:
        self.handles.clear()
        self.prev_norm.clear()


def _solve_stacked_sparse(system: SparseSystem, vals: np.ndarray,
                          res: np.ndarray, active: np.ndarray,
                          n_nodes: int, options: NewtonOptions,
                          chord: _SparseChordState | None,
                          tspan) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane sparse solves over the shared symbolic pattern.

    Mirrors the serial sparse kernel lane by lane: a lane with a cached
    SuperLU handle first tries a chord step, accepted only under the
    ``lu_contraction`` monitor; otherwise its CSC data row is
    numerically refactorized on the shared ``indices``/``indptr``
    structure (the column ordering, fixed by the system's first
    factorization, is never recomputed).  Exactly-singular and
    non-finite lanes degrade to dense least squares; a NaN-parameter
    lane produces a NaN row that flows into the caller's non-finite
    kick-out, i.e. the per-lane serial-ladder fallback.

    Returns ``(dX, fresh)``; ``fresh`` flags lanes whose step came from
    a fresh factorization -- the caller refuses convergence on stale
    chord steps exactly like the serial kernel.
    """
    data = system.batch_data(vals)
    dX = np.empty_like(res)
    fresh = np.zeros(active.size, dtype=bool)
    for k in range(active.size):
        lane = int(active[k])
        rhs = -res[k]
        if chord is not None:
            handle = chord.handles.get(lane)
            if handle is not None:
                candidate = handle.solve(rhs)
                if np.all(np.isfinite(candidate)):
                    biggest = (float(np.abs(candidate[:n_nodes]).max())
                               if n_nodes else 0.0)
                    scale = (1.0 if biggest <= options.max_step
                             else options.max_step / max(biggest, 1e-300))
                    prev = chord.prev_norm.get(lane, np.inf)
                    if biggest * scale <= options.lu_contraction * prev:
                        dX[k] = candidate
                        if tspan is not None:
                            tspan.inc("lu_reuses")
                        continue
        ordered = system.perm_c is not None
        handle = system.factorize(data[k])
        if not ordered and system.perm_c is not None:
            # That first factorization fixed the column order: re-emit
            # the remaining rows in it.
            data = system.batch_data(vals)
        fresh[k] = True
        if chord is not None:
            chord.handles[lane] = handle
        if tspan is not None:
            tspan.inc("jacobian_factorizations")
            tspan.inc("sparse_factorizations")
            if chord is not None:
                tspan.inc("lu_refactorizations")
        if handle is not None:
            dX[k] = handle.solve(rhs)
        else:
            try:
                dX[k], *_ = np.linalg.lstsq(system.toarray(data[k]), rhs,
                                            rcond=None)
            except np.linalg.LinAlgError:
                dX[k] = np.nan
    return dX, fresh


# -- orchestration --------------------------------------------------------


@dataclass
class BatchOpResult:
    """Per-lane operating points of one batched solve.

    Attributes:
        points: One :class:`~repro.spice.results.OpResult` per lane, in
            lane order (NaN placeholders for lanes that failed every
            strategy, recorded under ``on_error="skip"``).
        failures: ``(lane index, error)`` per failed lane; the stored
            :class:`~repro.errors.ConvergenceError` carries the full
            ladder diagnostics.
        diagnostics: The population-level :class:`BatchDiagnostics`.
    """

    points: list
    failures: list[tuple[int, ConvergenceError]]
    diagnostics: BatchDiagnostics

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def batch_operating_point(circuit: "Circuit",
                          lanes: Sequence[LaneSpec],
                          options: NewtonOptions | None = None,
                          strategies=None,
                          on_error: str = "raise",
                          x0: np.ndarray | None = None,
                          matrix_backend: str | None = None,
                          ) -> BatchOpResult:
    """Solve one DC operating point per lane, stacked.

    Every lane starts from the circuit's nodeset initial guess (or
    ``x0``), exactly like a cold serial
    :func:`~repro.spice.dc.operating_point`.  Lanes the batched Newton
    loop cannot converge are re-solved individually through the serial
    strategy ladder with the lane perturbation applied to the circuit
    (and reverted afterwards), so the failure behaviour -- and the
    forensic diagnostics of lanes that fail everything -- is identical
    to the serial path.

    ``matrix_backend``, when given, overrides the circuit's own
    setting before backend resolution (same ``"auto"``/``"dense"``/
    ``"sparse"`` vocabulary as :class:`~repro.spice.netlist.Circuit`);
    a circuit resolving to the sparse backend runs the stacked Newton
    loop over one shared COLAMD symbolic pattern with per-lane numeric
    refactorization, instead of dense ``(B, N, N)`` tensors.

    ``on_error="raise"`` propagates the first failed lane's
    :class:`~repro.errors.ConvergenceError`; ``"skip"`` records NaN
    placeholder points and keeps going.
    """
    if on_error not in ("raise", "skip"):
        raise NetlistError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if matrix_backend is not None:
        if matrix_backend not in circuit.MATRIX_BACKENDS:
            raise NetlistError(
                f"unknown matrix backend {matrix_backend!r}, expected "
                f"one of {circuit.MATRIX_BACKENDS}")
        if matrix_backend != circuit.matrix_backend:
            circuit.matrix_backend = matrix_backend
            if circuit._compiled is not None:
                # Backend resolution is cached on the compiled artifact;
                # a changed preference must re-resolve without forcing a
                # full recompile of unchanged structure.
                circuit._compiled._solver_backend = None
    options = options or NewtonOptions()
    lanes = list(lanes)
    with telemetry.span("batch-operating-point", circuit=circuit.name,
                        batch=len(lanes)) as tspan:
        return _batch_op(circuit, lanes, options, strategies, on_error,
                         x0, tspan)


def _ladder_gmin_rung(strategies) -> GminSteppingStrategy | None:
    """The gmin-stepping rung of the effective ladder, if it has one.

    The stacked phase 2 exists to mirror that rung; a ladder without
    one (``strategies=(NewtonStrategy(),)`` in a robustness test, say)
    must fail the same lanes batched as it would serially.
    """
    for strategy in (DEFAULT_LADDER if strategies is None else strategies):
        if isinstance(strategy, GminSteppingStrategy):
            return strategy
    return None


def _batch_op(circuit: "Circuit", lanes: list[LaneSpec],
              options: NewtonOptions, strategies, on_error: str,
              x0: np.ndarray | None, tspan) -> BatchOpResult:
    from .dc import _nan_point, _package  # local: avoids import cycle

    start = _time.perf_counter()
    if options.max_wall_time is not None and options.deadline is None:
        # One absolute deadline covers both stacked phases and the
        # per-lane ladder fallback (run_ladder reuses a preset
        # deadline), mirroring the serial wall-clock semantics.
        options = dataclasses.replace(
            options, deadline=start + options.max_wall_time)
    compiled = circuit.compile()
    assembler = BatchAssembler(compiled, lanes)
    if compiled.solver_backend() == "sparse":
        assembler.enable_sparse()
        tspan.annotate(matrix_backend="sparse")
    guess = (circuit.initial_guess(compiled) if x0 is None else
             np.asarray(x0, dtype=float))
    if guess.shape != (compiled.size,):
        raise NetlistError(
            f"warm-start vector has wrong size {guess.shape}, "
            f"expected ({compiled.size},)")
    X = np.tile(guess, (len(lanes), 1))
    tspan.inc("batch_lanes", len(lanes))
    active_history: list[int] = []
    # Phase 1: plain batched Newton, the analogue of NewtonStrategy.
    phase1 = batch_newton(assembler, X, options, options.gmin,
                          active_history)
    # Phase 2: batched gmin stepping for the lanes plain Newton lost --
    # restarted from the original guess, exactly like the serial
    # ladder's second rung.  Only when the caller's ladder actually
    # carries a gmin rung (the default ladder does): a custom
    # ``strategies`` without one must fail the same lanes serially and
    # batched, so the stacked phase mirrors the rung's own schedule and
    # iteration budget -- or does not run at all.
    gmin_rung = _ladder_gmin_rung(strategies)
    pending1 = np.nonzero(~phase1.converged)[0]
    phase2 = None
    if pending1.size and gmin_rung is not None:
        X[pending1] = guess
        phase2 = batch_gmin_stepping(
            assembler, X, pending1, gmin_rung._options(options),
            active_history,
            start_exponent=gmin_rung.start_exponent,
            stop_exponent=gmin_rung.stop_exponent)
    converged = phase1.converged.copy()
    if phase2 is not None:
        converged |= phase2.converged
    diagnostics = BatchDiagnostics(
        circuit=circuit.name, batch=len(lanes),
        iterations=(phase1.n_iterations
                    + (phase2.n_iterations if phase2 else 0)),
        active_history=active_history,
        n_converged_batched=int(phase1.converged.sum()),
        n_converged_gmin=(int(phase2.converged.sum()) if phase2 else 0))

    def _lane_stages(lane_index: int) -> list[StageReport]:
        """The batched stages lane ``lane_index`` went through, as
        serial-style stage reports (converged flag per phase)."""
        stages = [StageReport(
            strategy=BATCHED_STAGE,
            converged=bool(phase1.converged[lane_index]),
            iterations=int(phase1.iterations[lane_index]),
            wall_time=0.0,
            detail=phase1.reasons.get(lane_index, ""))]
        if phase2 is not None and not phase1.converged[lane_index]:
            stages.append(StageReport(
                strategy=BATCHED_GMIN_STAGE,
                converged=bool(phase2.converged[lane_index]),
                iterations=int(phase2.iterations[lane_index]),
                wall_time=0.0,
                detail=phase2.reasons.get(lane_index, "")))
        return stages

    points: list = [None] * len(lanes)
    failures: list[tuple[int, ConvergenceError]] = []
    for lane_index in np.nonzero(converged)[0]:
        lane_index = int(lane_index)
        if not np.all(np.isfinite(X[lane_index])):
            # A lane must never be *packaged* with NaN/inf in its
            # solution vector, whatever the convergence bookkeeping
            # says -- demote it to the serial fallback below, which
            # either produces a real solution or a diagnosed failure.
            converged[lane_index] = False
            phase1.reasons.setdefault(
                lane_index,
                "non-finite solution vector after batched convergence")
            tspan.event("lane-nonfinite", lane=lane_index)
            continue
        stages = _lane_stages(lane_index)
        total = sum(s.iterations for s in stages)
        lane_diag = SolverDiagnostics(
            circuit=circuit.name, stages=stages,
            rescued_by=stages[-1].strategy, total_iterations=total)
        result = _package(compiled, X[lane_index], total, lane_diag)
        result.device_ops = _LaneDeviceOps(assembler, lane_index,
                                           result.x)
        points[lane_index] = result

    # Per-lane fallback: anything the stacked phases could not converge
    # re-runs the full serial ladder from the same cold start.
    pending = [k for k in range(len(lanes)) if points[k] is None]
    diagnostics.n_fallback = len(pending)

    def _lane_reason(k: int) -> str:
        if phase2 is not None and k in phase2.reasons:
            return phase2.reasons[k]
        return phase1.reasons.get(k, "")

    diagnostics.fallback_lanes = [(k, _lane_reason(k)) for k in pending]
    if pending:
        tspan.inc("batch_lane_fallbacks", len(pending))
    first_error: ConvergenceError | None = None
    for lane_index in pending:
        lane = lanes[lane_index]
        batched_stages = _lane_stages(lane_index)
        batched_iters = sum(s.iterations for s in batched_stages)
        undo = apply_lane(circuit, lane)
        try:
            x, lane_diag = run_ladder(circuit, compiled, guess.copy(),
                                      None, options, strategies)
        except ConvergenceError as error:
            if error.diagnostics is not None:
                error.diagnostics.stages[0:0] = batched_stages
                error.diagnostics.total_iterations += batched_iters
            failures.append((lane_index, error))
            points[lane_index] = _nan_point(compiled, error.diagnostics)
            tspan.event("lane-failed", lane=lane_index,
                        label=lane.label, why=str(error))
            if first_error is None:
                first_error = error
            continue
        finally:
            undo()
        lane_diag.stages[0:0] = batched_stages
        lane_diag.total_iterations += batched_iters
        result = _package(compiled, x, lane_diag.total_iterations,
                          lane_diag)
        result.device_ops = _LaneDeviceOps(assembler, lane_index,
                                           result.x)
        points[lane_index] = result
    diagnostics.n_failed = len(failures)
    diagnostics.wall_time = _time.perf_counter() - start
    tspan.annotate(n_converged_batched=diagnostics.n_converged_batched,
                   n_converged_gmin=diagnostics.n_converged_gmin,
                   n_fallback=diagnostics.n_fallback,
                   n_failed=diagnostics.n_failed,
                   iterations=diagnostics.iterations)
    if failures and on_error == "raise":
        raise first_error
    return BatchOpResult(points=points, failures=failures,
                         diagnostics=diagnostics)


# -- analysis-layer specs -------------------------------------------------


@dataclass(frozen=True)
class BatchedOpMetric:
    """A Monte-Carlo metric whose evaluation is one DC operating point.

    The spec is *both* the serial metric function -- calling it with a
    seed builds a fresh circuit, applies the drawn lane perturbation,
    solves serially and measures -- and the vectorizable description
    :class:`~repro.analysis.montecarlo.MonteCarlo` consumes under
    ``backend="batched"``.  Both paths share :func:`apply_lane` /
    ``draw``, so they see bit-identical perturbations.

    Attributes:
        build: Zero-argument factory for a fresh base circuit.
        draw: ``(seed, circuit) -> LaneSpec``; must be a pure function
            of the seed (same seed, same draw -- the batched and serial
            backends both rely on it).
        measure: ``OpResult -> {metric: value}``.
        options / strategies: Solver overrides shared by both paths.
    """

    build: Callable[[], "Circuit"]
    draw: Callable[[int, "Circuit"], LaneSpec]
    measure: Callable[["OpResult"], Mapping[str, float]]
    options: NewtonOptions | None = None
    strategies: tuple | None = None

    def __call__(self, seed: int) -> dict[str, float]:
        from .dc import operating_point
        circuit = self.build()
        lane = self.draw(seed, circuit)
        undo = apply_lane(circuit, lane)
        try:
            result = operating_point(circuit, self.options,
                                     strategies=self.strategies)
            return {name: float(value)
                    for name, value in self.measure(result).items()}
        finally:
            undo()

    def plan(self) -> "PlannedOpMetric":
        """Materialize the spec into a reusable, shippable plan.

        Builds the base circuit and compiles it **once**; the returned
        :class:`PlannedOpMetric` carries the compiled circuit along, so
        every later evaluation -- in this process or in a pool worker
        that unpickled the plan with its task chunk -- reuses the
        assembler instead of rebuilding and recompiling per seed.  This
        is what makes ``compile_cache_misses == 1`` across a whole
        parallel Monte-Carlo fleet.
        """
        circuit = self.build()
        circuit.compile()
        return PlannedOpMetric(circuit=circuit, draw=self.draw,
                               measure=self.measure, options=self.options,
                               strategies=self.strategies)


@dataclass(frozen=True)
class PlannedOpMetric:
    """A :class:`BatchedOpMetric` with its circuit built and compiled.

    Evaluation applies the seed's lane to the *shared* prebuilt circuit
    and undoes it afterwards -- :func:`apply_lane`'s undo contract
    restores the circuit exactly, and every solve cold-starts from the
    circuit's nodesets, so per-seed results are bit-identical to the
    fresh-build :class:`BatchedOpMetric` path.  The plan pickles whole
    (compiled assembler included), so a process-pool Monte-Carlo ships
    it with each task chunk and no worker recompiles.
    """

    circuit: "Circuit"
    draw: Callable[[int, "Circuit"], LaneSpec]
    measure: Callable[["OpResult"], Mapping[str, float]]
    options: NewtonOptions | None = None
    strategies: tuple | None = None

    def __call__(self, seed: int) -> dict[str, float]:
        from .dc import operating_point
        lane = self.draw(seed, self.circuit)
        undo = apply_lane(self.circuit, lane)
        try:
            result = operating_point(self.circuit, self.options,
                                     strategies=self.strategies)
            return {name: float(value)
                    for name, value in self.measure(result).items()}
        finally:
            undo()


# -- batched transient ----------------------------------------------------


@dataclass
class BatchTranDiagnostics:
    """Population-level record of one lockstep transient run.

    Attributes:
        circuit: Circuit name.
        batch: Number of lanes the run started with.
        steps_accepted: Shared time points committed by the lockstep
            grid (every surviving lane holds exactly this many samples
            past t = 0).
        steps_rejected: Shared-grid attempts that shrank the step, all
            causes and lanes pooled.
        newton_iterations: Total stacked Newton iterations over
            converged lanes of every attempt.
        lane_rejections: ``(B,)`` rejections *attributed* to each lane
            (the lanes whose Newton failure or LTE estimate forced the
            shared shrink) -- the kick-out budget counts these.
        fallback_lanes: ``(lane index, reason)`` per lane that left the
            lockstep grid for the serial path (initial-DC failures
            included).
        n_failed: Lanes without a result (serial fallback failed too).
        dt_smallest: Smallest shared step committed [s].
        wall_time: Whole-run wall time [s].
    """

    circuit: str
    batch: int
    steps_accepted: int = 0
    steps_rejected: int = 0
    newton_iterations: int = 0
    lane_rejections: np.ndarray | None = None
    fallback_lanes: list[tuple[int, str]] = field(default_factory=list)
    n_failed: int = 0
    dt_smallest: float = float("inf")
    wall_time: float = 0.0

    def describe(self) -> str:
        lockstep = self.batch - len(self.fallback_lanes)
        text = (f"{self.circuit}: {lockstep}/{self.batch} lanes in "
                f"lockstep, {self.steps_accepted} shared steps accepted, "
                f"{self.steps_rejected} rejected")
        if self.fallback_lanes:
            text += f", {len(self.fallback_lanes)} serial fallbacks"
        if self.n_failed:
            text += f", {self.n_failed} failed"
        return text


@dataclass
class BatchTranResult:
    """Per-lane transient waveforms of one batched run.

    Attributes:
        results: One :class:`~repro.spice.results.TranResult` per lane
            in lane order (None for lanes that failed even the serial
            fallback, recorded under ``on_error="skip"``).  Lockstep
            lanes share one time axis; serial-fallback lanes carry
            their own adaptive grid.
        failures: ``(lane index, error)`` per failed lane.
        diagnostics: The population-level :class:`BatchTranDiagnostics`.
    """

    results: list
    failures: list[tuple[int, ConvergenceError]]
    diagnostics: BatchTranDiagnostics

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def batch_transient(circuit: "Circuit", lanes: Sequence[LaneSpec],
                    t_stop: float,
                    options: TransientOptions | None = None,
                    on_error: str = "raise",
                    scopes: Sequence | None = None,
                    matrix_backend: str | None = None,
                    lane_rejection_budget: int = 24) -> BatchTranResult:
    """Integrate every lane from t = 0 to ``t_stop`` in lockstep.

    All lanes advance on one shared adaptive grid: per attempted step
    there is a single stacked damped-Newton solve over ``(B, N, N)``
    dense or ``(B, nnz)`` shared-pattern sparse rows (the trapezoidal /
    BE charge companions stamped per lane through the serial kernel's
    ``extra_stamp`` slot), then one LTE estimate *per lane*, reduced to
    a shared verdict by the min-rule: any lane over tolerance rejects
    the step for everyone, and the accepted-growth factor is the most
    conservative lane's ask (same growth cap / shrink floor as the
    serial controller).  Sparse campaigns keep one
    :class:`_SparseChordState` across accepted steps, so an unchanged
    dt lets lanes ride chord steps on the previous step's LU handles.

    Per-lane kick-out mirrors the batched-DC fallback contract: a lane
    that fails its initial DC point, fails Newton with the step floored
    at ``dt_min``, or accumulates more than ``lane_rejection_budget``
    attributed rejections leaves the grid and re-runs the full serial
    ladder + serial :func:`~repro.spice.transient.transient` with its
    perturbation applied -- robustness is never worse than serial, and
    lanes that fail everything carry a failed-lane record.

    ``scopes``, when given, is one
    :class:`~repro.scope.capture.ScopeSession` (or None) per lane;
    every committed shared sample is fed to the lane's session exactly
    as the serial engine would (t = 0 included), and a kicked-out
    lane's session is reset and handed to its serial fallback run.

    ``on_error="raise"`` propagates the first failed lane's error;
    ``"skip"`` records None results and keeps going.  Telemetry: the
    run counts ``batch_transient_steps`` (one per accepted shared
    step) and ``batch_transient_lane_rejections`` (one per attributed
    lane rejection) under its ``batch-transient`` span.
    """
    if t_stop <= 0.0:
        raise NetlistError(f"t_stop must be positive, got {t_stop}")
    options = options or TransientOptions()
    if options.method not in ("trap", "be"):
        raise NetlistError(f"unknown method {options.method!r}")
    if options.step_control != "lte":
        raise AnalysisError(
            "the batched transient engine is LTE-only; "
            "step_control='legacy' is a serial bit-compat mode -- run "
            "those lanes through the serial transient()")
    if on_error not in ("raise", "skip"):
        raise NetlistError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    lanes = list(lanes)
    if scopes is not None:
        scopes = list(scopes)
        if len(scopes) != len(lanes):
            raise AnalysisError(
                f"scopes must be one session (or None) per lane: got "
                f"{len(scopes)} for {len(lanes)} lanes")
    if matrix_backend is not None:
        if matrix_backend not in circuit.MATRIX_BACKENDS:
            raise NetlistError(
                f"unknown matrix backend {matrix_backend!r}, expected "
                f"one of {circuit.MATRIX_BACKENDS}")
        if matrix_backend != circuit.matrix_backend:
            circuit.matrix_backend = matrix_backend
            if circuit._compiled is not None:
                circuit._compiled._solver_backend = None
    with telemetry.span("batch-transient", circuit=circuit.name,
                        batch=len(lanes), t_stop=t_stop,
                        method=options.method) as tspan:
        return _batch_transient_run(circuit, lanes, t_stop, options,
                                    on_error, scopes,
                                    lane_rejection_budget, tspan)


def _batch_transient_run(circuit: "Circuit", lanes: list[LaneSpec],
                         t_stop: float, options: TransientOptions,
                         on_error: str, scopes,
                         budget: int, tspan) -> BatchTranResult:
    start = _time.perf_counter()
    B = len(lanes)
    dt = options.dt_initial or t_stop / 1000.0
    dt_min = options.dt_min or t_stop * 1e-9
    dt_max = options.dt_max or t_stop / 50.0
    dt = min(dt, dt_max)
    newton_options = options.newton
    deadline = None
    if options.max_wall_time is not None:
        deadline = start + options.max_wall_time
        newton_options = dataclasses.replace(newton_options,
                                             deadline=deadline)
    # Same Newton/waveform tolerance coupling as the serial LTE path.
    newton_options = dataclasses.replace(
        newton_options, vntol=max(newton_options.vntol, options.abstol))
    order = 2 if options.method == "trap" else 1

    compiled = circuit.compile()
    assembler = BatchAssembler(compiled, lanes)
    use_sparse = compiled.solver_backend() == "sparse"
    if use_sparse:
        assembler.enable_sparse()
        tspan.annotate(matrix_backend="sparse")
    system = assembler.sparse_batch_system() if use_sparse else None
    seg_slices = system.segment_slices if use_sparse else None
    n_nodes = len(compiled.node_index)
    N = compiled.size

    results: list = [None] * B
    failures: list[tuple[int, ConvergenceError]] = []
    lane_logs = [TransientTelemetry() for _ in range(B)]
    lane_newton_iters = np.zeros(B, dtype=int)
    diag = BatchTranDiagnostics(circuit=circuit.name, batch=B,
                                lane_rejections=np.zeros(B, dtype=int))
    first_error: ConvergenceError | None = None
    live_mask = np.ones(B, dtype=bool)

    def _serial_options() -> TransientOptions:
        if deadline is None:
            return options
        remaining = max(deadline - _time.perf_counter(), 0.0)
        return dataclasses.replace(options, max_wall_time=remaining)

    def _kick_out(lane_index: int, reason: str) -> None:
        """Move one lane off the shared grid onto the serial path."""
        nonlocal first_error
        live_mask[lane_index] = False
        diag.fallback_lanes.append((lane_index, reason))
        tspan.inc("batch_lane_fallbacks")
        tspan.event("lane-fallback", lane=lane_index,
                    label=lanes[lane_index].label, why=reason)
        scope = scopes[lane_index] if scopes is not None else None
        if scope is not None:
            # The session saw the lane's partial lockstep stream; the
            # serial rerun replays the waveform from t = 0, so the
            # session restarts clean (single-use contract preserved).
            scope.reset()
        undo = apply_lane(circuit, lanes[lane_index])
        try:
            results[lane_index] = transient(circuit, t_stop,
                                            _serial_options(),
                                            scope=scope)
        except ConvergenceError as error:
            failures.append((lane_index, error))
            if first_error is None:
                first_error = error
            tspan.event("lane-failed", lane=lane_index,
                        label=lanes[lane_index].label, why=str(error))
        finally:
            undo()

    # Initial DC point per lane, stacked; a lane that fails every DC
    # strategy never enters the grid (serial transient would have
    # raised before its first step too).
    dc = batch_operating_point(circuit, lanes, options=newton_options,
                               on_error="skip")
    for lane_index, error in dc.failures:
        live_mask[lane_index] = False
        diag.fallback_lanes.append(
            (lane_index, f"initial operating point failed: {error}"))
        failures.append((lane_index, error))
        if first_error is None:
            first_error = error
    if on_error == "raise" and failures:
        raise first_error

    X = np.zeros((B, N))
    for k in np.nonzero(live_mask)[0]:
        X[k] = dc.points[k].x

    live = np.nonzero(live_mask)[0].astype(np.intp)
    q_prev = np.zeros((B, assembler.n_charge_terms))
    i_prev = np.zeros_like(q_prev)
    if live.size:
        q_prev[live] = assembler.charge_vector_batch(X[live])

    record_dense = [scopes is None or scopes[k] is None
                    or not scopes[k].replace_dense for k in range(B)]
    times = [0.0]
    samples: dict[int, list] = {}
    for k in live:
        k = int(k)
        if record_dense[k]:
            samples[k] = [X[k].copy()]
        scope = scopes[k] if scopes is not None else None
        if scope is not None:
            scope._bind(compiled.node_index, circuit.name, tspan)
            scope._on_sample(0.0, X[k])
    recorded_sources = [e for e in circuit.elements
                        if isinstance(e, VoltageSource)]

    breakpoints = _breakpoints(circuit, t_stop)
    bp_cursor = 0
    hist_t: list[float] = [0.0]
    hist_X: list[np.ndarray] = [X.copy()]
    chord = (_SparseChordState()
             if use_sparse and newton_options.lu_reuse else None)
    aborted: ConvergenceError | None = None

    def _reject(cause: str, bad: np.ndarray, t: float, step: float,
                err_norms=None) -> bool:
        """Book one shared rejection attributed to lanes ``bad``;
        returns False when the run-level rejection budget is gone."""
        nonlocal aborted
        diag.steps_rejected += 1
        diag.lane_rejections[bad] += 1
        tspan.inc("batch_transient_lane_rejections", int(bad.size))
        tspan.event("batch-step-rejected", t=t, dt=step, cause=cause,
                    lanes=[int(l) for l in bad],
                    **({} if err_norms is None else
                       {"err_norm": float(np.max(err_norms))}))
        for lane in bad:
            lane_logs[int(lane)].record_rejection(t, cause)
        if (options.max_rejections is not None
                and diag.steps_rejected > options.max_rejections):
            aborted = ConvergenceError(
                f"batched transient exhausted its rejection budget of "
                f"{options.max_rejections} at t={t:.3e}s in "
                f"{circuit.name} ({diag.describe()})",
                diagnostics=diag, stage="rejection-budget")
            return False
        return True

    t = 0.0
    while live_mask.any() and t < t_stop * (1.0 - 1e-12):
        if deadline is not None and _time.perf_counter() >= deadline:
            aborted = ConvergenceError(
                f"batched transient exceeded its wall-clock budget of "
                f"{options.max_wall_time:.3g}s at t={t:.3e}s "
                f"({t / t_stop:.0%} of t_stop) in {circuit.name} "
                f"({diag.describe()})",
                diagnostics=diag, stage="wall-clock")
            break
        while (bp_cursor < len(breakpoints)
               and breakpoints[bp_cursor] <= t * (1 + 1e-12)):
            bp_cursor += 1
        t_limit = (breakpoints[bp_cursor] if bp_cursor < len(breakpoints)
                   else t_stop)
        t_limit = min(t_limit, t_stop)
        step = min(dt, t_limit - t)
        if step <= 0.0:
            bp_cursor += 1
            continue

        accepted = False
        err_norms = None
        pred_order = 0
        while not accepted:
            live = np.nonzero(live_mask)[0].astype(np.intp)
            if live.size == 0:
                break
            t_new = t + step
            if options.method == "trap":
                c0 = 2.0 / step
                RHS = -c0 * q_prev - i_prev
            else:
                c0 = 1.0 / step
                RHS = -c0 * q_prev
            if chord is not None:
                # dt (hence c0) changed => the companion stamps changed
                # => every cached per-lane factorization is stale.
                chord.ensure_key(c0)

            def dynamic_stamp(target, res, Xa, lane_idx,
                              _c0=c0, _rhs=RHS):
                assembler.stamp_charges_batch(
                    target, res, Xa, _c0, _rhs[lane_idx],
                    segment_slices=seg_slices)

            # Shared-grid predictor: the LTE reference and Newton's
            # warm start, exactly like the serial controller (the
            # scalar Lagrange weights broadcast over the stacked
            # history rows unchanged).
            X_pred = None
            pred_order = 0
            if len(hist_t) >= 2:
                k = min(order + 1, len(hist_t))
                candidate = _predict(t_new, hist_t, hist_X, k)
                if np.all(np.isfinite(candidate[live])):
                    X_pred = candidate
                    pred_order = k - 1
            X_try = X.copy()
            if X_pred is not None:
                X_try[live] = X_pred[live]
            outcome = _newton_rounds(assembler, X_try, live,
                                     newton_options,
                                     newton_options.gmin, [],
                                     time=t_new, extra=dynamic_stamp,
                                     chord=chord)
            ok = (outcome.converged[live]
                  & np.all(np.isfinite(X_try[live]), axis=1))
            solved_iters = np.where(ok, outcome.iterations[live], 0)
            lane_newton_iters[live] += solved_iters
            diag.newton_iterations += int(solved_iters.sum())
            if not ok.all():
                if deadline is not None and \
                        _time.perf_counter() >= deadline:
                    # Budget-killed stacked solves surface as the
                    # wall-clock abort, not a dt-min grind.
                    aborted = ConvergenceError(
                        f"batched transient exceeded its wall-clock "
                        f"budget of {options.max_wall_time:.3g}s at "
                        f"t={t:.3e}s in {circuit.name} "
                        f"({diag.describe()})",
                        diagnostics=diag, stage="wall-clock")
                    break
                failed = live[~ok]
                if not _reject("newton", failed, t, step):
                    break
                at_floor = step / 4.0 < dt_min
                for lane in failed:
                    lane = int(lane)
                    why = outcome.reasons.get(
                        lane, "Newton failed on the shared grid")
                    if at_floor:
                        _kick_out(lane,
                                  f"Newton failed with the shared step "
                                  f"floored at dt_min={dt_min:.1e} "
                                  f"(t={t:.3e}s): {why}")
                    elif diag.lane_rejections[lane] > budget:
                        _kick_out(lane,
                                  f"lane exceeded its rejection budget "
                                  f"of {budget} on the shared grid "
                                  f"(t={t:.3e}s, Newton: {why})")
                if any(live_mask[lane] for lane in failed):
                    step /= 4.0
                continue

            err_norms = None
            if X_pred is not None:
                err_norms = _lte_norms_batch(
                    t_new, X_try[live], X_pred[live], hist_t,
                    hist_X[-1][live], n_nodes, pred_order, options)
                # Reduced-order estimates steer but never reject, as
                # in the serial controller.
                if pred_order == order:
                    rejecting = err_norms > 1.0
                    if rejecting.any():
                        if step <= dt_min * (1.0 + 1e-9):
                            tspan.event(
                                "lte-floor", t=t, dt=step,
                                err_norm=float(err_norms.max()))
                        else:
                            bad = live[rejecting]
                            bad_errs = err_norms[rejecting]
                            if not _reject("lte", bad, t, step,
                                           bad_errs):
                                break
                            for lane, e_norm in zip(bad, bad_errs):
                                lane = int(lane)
                                if diag.lane_rejections[lane] > budget:
                                    _kick_out(
                                        lane,
                                        f"lane kept rejecting the "
                                        f"shared grid (budget {budget} "
                                        f"exceeded at t={t:.3e}s, last "
                                        f"LTE norm {float(e_norm):.3g})")
                            survivors = [live_mask[int(lane)]
                                         for lane in bad]
                            if any(survivors):
                                # Min-rule: the worst surviving lane's
                                # ask shrinks the shared step.
                                worst = float(np.max(
                                    bad_errs[np.asarray(survivors)]))
                                factor = max(
                                    _LTE_MIN_SHRINK,
                                    min(0.9, _lte_factor(worst,
                                                         pred_order)))
                                step = max(dt_min, step * factor)
                            continue
            accepted = True

        if aborted is not None:
            break
        if not accepted:
            continue

        # Commit the shared step.
        q_new = assembler.charge_vector_batch(X_try[live])
        q_prev[live] = q_new
        i_prev[live] = c0 * q_new + RHS[live]
        X[live] = X_try[live]
        t = t_new
        diag.steps_accepted += 1
        diag.dt_smallest = min(diag.dt_smallest, step)
        tspan.inc("batch_transient_steps")
        times.append(t)
        for k in live:
            k = int(k)
            lane_logs[k].steps_accepted += 1
            lane_logs[k].dt_smallest = min(lane_logs[k].dt_smallest,
                                           step)
            if record_dense[k]:
                samples[k].append(X[k].copy())
            scope = scopes[k] if scopes is not None else None
            if scope is not None:
                scope._on_sample(t, X[k])

        landed_on_breakpoint = (
            bp_cursor < len(breakpoints)
            and t >= breakpoints[bp_cursor] * (1 - 1e-12))
        if landed_on_breakpoint:
            hist_t = []
            hist_X = []
            gap = (breakpoints[bp_cursor + 1]
                   if bp_cursor + 1 < len(breakpoints)
                   else t_stop) - t
            dt = max(dt_min,
                     min(step, gap * _BREAKPOINT_RESTART_FRACTION))
        else:
            hist_t.append(t)
            hist_X.append(X.copy())
            if len(hist_t) > order + 1:
                del hist_t[0], hist_X[0]
            if err_norms is None:
                factor = 1.0
            else:
                # Min-rule growth: the most conservative lane (largest
                # error norm) sets the shared next step.
                factor = min(_LTE_MAX_GROWTH,
                             max(0.3, _lte_factor(float(err_norms.max()),
                                                  pred_order)))
            dt = min(dt_max, max(dt_min, step * factor))

    if aborted is not None:
        if on_error == "raise":
            raise aborted
        for k in np.nonzero(live_mask)[0]:
            failures.append((int(k), aborted))
            live_mask[k] = False

    # Package the lockstep survivors onto the shared time axis.
    lockstep = np.nonzero(live_mask)[0]
    time_axis = np.asarray(times)
    for k in lockstep:
        k = int(k)
        scope = scopes[k] if scopes is not None else None
        if scope is not None:
            scope._finish()
        lane_logs[k].newton_iterations = int(lane_newton_iters[k])
        if record_dense[k]:
            lane_samples = samples[k]
            store = np.empty((N, len(lane_samples)))
            for j, vec in enumerate(lane_samples):
                store[:, j] = vec
                lane_samples[j] = None
            voltages = {name: store[idx]
                        for name, idx in compiled.node_index.items()}
            branch = ({e.name: store[compiled.aux_index[e.name][0]]
                       for e in recorded_sources}
                      if options.record_currents else {})
        else:
            voltages = {}
            branch = {}
        results[k] = TranResult(time=time_axis, voltages=voltages,
                                branch_currents=branch,
                                telemetry=lane_logs[k])

    fallback_serial_steps = sum(
        results[k].telemetry.steps_accepted
        for k, _reason in diag.fallback_lanes
        if results[k] is not None and results[k].telemetry is not None)
    lane_samples_total = sum(len(r.time) - 1
                             for r in results if r is not None)
    diag.n_failed = len(failures)
    diag.wall_time = _time.perf_counter() - start
    tspan.annotate(steps_accepted=diag.steps_accepted,
                   steps_rejected=diag.steps_rejected,
                   lanes_lockstep=int(lockstep.size),
                   lane_rejections=int(diag.lane_rejections.sum()),
                   n_fallback=len(diag.fallback_lanes),
                   n_failed=diag.n_failed,
                   fallback_serial_steps=int(fallback_serial_steps),
                   lane_samples=int(lane_samples_total))
    if failures and on_error == "raise":
        raise first_error
    return BatchTranResult(results=results, failures=failures,
                           diagnostics=diag)


@dataclass(frozen=True)
class BatchedOpSweep:
    """A 1-D sweep whose evaluation is one DC operating point per value.

    Serial path (calling the spec with a value) and the batched backend
    of :func:`~repro.analysis.sweep.sweep_1d` share ``lane`` /
    :func:`apply_lane`, so both stamp the swept value identically.
    """

    build: Callable[[], "Circuit"]
    lane: Callable[[float, "Circuit"], LaneSpec]
    measure: Callable[["OpResult"], Mapping[str, float]]
    options: NewtonOptions | None = None
    strategies: tuple | None = None

    def __call__(self, value: float) -> dict[str, float]:
        from .dc import operating_point
        circuit = self.build()
        spec = self.lane(float(value), circuit)
        undo = apply_lane(circuit, spec)
        try:
            result = operating_point(circuit, self.options,
                                     strategies=self.strategies)
            return {name: float(v)
                    for name, v in self.measure(result).items()}
        finally:
            undo()


@dataclass(frozen=True)
class BatchedTranMetric:
    """A Monte-Carlo metric whose evaluation is one transient run.

    The transient twin of :class:`BatchedOpMetric`: calling the spec
    with a seed is the serial path (build a fresh circuit, apply the
    drawn lane, run the serial :func:`~repro.spice.transient.transient`,
    measure the waveform), and the same spec is the vectorizable
    description :class:`~repro.analysis.montecarlo.MonteCarlo` runs as
    **one** lockstep :func:`batch_transient` campaign under
    ``backend="batched"``.  Both paths share ``draw`` /
    :func:`apply_lane`, so they see bit-identical perturbations.

    Attributes:
        build: Zero-argument factory for a fresh base circuit.
        draw: ``(seed, circuit) -> LaneSpec``; a pure function of the
            seed.
        measure: ``TranResult -> {metric: value}`` over the waveforms.
        t_stop: Integration stop time [s].
        options: Transient options shared by both paths (on a fixed
            grid -- ``dt_initial == dt_min == dt_max`` -- the two
            backends walk the identical time axis).
    """

    build: Callable[[], "Circuit"]
    draw: Callable[[int, "Circuit"], LaneSpec]
    measure: Callable[[TranResult], Mapping[str, float]]
    t_stop: float = 0.0
    options: TransientOptions | None = None

    def __call__(self, seed: int) -> dict[str, float]:
        circuit = self.build()
        lane = self.draw(seed, circuit)
        undo = apply_lane(circuit, lane)
        try:
            result = transient(circuit, self.t_stop, self.options)
            return {name: float(value)
                    for name, value in self.measure(result).items()}
        finally:
            undo()
