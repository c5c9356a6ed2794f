"""Vectorized MNA assembly: constant linear part + array-valued restamp.

A :class:`CircuitAssembler` is built once per :class:`CompiledCircuit`
and replaces the per-element Python stamping loop on the Newton hot
path.  It splits the system into

* a **constant linear part** -- resistors, controlled sources and the
  incidence/branch topology of independent sources -- accumulated into
  one dense matrix ``G_const`` at build time, so each Newton iteration
  contributes it with a single ``copyto`` + matvec;
* a **per-iteration source RHS** -- the waveform values of independent
  sources (user callables, evaluated once per distinct element and
  cached per timestamp and waveform identity), scattered with one
  ``np.add.at``;
* a **vectorized nonlinear restamp** -- every MOS transistor and diode
  of the circuit is grouped into a :class:`~repro.devices.mosfet.MosBank`
  / :class:`~repro.devices.diode.DiodeBank` and evaluated with one
  array-valued model call per iteration, scattered into the Jacobian
  through precomputed flat index arrays;
* a **fallback list** -- any element type the assembler does not know
  (user subclasses of :class:`~repro.spice.elements.Element`) keeps the
  classic per-element ``stamp`` call, so extensibility is preserved.

The assembler also owns the vectorized *charge* system used by the
transient engine: linear capacitors contribute a constant scatter
pattern scaled by the integration coefficient, diode depletion charges
are evaluated through the bank.

Because element *values* (a resistance aged by
:class:`~repro.faults.models.ResistorDrift`, a device swapped by
:class:`~repro.faults.models.VtOutlier`) may be mutated without going
through :class:`~repro.spice.netlist.Circuit`, the assembler keeps a
value signature and :meth:`sync` rebuilds the cached arrays whenever it
changed.  ``sync`` runs once per solve, not once per Newton iteration.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..devices.diode import DiodeBank
from ..devices.mosfet import MosBank, MosOperatingPoint
from .elements import (
    Capacitor,
    CurrentSource,
    DiodeElement,
    Element,
    MosElement,
    Resistor,
    Stamper,
    Vccs,
    Vcvs,
    VoltageSource,
)
from .sparse import SparseStamper, SparseSystem, coo_to_csr
from .subckt import Instance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import CompiledCircuit


class _InstanceGroup:
    """All instances of one subcircuit, with their local->global LUTs
    stacked into a ``(K, cell_size + 1)`` matrix so cell scatter
    patterns tile across instances with one fancy-index (the trailing
    sentinel column maps local ground ``-1`` to global ``-1``)."""

    __slots__ = ("plan", "instances", "lut_matrix")

    def __init__(self, plan, instances: list[Instance]) -> None:
        self.plan = plan
        self.instances = instances
        self.lut_matrix = np.stack([inst.lut for inst in instances])


def _masked_flat(rows: np.ndarray, cols: np.ndarray,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """(valid mask, flat indices of the valid entries) for a scatter
    into the raveled dense Jacobian; ground rows/columns are dropped."""
    valid = (rows >= 0) & (cols >= 0)
    flat = rows[valid].astype(np.intp) * size + cols[valid].astype(np.intp)
    return valid, flat


class CircuitAssembler:
    """Compile-once stamping engine for one :class:`CompiledCircuit`."""

    def __init__(self, compiled: "CompiledCircuit") -> None:
        self.compiled = compiled
        self.size = compiled.size
        self._signature: tuple | None = None
        self._xg = np.empty(self.size + 1)
        self._sparse_system: SparseSystem | None = None
        self._partition()
        self.sync()

    # -- structure ------------------------------------------------------

    def _partition(self) -> None:
        """Split elements by type; structure is fixed for the lifetime
        of the compiled circuit (structural edits recompile)."""
        self._resistors: list[Resistor] = []
        self._vsources: list[VoltageSource] = []
        self._isources: list[CurrentSource] = []
        self._vcvs: list[Vcvs] = []
        self._vccs: list[Vccs] = []
        self._capacitors: list[Capacitor] = []
        self._diodes: list[DiodeElement] = []
        self._mos: list[MosElement] = []
        self._instances: list[Instance] = []
        self._fallback: list = []
        for element in self.compiled.circuit.elements:
            if isinstance(element, Resistor):
                self._resistors.append(element)
            elif isinstance(element, VoltageSource):
                self._vsources.append(element)
            elif isinstance(element, CurrentSource):
                self._isources.append(element)
            elif isinstance(element, Vcvs):
                self._vcvs.append(element)
            elif isinstance(element, Vccs):
                self._vccs.append(element)
            elif isinstance(element, Capacitor):
                self._capacitors.append(element)
            elif isinstance(element, DiodeElement):
                self._diodes.append(element)
            elif isinstance(element, MosElement):
                self._mos.append(element)
            elif isinstance(element, Instance):
                self._instances.append(element)
            else:
                self._fallback.append(element)
        # Instances of the same subcircuit share one compiled cell plan;
        # grouping them lets every build pass tile the cell's index
        # arrays across all K placements with vectorized arithmetic.
        by_cell: dict[int, list[Instance]] = {}
        cell_order: list[Instance] = []
        for inst in self._instances:
            key = id(inst.subcircuit)
            if key not in by_cell:
                by_cell[key] = []
                cell_order.append(inst)
            by_cell[key].append(inst)
        self._instance_groups = [
            _InstanceGroup(inst.subcircuit.plan(), by_cell[id(inst.subcircuit)])
            for inst in cell_order]

    def _value_signature(self) -> tuple:
        """Every mutable value baked into the cached arrays."""
        return (
            tuple(r.resistance for r in self._resistors),
            tuple(e.gain for e in self._vcvs),
            tuple(e.gm for e in self._vccs),
            tuple(c.capacitance for c in self._capacitors),
            tuple((id(m.device), m.device.vt_shift, m.device.beta_factor,
                   m.device.w, m.device.l, m.device.m, m.temperature)
                  for m in self._mos),
            tuple((id(d.diode), d.diode.area, d.temperature)
                  for d in self._diodes),
            # Template element values ride along so a mutation inside a
            # cell (a swapped device model, an aged resistor) rebuilds
            # the parent arrays too.
            tuple(grp.plan.assembler._value_signature()
                  for grp in self._instance_groups),
        )

    def sync(self) -> bool:
        """Rebuild the cached arrays when element values changed.

        Returns True when a rebuild happened.  Cheap when nothing
        changed: one pass collecting plain attribute reads.
        """
        signature = self._value_signature()
        if signature == self._signature:
            return False
        self._signature = signature
        self._build_linear()
        self._build_mos()
        self._build_diodes()
        self._build_charges()
        return True

    # -- build passes ---------------------------------------------------

    def _build_linear(self) -> None:
        size = self.size
        g = np.zeros((size, size))
        # Triplet twin of the dense accumulation: the sparse backend
        # replays exactly this contribution sequence through bincount,
        # which is what makes its assembled entries bit-identical.
        lin_rows: list[int] = []
        lin_cols: list[int] = []
        lin_vals: list[float] = []

        def add(row: int, col: int, value: float) -> None:
            if row >= 0 and col >= 0:
                g[row, col] += value
                lin_rows.append(row)
                lin_cols.append(col)
                lin_vals.append(value)

        for r in self._resistors:
            a, b = r._idx
            cond = 1.0 / r.resistance
            add(a, a, cond)
            add(a, b, -cond)
            add(b, a, -cond)
            add(b, b, cond)
        for e in self._vsources:
            p, n = e._idx
            (br,) = e._aux
            add(p, br, 1.0)
            add(n, br, -1.0)
            add(br, p, 1.0)
            add(br, n, -1.0)
        for e in self._vcvs:
            p, n, cp, cn = e._idx
            (br,) = e._aux
            add(p, br, 1.0)
            add(n, br, -1.0)
            add(br, p, 1.0)
            add(br, n, -1.0)
            add(br, cp, -e.gain)
            add(br, cn, e.gain)
        for e in self._vccs:
            p, n, cp, cn = e._idx
            add(p, cp, e.gm)
            add(p, cn, -e.gm)
            add(n, cp, -e.gm)
            add(n, cn, e.gm)
        self._g_const = g
        rows_parts = [np.asarray(lin_rows, dtype=np.intp)]
        cols_parts = [np.asarray(lin_cols, dtype=np.intp)]
        vals_parts = [np.asarray(lin_vals, dtype=float)]
        # Instance expansion: tile each cell's linear triplets through
        # the stacked LUTs.  Ports bound to parent ground introduce new
        # ground entries (local index >= 0, global -1), so the mapped
        # triplets are re-masked; ports tied to one parent net create
        # duplicate coordinates, which both the dense ``np.add.at`` and
        # the sparse bincount replay accumulate identically.
        for grp in self._instance_groups:
            t_asm = grp.plan.assembler
            t_asm.sync()
            if not t_asm._lin_rows.size:
                continue
            rows_g = grp.lut_matrix[:, t_asm._lin_rows]
            cols_g = grp.lut_matrix[:, t_asm._lin_cols]
            vals_g = np.broadcast_to(t_asm._lin_vals, rows_g.shape)
            mask = (rows_g >= 0) & (cols_g >= 0)
            r, c, v = rows_g[mask], cols_g[mask], vals_g[mask]
            np.add.at(g, (r, c), v)
            rows_parts.append(r)
            cols_parts.append(c)
            vals_parts.append(v)
        self._lin_rows = np.concatenate(rows_parts)
        self._lin_cols = np.concatenate(cols_parts)
        self._lin_vals = np.concatenate(vals_parts)
        self._lin_csr = None  # rebuilt lazily after value syncs
        # Source bookkeeping for the per-iteration RHS.  The expanded
        # source list is the top-level sources followed by every
        # instance's template sources (vsources, then isources); value
        # column k of :meth:`_source_values` is source k of that list.
        # Template sources are shared by their instances, so each
        # distinct element is evaluated once and expanded by index.
        vsrc: list[VoltageSource] = list(self._vsources)
        isrc: list[CurrentSource] = list(self._isources)
        branch_rows = [e._aux[0] for e in self._vsources]
        isrc_nodes = [e._idx for e in self._isources]
        for grp in self._instance_groups:
            plan = grp.plan
            if not (plan.vsrc_elements or plan.isrc_elements):
                continue
            for inst in grp.instances:
                vsrc.extend(plan.vsrc_elements)
                branch_rows.extend(int(r) for r in inst.lut[plan.vsrc_rows])
                isrc.extend(plan.isrc_elements)
                isrc_nodes.extend(
                    (int(p), int(n)) for p, n in inst.lut[plan.isrc_nodes])
        self._n_vsrc = len(vsrc)
        unique: dict[int, int] = {}
        self._src_unique: list[VoltageSource | CurrentSource] = []
        for element in vsrc + isrc:
            if id(element) not in unique:
                unique[id(element)] = len(self._src_unique)
                self._src_unique.append(element)
        self._src_expand = np.array([unique[id(e)] for e in vsrc + isrc],
                                    dtype=np.intp)
        # One interleaved scatter in per-source order -- ``res[row] -=
        # v`` for every vsource, then ``res[p] += i; res[n] -= i`` per
        # isource (ground skipped) -- so duplicate targets accumulate
        # in the same sequence as a per-source loop would.
        idx, take, sign = [], [], []
        for k, row in enumerate(branch_rows):
            idx.append(row)
            take.append(k)
            sign.append(-1.0)
        for k, (p, n) in enumerate(isrc_nodes, start=self._n_vsrc):
            for node, node_sign in ((p, 1.0), (n, -1.0)):
                if node >= 0:
                    idx.append(node)
                    take.append(k)
                    sign.append(node_sign)
        self._src_idx = np.array(idx, dtype=np.intp)
        self._src_take = np.array(take, dtype=np.intp)
        self._src_sign = np.array(sign)
        self._src_cache: tuple | None = None

    def _build_mos(self) -> None:
        mos = list(self._mos)
        names = [m.name for m in mos]
        idx_parts = []
        if mos:
            idx_parts.append(np.array([m._idx for m in mos],
                                      dtype=np.intp).reshape(-1, 4))
        for grp in self._instance_groups:
            plan = grp.plan
            if not plan.mos_elements:
                continue
            # Instance-major blocks: (K, n_cell_mos, 4) -> rows, matching
            # the repeated element list below.
            idx_parts.append(
                grp.lut_matrix[:, plan.mos_idx].reshape(-1, 4))
            mos.extend(plan.mos_elements * len(grp.instances))
            names.extend(f"{inst.name}.{m.name}"
                         for inst in grp.instances
                         for m in plan.mos_elements)
        self._mos_all = mos
        self._mos_names = names
        self._mos_bank = None
        if not mos:
            return
        self._mos_bank = MosBank([m.device for m in mos],
                                 [m.temperature for m in mos])
        idx = np.vstack(idx_parts)  # (n, dgsb)
        d, g, s, b = idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]
        self._mos_terms = (d, g, s, b)
        self._mos_d_mask = d >= 0
        self._mos_s_mask = s >= 0
        self._mos_d_idx = d[self._mos_d_mask]
        self._mos_s_idx = s[self._mos_s_mask]
        self._mos_d_all = bool(self._mos_d_mask.all())
        self._mos_s_all = bool(self._mos_s_mask.all())
        # Jacobian scatter: rows (d, s) x cols (d, g, s, b), with the
        # source-row block negated -- the exact entries of
        # MosElement.stamp, flattened.
        rows = np.concatenate([d, d, d, d, s, s, s, s])
        cols = np.concatenate([d, g, s, b, d, g, s, b])
        self._mos_valid, self._mos_flat = _masked_flat(rows, cols,
                                                       self.size)
        self._mos_sign = np.concatenate(
            [np.ones(4 * len(mos)), -np.ones(4 * len(mos))])
        self._mos_valid_all = bool(self._mos_valid.all())
        self._mos_buf = np.empty(8 * len(mos))

    def _build_diodes(self) -> None:
        diodes = list(self._diodes)
        idx_parts = []
        if diodes:
            idx_parts.append(np.array([d._idx for d in diodes],
                                      dtype=np.intp).reshape(-1, 2))
        for grp in self._instance_groups:
            plan = grp.plan
            if not plan.diode_elements:
                continue
            idx_parts.append(
                grp.lut_matrix[:, plan.diode_idx].reshape(-1, 2))
            diodes.extend(plan.diode_elements * len(grp.instances))
        self._diodes_all = diodes
        self._diode_bank = None
        if not diodes:
            return
        self._diode_bank = DiodeBank([d.diode for d in diodes],
                                     [d.temperature for d in diodes])
        idx = np.vstack(idx_parts)
        a, c = idx[:, 0], idx[:, 1]
        self._diode_terms = (a, c)
        self._diode_a_mask = a >= 0
        self._diode_c_mask = c >= 0
        self._diode_a_idx = a[self._diode_a_mask]
        self._diode_c_idx = c[self._diode_c_mask]
        rows = np.concatenate([a, a, c, c])
        cols = np.concatenate([a, c, a, c])
        self._diode_valid, self._diode_flat = _masked_flat(rows, cols,
                                                           self.size)
        self._diode_sign = np.concatenate(
            [np.ones(len(diodes)), -np.ones(len(diodes)),
             -np.ones(len(diodes)), np.ones(len(diodes))])

    def _build_charges(self) -> None:
        """Vectorized charge system (transient companion models).

        Term order matches ``CompiledCircuit.charge_terms``: element
        insertion order, one term per capacitor / diode.  An unknown
        element subclass overriding ``charge_terms`` cannot be
        vectorized blindly; its presence disables this fast path
        (``charges_vectorized`` False) and the transient engine falls
        back to the per-element API.
        """
        self.charges_vectorized = all(
            type(e).charge_terms is Element.charge_terms
            for e in self._fallback)
        slot = 0
        cap_slots, cap_pos, cap_neg, cap_c = [], [], [], []
        dio_slots = []
        # Diode slots must end up aligned with the *bank* order (top
        # diodes, then group by group, instance by instance), which the
        # insertion-order walk below does not follow when instances
        # interleave with top-level diodes -- so instance chunks are
        # collected aside and concatenated in bank order afterwards.
        inst_dio_chunks: dict[int, np.ndarray] = {}
        for element in self.compiled.circuit.elements:
            if isinstance(element, Capacitor):
                a, b = element._idx
                cap_slots.append(slot)
                cap_pos.append(a)
                cap_neg.append(b)
                cap_c.append(element.capacitance)
                slot += 1
            elif isinstance(element, DiodeElement):
                dio_slots.append(slot)
                slot += 1
            elif isinstance(element, Instance):
                plan = element.subcircuit.plan()
                lut = element.lut
                if plan.cap_offsets.size:
                    cap_slots.extend(
                        int(s) for s in slot + plan.cap_offsets)
                    cap_pos.extend(int(i) for i in lut[plan.cap_pos])
                    cap_neg.extend(int(i) for i in lut[plan.cap_neg])
                    cap_c.extend(plan.assembler._cap_c)
                if plan.dio_offsets.size:
                    inst_dio_chunks[id(element)] = slot + plan.dio_offsets
                slot += plan.n_charge_terms
        self.n_charge_terms = slot
        self._cap_slots = np.array(cap_slots, dtype=np.intp)
        self._cap_pos = np.array(cap_pos, dtype=np.intp)
        self._cap_neg = np.array(cap_neg, dtype=np.intp)
        self._cap_c = np.array(cap_c, dtype=float)
        self._cap_pos_mask = self._cap_pos >= 0
        self._cap_neg_mask = self._cap_neg >= 0
        self._cap_pos_idx = self._cap_pos[self._cap_pos_mask]
        self._cap_neg_idx = self._cap_neg[self._cap_neg_mask]
        rows = np.concatenate([self._cap_pos, self._cap_pos,
                               self._cap_neg, self._cap_neg])
        cols = np.concatenate([self._cap_pos, self._cap_neg,
                               self._cap_pos, self._cap_neg])
        self._cap_valid, self._cap_flat = _masked_flat(rows, cols,
                                                       self.size)
        n_caps = len(cap_slots)
        self._cap_jac_base = np.concatenate(
            [self._cap_c, -self._cap_c, -self._cap_c, self._cap_c]
        )[self._cap_valid] if n_caps else np.zeros(0)
        dio_parts = [np.array(dio_slots, dtype=np.intp)]
        for grp in self._instance_groups:
            for inst in grp.instances:
                chunk = inst_dio_chunks.get(id(inst))
                if chunk is not None:
                    dio_parts.append(chunk)
        self._dio_slots = np.concatenate(dio_parts)

    # -- sparse twin ----------------------------------------------------

    @property
    def sparse_eligible(self) -> bool:
        """Whether every element of the circuit stamps through a known
        scatter pattern.  Foreign :class:`Element` subclasses stamp
        imperatively through the dense ``add_j`` API, which has no
        triplet twin, so their presence pins the circuit to the dense
        backend."""
        return not self._fallback

    def _sparse_segments(self) -> dict:
        """The triplet segment patterns of :meth:`sparse_system`, as a
        fresh (ordered) dict -- the batched assembler extends it with
        per-lane overlay segments before building its own system."""
        size = self.size
        empty = np.zeros(0, dtype=np.intp)

        def unflat(flat: np.ndarray):
            return flat // size, flat % size

        diode_pat = (unflat(self._diode_flat)
                     if self._diode_bank is not None else (empty, empty))
        n_nodes = len(self.compiled.node_index)
        diag = np.arange(n_nodes)
        return {
            "lin": (self._lin_rows, self._lin_cols),
            "mos": (unflat(self._mos_flat)
                    if self._mos_bank is not None else (empty, empty)),
            "dio": diode_pat,
            "cap": unflat(self._cap_flat),
            "diocap": diode_pat,
            "diag": (diag, diag),
        }

    def sparse_system(self) -> SparseSystem:
        """The circuit's triplet->CSC scatter (built once, cached).

        Segment order is contractual -- ``lin, mos, dio, cap, diocap,
        diag`` is exactly the dense path's accumulation sequence
        (G_const copy, MOS scatter, diode scatter, charge companions,
        gmin/anchor diagonal), which together with bincount's
        sequential summation makes the assembled entries bit-identical
        to the dense Jacobian.
        """
        if self._sparse_system is None:
            self._sparse_system = SparseSystem(self.size,
                                               self._sparse_segments())
        return self._sparse_system

    # -- hot path -------------------------------------------------------

    def _grounded(self, x: np.ndarray) -> np.ndarray:
        """``x`` padded with a trailing 0 so ground index -1 reads 0.
        Returns a shared scratch buffer -- gather from it before the
        next call; never hold a reference across calls."""
        xg = self._xg
        xg[:-1] = x
        xg[-1] = 0.0
        return xg

    def _terminal_voltages(self, x: np.ndarray,
                           indices: tuple) -> tuple[np.ndarray, ...]:
        """Gather node voltages per terminal; ground index -1 reads 0."""
        xg = self._grounded(x)
        return tuple(xg[idx] for idx in indices)

    def _source_values(self, time: float | None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(expanded source values, signed scatter values) at ``time``.

        Cached per timestamp (DC's ``None`` included) and waveform
        identity: Newton iterations share both, while source stepping,
        ``dc_sweep`` and lane overlays swap ``element.waveform``, which
        misses the cache.  The cache holds the waveforms themselves, so
        a recycled ``id`` can never alias a dead one.
        """
        waves = [e.waveform for e in self._src_unique]
        cache = self._src_cache
        if (cache is not None and cache[0] == time
                and all(map(operator.is_, waves, cache[1]))):
            return cache[2], cache[3]
        unique = np.array([e.value_at(time) for e in self._src_unique],
                          dtype=float)
        values = unique[self._src_expand]
        signed = self._src_sign * values[self._src_take]
        self._src_cache = (time, waves, values, signed)
        return values, signed

    def _source_rhs(self, res: np.ndarray, time: float | None) -> None:
        """Independent-source excitations, added into ``res`` in the
        per-source order (``np.add.at`` accumulates sequentially)."""
        np.add.at(res, self._src_idx, self._source_values(time)[1])

    def _mos_values(self, res: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One MOS bank evaluation: drain/source currents accumulated
        into ``res``, masked Jacobian scatter values returned (the same
        vector both backends consume, so they agree bit for bit)."""
        d, g, s, b = self._mos_terms
        vd, vg, vs, vb = self._terminal_voltages(x, (d, g, s, b))
        r = self._mos_bank.evaluate(vd, vg, vs, vb)
        np.add.at(res, self._mos_d_idx,
                  r.ids if self._mos_d_all
                  else r.ids[self._mos_d_mask])
        np.add.at(res, self._mos_s_idx,
                  -(r.ids if self._mos_s_all
                    else r.ids[self._mos_s_mask]))
        # [p_d p_g p_s p_b | -(same)] -- the drain-row block and the
        # negated source-row block of every device, built in a
        # reused buffer (negation is exact, so this matches the
        # former sign-vector multiply bit for bit).
        n = len(r.ids)
        buf = self._mos_buf
        buf[:n] = r.p_d
        buf[n:2 * n] = r.p_g
        buf[2 * n:3 * n] = r.p_s
        buf[3 * n:4 * n] = r.p_b
        np.negative(buf[:4 * n], out=buf[4 * n:])
        return buf if self._mos_valid_all else buf[self._mos_valid]

    def _diode_values(self, res: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One diode bank evaluation: currents accumulated into ``res``,
        masked Jacobian scatter values returned."""
        a, c = self._diode_terms
        va, vc = self._terminal_voltages(x, (a, c))
        current, conductance = self._diode_bank.current(va - vc)
        np.add.at(res, self._diode_a_idx,
                  current[self._diode_a_mask])
        np.add.at(res, self._diode_c_idx,
                  -current[self._diode_c_mask])
        values = self._diode_sign * np.tile(conductance, 4)
        return values[self._diode_valid]

    def _count_bank_evals(self) -> None:
        if telemetry.is_enabled():
            span = telemetry.current_span()
            if self._mos_bank is not None:
                span.inc("device_bank_evals")
            if self._diode_bank is not None:
                span.inc("device_bank_evals")

    def assemble(self, st, x: np.ndarray, time: float | None) -> None:
        """Overwrite ``st`` with the full static system at ``x``.

        Dispatches on the stamper type: a dense
        :class:`~repro.spice.elements.Stamper` takes the flat-index
        scatter path, a :class:`~repro.spice.sparse.SparseStamper` the
        triplet path.
        """
        if isinstance(st, SparseStamper):
            self._assemble_sparse(st, x, time)
            return
        np.copyto(st.jac, self._g_const)
        np.dot(self._g_const, x, out=st.res)
        res = st.res
        self._source_rhs(res, time)
        self._count_bank_evals()
        jac_flat = st.jac.reshape(-1)
        if self._mos_bank is not None:
            np.add.at(jac_flat, self._mos_flat, self._mos_values(res, x))
        if self._diode_bank is not None:
            np.add.at(jac_flat, self._diode_flat,
                      self._diode_values(res, x))
        for element in self._fallback:
            element.stamp(st, x, time)

    def _assemble_sparse(self, st: SparseStamper, x: np.ndarray,
                         time: float | None) -> None:
        """Triplet-path twin of the dense hot loop: segments are
        overwritten in place, the residual stays dense, the linear part
        contributes through one cached CSR matvec."""
        if self._lin_csr is None:
            self._lin_csr = coo_to_csr(self._lin_rows, self._lin_cols,
                                       self._lin_vals, self.size)
        st.vals.fill(0.0)
        st.segment("lin")[:] = self._lin_vals
        st.res[:] = self._lin_csr.dot(x)
        res = st.res
        self._source_rhs(res, time)
        self._count_bank_evals()
        if self._mos_bank is not None:
            st.segment("mos")[:] = self._mos_values(res, x)
        if self._diode_bank is not None:
            st.segment("dio")[:] = self._diode_values(res, x)

    def device_operating_points(
            self, x: np.ndarray) -> dict[str, MosOperatingPoint]:
        """All MOS operating points at ``x`` via one bank call."""
        if self._mos_bank is None:
            return {}
        d, g, s, b = self._mos_terms
        vd, vg, vs, vb = self._terminal_voltages(x, (d, g, s, b))
        points = self._mos_bank.operating_points(vd, vg, vs, vb)
        return dict(zip(self._mos_names, points))

    # -- charge system (transient companions) ---------------------------

    def charge_vector(self, x: np.ndarray) -> np.ndarray:
        """All dynamic charges at ``x``, in canonical term order."""
        q = np.zeros(self.n_charge_terms)
        if self._cap_slots.size:
            vpos, vneg = self._terminal_voltages(
                x, (self._cap_pos, self._cap_neg))
            q[self._cap_slots] = self._cap_c * (vpos - vneg)
        if self._dio_slots.size:
            a, c = self._diode_terms
            va, vc = self._terminal_voltages(x, (a, c))
            q[self._dio_slots] = self._diode_bank.charge(va - vc)
        return q

    def stamp_charges(self, st, x: np.ndarray, c0: float,
                      rhs: np.ndarray) -> None:
        """Add the companion currents ``i = c0 q(x) + rhs`` and their
        conductances ``c0 dq/dv`` for every charge term.

        Works on both stamper types: the conductance values go through
        the dense flat-index scatter or into the ``cap``/``diocap``
        triplet segments (zeroed by the preceding :meth:`assemble`).
        """
        sparse = isinstance(st, SparseStamper)
        q = self.charge_vector(x)
        i = c0 * q + rhs
        res = st.res
        jac_flat = None if sparse else st.jac.reshape(-1)
        if self._cap_slots.size:
            i_cap = i[self._cap_slots]
            np.add.at(res, self._cap_pos_idx,
                      i_cap[self._cap_pos_mask])
            np.add.at(res, self._cap_neg_idx,
                      -i_cap[self._cap_neg_mask])
            if sparse:
                st.segment("cap")[:] = c0 * self._cap_jac_base
            else:
                np.add.at(jac_flat, self._cap_flat,
                          c0 * self._cap_jac_base)
        if self._dio_slots.size:
            a, c = self._diode_terms
            va, vc = self._terminal_voltages(x, (a, c))
            cap = self._diode_bank.capacitance(va - vc)
            i_dio = i[self._dio_slots]
            np.add.at(res, self._diode_a_idx,
                      i_dio[self._diode_a_mask])
            np.add.at(res, self._diode_c_idx,
                      -i_dio[self._diode_c_mask])
            values = self._diode_sign * np.tile(c0 * cap, 4)
            if sparse:
                st.segment("diocap")[:] = values[self._diode_valid]
            else:
                np.add.at(jac_flat, self._diode_flat,
                          values[self._diode_valid])

    # -- stacked charge system (batched transient companions) -----------

    def _grounded_rows(self, X: np.ndarray) -> np.ndarray:
        """``X`` (A, N) padded with a zero column so index -1 reads 0.
        Freshly allocated (unlike :meth:`_grounded`'s shared scratch):
        the batched callers hold several lane-axis gathers at once."""
        Xg = np.empty((X.shape[0], self.size + 1))
        Xg[:, :-1] = X
        Xg[:, -1] = 0.0
        return Xg

    def charge_vector_batch(self, X: np.ndarray) -> np.ndarray:
        """Stacked twin of :meth:`charge_vector`: all dynamic charges at
        every row of ``X`` (A, N), returned as (A, n_charge_terms).

        Charge parameters (capacitances, diode junction constants) are
        lane-independent -- :class:`~repro.spice.batch.LaneSpec`
        perturbs VT/beta, resistors and sources only -- so the lane
        axis broadcasts straight through the term expressions and each
        row is bit-identical to a serial ``charge_vector`` call at that
        lane's solution.
        """
        q = np.zeros((X.shape[0], self.n_charge_terms))
        if self.n_charge_terms == 0:
            return q
        Xg = self._grounded_rows(X)
        if self._cap_slots.size:
            q[:, self._cap_slots] = self._cap_c * (
                Xg[:, self._cap_pos] - Xg[:, self._cap_neg])
        if self._dio_slots.size:
            a, c = self._diode_terms
            q[:, self._dio_slots] = self._diode_bank.charge(
                Xg[:, a] - Xg[:, c])
        return q

    def stamp_charges_batch(self, target: np.ndarray, res: np.ndarray,
                            X: np.ndarray, c0: float, rhs: np.ndarray,
                            segment_slices: dict | None = None) -> None:
        """Stacked twin of :meth:`stamp_charges`: companion currents
        ``i = c0 q(x) + rhs`` and conductances ``c0 dq/dv`` for every
        lane row at once.

        ``rhs`` is per-lane, shape (A, n_charge_terms) -- each lane
        carries its own charge history.  Dense mode
        (``segment_slices=None``): ``target`` is the stacked (A, N, N)
        Jacobian, scattered through the same flat-index patterns as the
        serial path.  Sparse mode: ``target`` is the (A, n_triplets)
        data-row array and the values land in the ``cap``/``diocap``
        segments (zeroed by the preceding ``assemble_batch_sparse``).
        """
        sparse = segment_slices is not None
        q = self.charge_vector_batch(X)
        i = c0 * q + rhs
        jac_flat = None if sparse else target.reshape(X.shape[0], -1)
        all_rows = (slice(None),)
        if self._cap_slots.size:
            i_cap = i[:, self._cap_slots]
            np.add.at(res, all_rows + (self._cap_pos_idx,),
                      i_cap[:, self._cap_pos_mask])
            np.add.at(res, all_rows + (self._cap_neg_idx,),
                      -i_cap[:, self._cap_neg_mask])
            if sparse:
                target[:, segment_slices["cap"]] = c0 * self._cap_jac_base
            else:
                np.add.at(jac_flat, all_rows + (self._cap_flat,),
                          c0 * self._cap_jac_base)
        if self._dio_slots.size:
            a, c = self._diode_terms
            Xg = self._grounded_rows(X)
            cap = self._diode_bank.capacitance(Xg[:, a] - Xg[:, c])
            i_dio = i[:, self._dio_slots]
            np.add.at(res, all_rows + (self._diode_a_idx,),
                      i_dio[:, self._diode_a_mask])
            np.add.at(res, all_rows + (self._diode_c_idx,),
                      -i_dio[:, self._diode_c_mask])
            values = self._diode_sign * np.tile(c0 * cap, (1, 4))
            if sparse:
                target[:, segment_slices["diocap"]] = \
                    values[:, self._diode_valid]
            else:
                np.add.at(jac_flat, all_rows + (self._diode_flat,),
                          values[:, self._diode_valid])

    def susceptance_matrix(self, x: np.ndarray) -> np.ndarray:
        """Dense small-signal C matrix (dq/dv of every charge term) at
        ``x`` -- the ``jωC`` part of the AC system, assembled by the
        same flat-index scatters as :meth:`stamp_charges` (``c0 = 1``).

        Only valid when :attr:`charges_vectorized` is set; the AC
        engine falls back to the per-term ``charge_terms`` loop
        otherwise.
        """
        c_matrix = np.zeros((self.size, self.size))
        c_flat = c_matrix.reshape(-1)
        if self._cap_slots.size:
            np.add.at(c_flat, self._cap_flat, self._cap_jac_base)
        if self._dio_slots.size:
            a, c = self._diode_terms
            va, vc = self._terminal_voltages(x, (a, c))
            cap = self._diode_bank.capacitance(va - vc)
            values = self._diode_sign * np.tile(cap, 4)
            np.add.at(c_flat, self._diode_flat,
                      values[self._diode_valid])
        return c_matrix
