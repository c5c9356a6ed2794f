"""Independent-source RHS: the cached, single-scatter excitation must
reproduce the per-source loop bit for bit.

The oracle below is the loop the assembler used to run on every Newton
iteration: evaluate every (expanded) source in Python, then
``res[row] -= v`` per voltage source and ``res[p] += i; res[n] -= i``
per current source.  The tests wrap the assembler's source stamp so
that *every* call made by a real analysis -- DC Newton, transient steps
at and between pulse corners, source-stepping fractions, ``dc_sweep``
waveform swaps, batched lanes with source overrides -- is compared
against the oracle with ``==``.
"""

import numpy as np
import pytest

from repro.spice import (
    BatchAssembler,
    Circuit,
    LaneSpec,
    SourceSteppingStrategy,
    TransientOptions,
    batch_operating_point,
    dc_sweep,
    dc_wave,
    operating_point,
    pulse_wave,
    transient,
)
from repro.spice.assembly import CircuitAssembler
from repro.spice.subckt import Subcircuit

PULSE = dict(low=0.0, high=1e-6, delay=1e-9, rise=1e-10, fall=1e-10,
             width=2e-9, period=5e-9)


def _expanded_sources(assembler):
    """(vsources, branch rows, isources, isource nodes) in expansion
    order: top-level sources, then every instance's template sources."""
    vsrc = list(assembler._vsources)
    rows = [e._aux[0] for e in assembler._vsources]
    isrc = list(assembler._isources)
    nodes = [e._idx for e in assembler._isources]
    for grp in assembler._instance_groups:
        plan = grp.plan
        for inst in grp.instances:
            vsrc.extend(plan.vsrc_elements)
            rows.extend(int(r) for r in inst.lut[plan.vsrc_rows])
            isrc.extend(plan.isrc_elements)
            nodes.extend((int(p), int(n))
                         for p, n in inst.lut[plan.isrc_nodes])
    return vsrc, rows, isrc, nodes


def _oracle_source_rhs(assembler, res, time):
    vsrc, rows, isrc, nodes = _expanded_sources(assembler)
    for row, value in zip(rows, [e.value_at(time) for e in vsrc]):
        res[row] -= value
    for (p, n), value in zip(nodes, [e.value_at(time) for e in isrc]):
        if p >= 0:
            res[p] += value
        if n >= 0:
            res[n] -= value


def _oracle_batch_source_rhs(assembler, res, lane_idx, time):
    """The per-source batched loop with per-lane override tables."""
    vsrc, rows, isrc, nodes = _expanded_sources(assembler)
    tables = {}
    for li, lane in enumerate(assembler.lanes):
        for name, value in lane.source_values:
            if name not in tables:
                base = assembler.compiled.circuit.element(name)
                tables[name] = np.full(assembler.batch, base.value_at(None))
            tables[name][li] = float(value)
    n_top_v, n_top_i = len(assembler._vsources), len(assembler._isources)
    for k, (element, row) in enumerate(zip(vsrc, rows)):
        over = tables.get(element.name) if k < n_top_v else None
        if over is None:
            res[:, row] -= element.value_at(time)
        else:
            res[:, row] -= over[lane_idx]
    for k, (element, (p, n)) in enumerate(zip(isrc, nodes)):
        over = tables.get(element.name) if k < n_top_i else None
        value = element.value_at(time) if over is None else over[lane_idx]
        if p >= 0:
            res[:, p] += value
        if n >= 0:
            res[:, n] -= value


@pytest.fixture
def checked_serial(monkeypatch):
    """Every serial source stamp is compared with the oracle; yields the
    list of timestamps it was called at."""
    times = []
    original = CircuitAssembler._source_rhs

    def checked(self, res, time):
        expected = res.copy()
        _oracle_source_rhs(self, expected, time)
        original(self, res, time)
        assert np.array_equal(res, expected)
        times.append(time)

    monkeypatch.setattr(CircuitAssembler, "_source_rhs", checked)
    return times


@pytest.fixture
def checked_batch(monkeypatch):
    calls = []
    original = BatchAssembler._batch_source_rhs

    def checked(self, res, lane_idx, time):
        expected = res.copy()
        _oracle_batch_source_rhs(self, expected, lane_idx, time)
        original(self, res, lane_idx, time)
        assert np.array_equal(res, expected)
        calls.append(len(lane_idx))

    monkeypatch.setattr(BatchAssembler, "_batch_source_rhs", checked)
    return calls


def _cell() -> Subcircuit:
    """A cell carrying its own sources: a reference voltage and a bias
    current (one terminal on ground)."""
    template = Circuit("refcell")
    template.add_vsource("vref", "ref", "0", 0.3)
    template.add_resistor("rr", "ref", "a", 2e3)
    template.add_isource("ib", "a", "0", 2e-6)
    template.add_resistor("ra", "a", "b", 5e3)
    return Subcircuit("refcell", template, ("a", "b"))


def _circuit(backend: str = "dense", pulsed: bool = False) -> Circuit:
    """Top-level sources sharing nodes (duplicate scatter targets),
    current sources with and without a ground terminal, and two
    instances of a source-carrying cell."""
    circuit = Circuit("sources", matrix_backend=backend)
    circuit.add_vsource("V1", "in", "0", 1.1)
    circuit.add_resistor("R1", "in", "x", 1e3)
    circuit.add_isource("I1", "x", "y", 1.5e-6)
    circuit.add_isource("I2", "0", "x", 0.7e-6)
    circuit.add_isource("I3", "y", "0",
                        pulse_wave(**PULSE) if pulsed else 0.3e-6)
    circuit.add_resistor("R2", "y", "0", 4e3)
    circuit.add_capacitor("C1", "x", "0", 1e-13)
    circuit.add_vsource("V2", "z", "y", 0.2)
    circuit.add_resistor("R3", "z", "0", 8e3)
    cell = _cell()
    circuit.add_instance("u1", cell, {"a": "x", "b": "z"})
    circuit.add_instance("u2", cell, {"a": "y", "b": "0"})
    return circuit


class TestSerialSourceRhs:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_dc_newton(self, checked_serial, backend):
        assert operating_point(_circuit(backend)).converged
        assert None in checked_serial

    def test_transient_at_and_between_pulse_corners(self, checked_serial):
        result = transient(_circuit(pulsed=True), 12e-9,
                           TransientOptions(dt_initial=1e-11))
        assert result.time[-1] == pytest.approx(12e-9)
        times = {t for t in checked_serial if t is not None}
        corners = {PULSE["delay"], PULSE["delay"] + PULSE["rise"]}
        assert any(any(t == pytest.approx(c, abs=1e-18) for c in corners)
                   for t in times)
        assert len(times) > 20

    def test_source_stepping_fractions(self, checked_serial):
        circuit = _circuit()
        result = operating_point(circuit,
                                 strategies=(SourceSteppingStrategy(),))
        assert result.converged
        reference = operating_point(_circuit())
        for node, value in reference.voltages.items():
            assert result.voltages[node] == pytest.approx(value, abs=1e-9)

    def test_dc_sweep_waveform_swaps(self, checked_serial):
        values = [0.2, 0.6, 1.0, 1.4]
        sweep = dc_sweep(_circuit(), "V1", values)
        x_in = [point.voltage("in") for point in sweep.points]
        assert x_in == pytest.approx(values)

    def test_cache_follows_waveform_swaps(self):
        """A swapped waveform is never served from the cache, at one
        and the same timestamp, DC ``None`` included."""
        circuit = _circuit()
        assembler = circuit.compile().prepare()
        v1 = circuit.element("V1")
        size = assembler.size
        before = np.zeros(size)
        assembler._source_rhs(before, None)
        saved = v1.waveform
        v1.waveform = dc_wave(2.0)
        after = np.zeros(size)
        assembler._source_rhs(after, None)
        row = v1._aux[0]
        assert before[row] == -1.1 and after[row] == -2.0
        v1.waveform = saved
        again = np.zeros(size)
        assembler._source_rhs(again, None)
        assert np.array_equal(again, before)


class TestBatchedSourceRhs:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_lane_source_overrides(self, checked_batch, backend):
        lanes = [LaneSpec(),
                 LaneSpec.source("V1", 0.8),
                 LaneSpec(source_values=(("I1", 3e-6), ("V2", 0.1))),
                 LaneSpec.source("I2", -0.2e-6)]
        batch = batch_operating_point(_circuit(backend), lanes)
        assert batch.failures == []
        assert checked_batch
        for lane, point in zip(lanes, batch.points):
            circuit = _circuit(backend)
            for name, value in lane.source_values:
                circuit.element(name).waveform = dc_wave(value)
            serial = operating_point(circuit)
            for node, value in serial.voltages.items():
                assert point.voltage(node) == pytest.approx(value,
                                                            abs=1e-9)

    def test_lanes_without_overrides(self, checked_batch):
        batch = batch_operating_point(_circuit(), [LaneSpec(), LaneSpec()])
        assert batch.failures == []
        assert checked_batch
