"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload owns three things:

* its *inputs*, generated from the workload seed alone (operands, VT
  draws, resistor factors, ensemble sizes) before anything is timed;
* its *job*, the unit of work the end-to-end metrics count;
* its *oracle*, which decides after the timed window whether a job's
  outputs are right, plus serial reference runs on a seeded subset.

A job returns a record: the outputs the oracle needs, and ``counts`` --
the deterministic work counts the solver exposes on its results even
when tracing is off (Newton iterations, steps, lanes).  The traced run
must reproduce those counts exactly.

Calls into each program layer are wrapped in ``bench.<layer>`` spans
(:func:`layer`).  With tracing off :func:`repro.telemetry.span` yields
its shared no-op span, so the untimed cost of the wrapper is one
module-level check.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro import telemetry
from repro.adc import FaiAdc, FaiAdcConfig
from repro.adc.metrics import inl_dnl_from_codes
from repro.adc.testbench import sampled_transient_codes
from repro.analysis.montecarlo import MonteCarlo
from repro.devices.diode import Diode, DiodeParameters
from repro.spice.batch import BatchedTranMetric, LaneSpec, apply_lane
from repro.spice.dc import operating_point
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientOptions, transient
from repro.spice.waveforms import pulse_wave, pwl_wave
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.gate_model import StsclGateDesign
from repro.stscl.netlist_gen import (
    stscl_buffer_chain_circuit,
    stscl_latch_circuit,
)

I_SS = 1e-9
VDD = 0.4
#: VT mismatch of one transistor, one sigma [V]; the latch population
#: of the batched waveform Monte-Carlo uses the same spread.
VT_SIGMA = 2e-3
#: A chain stage output sits within this fraction of V_SW of its
#: logic level (VDD or VDD - V_SW) to count as a valid logic level.
LEVEL_TOL = 0.15
ADDER_WIDTH = 32
CHAIN_STAGES = 8
#: Ensemble sizes of ``latch_mc_batched``.  Every cycle of three jobs
#: runs each size once, in a seeded order, so every run sees the same
#: mix of fixed-overhead-bound and per-lane-bound ensembles.  Three
#: sizes far apart keep the median inside the middle size and the tail
#: (ten jobs beyond it) inside the largest, whatever the job count.
ENSEMBLE_SIZES = (4, 16, 64)
ADC_CHIPS = 6
ADC_GRID_STEPS = 512
#: Serial reference runs per run, outside the timed window.
LATCH_REFERENCE_LANES = 6
ADC_REFERENCE_CHIPS = 3


@contextmanager
def layer(name: str, **attrs):
    """A benchmark-owned span around one call into a program layer."""
    with telemetry.span(f"bench.{name}", **attrs) as span:
        yield span


def _design() -> StsclGateDesign:
    return StsclGateDesign.default(I_SS)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _logic_bit(v_diff: float) -> int:
    return 1 if v_diff > 0.0 else 0


class Workload:
    """Interface shared by the four workloads.

    ``pool`` inputs are generated; a window that needs more jobs than
    that reuses them cyclically (``job(i)`` takes input ``i % pool``).
    """

    name = ""
    pool = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs_fingerprint(self) -> list:
        """Plain-data view of the generated inputs (determinism tests)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the circuits and run their first compile."""

    def job(self, index: int) -> dict:
        raise NotImplementedError

    def check(self, index: int, record: dict) -> str | None:
        """None when the job's outputs are right, else the reason."""
        raise NotImplementedError

    def references(self, records: dict[int, dict]) -> dict[int, str]:
        """Serial reference runs on a seeded subset of the finished
        jobs; returns ``{job index: failure reason}``."""
        return {}

    def fresh_netlists(self) -> list:
        """Fresh netlists identical to the workload's compiled ones, for
        timing ``validate_structure`` alone (``netlist.validate_s``)."""
        raise NotImplementedError


class AdderDc(Workload):
    """Build, compile and solve the transistor-level 32-bit adder."""

    name = "adder_dc"
    pool = 256

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 1)
        mask = (1 << ADDER_WIDTH) - 1
        self.operands = [(int(rng.integers(0, mask + 1)),
                          int(rng.integers(0, mask + 1)),
                          bool(rng.integers(0, 2)))
                         for _ in range(self.pool)]
        self.design = _design()

    def inputs_fingerprint(self) -> list:
        return self.operands

    def _build(self, index: int):
        a, b, carry_in = self.operands[index % self.pool]
        return adder_chain_circuit(self.design, VDD, width=ADDER_WIDTH,
                                   a=a, b=b, carry_in=carry_in)

    def setup(self) -> None:
        # Every job builds and compiles its own adder; set-up makes the
        # first one, so set-up covers the first compile as elsewhere.
        with layer("stscl.build"):
            circuit, _ = self._build(0)
        with layer("netlist.compile"):
            circuit.compile()

    def job(self, index: int) -> dict:
        with layer("stscl.build"):
            circuit, ports = self._build(index)
        with layer("netlist.compile"):
            circuit.compile()
        with layer("dc.operating_point"):
            result = operating_point(circuit)
        total = 0
        for bit in range(ADDER_WIDTH):
            pos, neg = ports[f"s{bit}"]
            total |= _logic_bit(result.vdiff(pos, neg)) << bit
        return {"sum": total, "ops": [_op_record(result)],
                "counts": {"newton_iters": result.iterations,
                           "rungs": _rung_iters(result)}}

    def check(self, index: int, record: dict) -> str | None:
        a, b, carry_in = self.operands[index % self.pool]
        expected = (a + b + int(carry_in)) & ((1 << ADDER_WIDTH) - 1)
        if record["sum"] != expected:
            return (f"sum {record['sum']:#010x} != {expected:#010x} "
                    f"for a={a:#010x} b={b:#010x} cin={int(carry_in)}")
        return None

    def fresh_netlists(self) -> list:
        return [self._build(0)[0]]


class CellSerial(Workload):
    """One mismatch seed through the serial engine: the 8-stage buffer
    chain's operating point, then the clocked D-latch's transient."""

    name = "cell_serial"
    pool = 4096

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.design = _design()
        self.latch = LatchBench(self.design)
        self.chain = self.chain_ports = None

    def _build_chain(self):
        high, low = VDD, VDD - self.design.v_sw
        return stscl_buffer_chain_circuit(self.design, VDD, CHAIN_STAGES,
                                          high, low, with_dwell=True)

    def setup(self) -> None:
        with layer("stscl.build"):
            self.chain, self.chain_ports = self._build_chain()
        with layer("netlist.compile"):
            self.chain.compile()
        self.latch.setup()
        rng = _rng(self.seed, 2)
        n_chain = len(self.chain.mos_elements())
        self.chain_vt = rng.normal(0.0, VT_SIGMA, (self.pool, n_chain))
        self.latch_vt = self.latch.draw(rng, self.pool)

    def inputs_fingerprint(self) -> list:
        return [self.chain_vt.tolist(), self.latch_vt.tolist()]

    def job(self, index: int) -> dict:
        k = index % self.pool
        undo = apply_lane(self.chain, LaneSpec.mismatch(self.chain_vt[k]))
        try:
            with layer("dc.operating_point"):
                op = operating_point(self.chain)
        finally:
            undo()
        levels = [(op.voltage(pos), op.voltage(neg))
                  for pos, neg in self.chain_ports.outputs.values()]
        tran = self.latch.serial(self.latch_vt[k])
        return {"levels": levels, "q": self.latch.q_final(tran),
                "ops": [_op_record(op)],
                "counts": {"newton_iters": op.iterations,
                           "rungs": _rung_iters(op),
                           **_tran_counts(tran)}}

    def check(self, index: int, record: dict) -> str | None:
        high, low = VDD, VDD - self.design.v_sw
        tol = LEVEL_TOL * self.design.v_sw
        for stage, (v_p, v_n) in enumerate(record["levels"], start=1):
            if abs(v_p - high) > tol or abs(v_n - low) > tol:
                return (f"chain stage {stage} at ({v_p:.4f}, {v_n:.4f}) V,"
                        f" expected ({high:.4f}, {low:.4f}) V "
                        f"+- {tol * 1e3:.0f} mV")
        return self.latch.check_q(record["q"])

    def fresh_netlists(self) -> list:
        return [self._build_chain()[0], self.latch.build()[0]]


class LatchBench:
    """The clocked D-latch testbench shared by ``cell_serial`` and
    ``latch_mc_batched``: same stimulus, same mismatch spread."""

    def __init__(self, design: StsclGateDesign) -> None:
        self.design = design
        t_d = design.delay()
        self.t_stop = 10.0 * t_d
        self.options = TransientOptions(reltol=4e-3, abstol=1e-4,
                                        dt_max=t_d / 2.5)
        high, low = VDD, VDD - design.v_sw
        edge = t_d / 5.0
        self.d_p = pulse_wave(low, high, delay=2 * t_d, rise=edge,
                              fall=edge, width=4 * t_d, period=8 * t_d)
        self.d_n = pulse_wave(high, low, delay=2 * t_d, rise=edge,
                              fall=edge, width=4 * t_d, period=8 * t_d)
        self.c_p = pulse_wave(low, high, delay=t_d, rise=edge, fall=edge,
                              width=2 * t_d, period=4 * t_d)
        self.c_n = pulse_wave(high, low, delay=t_d, rise=edge, fall=edge,
                              width=2 * t_d, period=4 * t_d)
        # The clock is high (transparent) over the last gate delays, so
        # the final state follows D as it stood one gate delay earlier.
        t_sample = self.t_stop - t_d
        self.d_bit = _logic_bit(self.d_p(t_sample) - self.d_n(t_sample))
        self.circuit = self.ports = None

    def build(self):
        return stscl_latch_circuit(self.design, VDD, self.d_p, self.d_n,
                                   self.c_p, self.c_n)

    def setup(self) -> None:
        with layer("stscl.build"):
            self.circuit, self.ports = self.build()
        with layer("netlist.compile"):
            self.circuit.compile()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, VT_SIGMA,
                          (n, len(self.circuit.mos_elements())))

    def serial(self, vt: np.ndarray):
        undo = apply_lane(self.circuit, LaneSpec.mismatch(vt))
        try:
            with layer("transient.transient"):
                return transient(self.circuit, self.t_stop, self.options)
        finally:
            undo()

    def q_final(self, result) -> float:
        pos, neg = self.ports.outputs["q"]
        return float(result.vdiff(pos, neg)[-1])

    def check_q(self, q: float) -> str | None:
        if _logic_bit(q) != self.d_bit:
            return (f"latch holds {_logic_bit(q)} (q = {q:+.4f} V), "
                    f"D is {self.d_bit}")
        return None


class LatchMcBatched(Workload):
    """One lockstep batched-transient Monte-Carlo ensemble over the
    latch mismatch population."""

    name = "latch_mc_batched"
    pool = 500

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.latch = LatchBench(_design())
        rng = _rng(seed, 3)
        sizes = []
        while len(sizes) < self.pool:
            sizes.extend(int(b) for b in rng.permutation(ENSEMBLE_SIZES))
        self.sizes = sizes[:self.pool]
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.spec = None

    def setup(self) -> None:
        self.latch.setup()
        self.vt = self.latch.draw(_rng(self.seed, 4), int(self.offsets[-1]))
        self.spec = BatchedTranMetric(
            build=lambda: self.latch.circuit,
            draw=lambda lane, _circuit: LaneSpec.mismatch(self.vt[lane]),
            measure=self._measure, t_stop=self.latch.t_stop,
            options=self.latch.options)

    def inputs_fingerprint(self) -> list:
        return [self.sizes, self.vt.tolist()]

    def _measure(self, result) -> dict[str, float]:
        self._steps.append(len(result.time) - 1)
        return {"q": self.latch.q_final(result)}

    def job(self, index: int) -> dict:
        k = index % self.pool
        self._steps = []
        with layer("analysis.montecarlo"):
            run = MonteCarlo(self.spec, n_runs=self.sizes[k],
                             seed_base=int(self.offsets[k]),
                             backend="batched",
                             analysis="transient").run()
        return {"q": run["q"].values.tolist(),
                "counts": {"lanes": self.sizes[k],
                           "lane_steps": list(self._steps)}}

    def check(self, index: int, record: dict) -> str | None:
        for lane, q in enumerate(record["q"]):
            reason = self.latch.check_q(q)
            if reason is not None:
                return f"lane {lane}: {reason}"
        return None

    def references(self, records: dict[int, dict]) -> dict[int, str]:
        rng = _rng(self.seed, 5)
        jobs = sorted(records)
        failures = {}
        for index in rng.choice(jobs, min(LATCH_REFERENCE_LANES, len(jobs)),
                                replace=False):
            index = int(index)
            k = index % self.pool
            lane = int(rng.integers(0, self.sizes[k]))
            serial = self.latch.q_final(
                self.latch.serial(self.vt[int(self.offsets[k]) + lane]))
            batched = records[index]["q"][lane]
            if _logic_bit(serial) != _logic_bit(batched):
                failures[index] = (f"lane {lane}: batched q = "
                                   f"{batched:+.4f} V, serial q = "
                                   f"{serial:+.4f} V decode differently")
        return failures

    def fresh_netlists(self) -> list:
        return [self.latch.build()[0]]


class AdcYield(Workload):
    """One FAI ADC yield ensemble: a fixed-grid batched transient of the
    RC + clamp-diode front end per chip, then codes and INL/DNL."""

    name = "adc_yield"
    pool = 500

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 6)
        # Aged source resistor per chip: shifts the RC lag, walking the
        # code transitions by a fraction of an LSB per chip.
        self.factors = rng.uniform(0.5, 1.5, (self.pool, ADC_CHIPS))
        self.cfg = FaiAdcConfig(coarse_bits=2, fine_bits=4, n_folders=4)
        self.t_stop = 1e-3
        dt = self.t_stop / ADC_GRID_STEPS
        self.options = TransientOptions(dt_initial=dt, dt_min=dt,
                                        dt_max=dt)
        # Sample the ramp where the RC node tracks it linearly, mapped
        # to the converter's full scale plus half an LSB each side.
        self.sample_times = np.linspace(0.05 * self.t_stop,
                                        0.85 * self.t_stop,
                                        self.cfg.n_codes * 8)
        v_lo, v_hi = 0.05, 0.85
        self.gain = (self.cfg.full_scale + self.cfg.lsb) / (v_hi - v_lo)
        self.center = (self.cfg.v_low - 0.5 * self.cfg.lsb) - self.gain * v_lo
        self.adc = self.tb = self.spec = None

    def inputs_fingerprint(self) -> list:
        return self.factors.tolist()

    def build(self) -> Circuit:
        tb = Circuit("fai_yield_tb")
        tb.add_vsource("vramp", "in", "0",
                       pwl_wave(((0.0, 0.0), (self.t_stop, 1.0))))
        tb.add_resistor("rs", "in", "a", 1e3)
        tb.add_capacitor("cl", "a", "0", 1e-9)
        tb.add_diode("dclamp", "a", "0",
                     Diode(DiodeParameters(name="clamp", i_s=1e-18,
                                           cj0=1e-13)))
        return tb

    def setup(self) -> None:
        self.adc = FaiAdc(self.cfg, ideal=True, seed=0)
        self.tb = self.build()
        with layer("netlist.compile"):
            self.tb.compile()
        flat = self.factors.reshape(-1)
        self.spec = BatchedTranMetric(
            build=lambda: self.tb,
            draw=lambda chip, _circuit: LaneSpec(
                resistor_scale=(("rs", float(flat[chip])),)),
            measure=self._measure, t_stop=self.t_stop,
            options=self.options)

    def _measure(self, result) -> dict[str, float]:
        self._steps.append(len(result.time) - 1)
        with layer("adc.codes"):
            codes = sampled_transient_codes(
                self.adc, result, "a", sample_times=self.sample_times,
                center=self.center, gain=self.gain)
        with layer("adc.linearity"):
            report = inl_dnl_from_codes(codes, self.cfg.n_bits)
        self._monotonic.append(bool(np.all(np.diff(codes) >= 0)))
        return {"inl": report.inl_max, "dnl": report.dnl_max}

    def job(self, index: int) -> dict:
        k = index % self.pool
        self._steps, self._monotonic = [], []
        with layer("analysis.montecarlo"):
            run = MonteCarlo(self.spec, n_runs=ADC_CHIPS,
                             seed_base=k * ADC_CHIPS, backend="batched",
                             analysis="transient").run()
        return {"inl": run["inl"].values.tolist(),
                "dnl": run["dnl"].values.tolist(),
                "monotonic": list(self._monotonic),
                "counts": {"lanes": ADC_CHIPS,
                           "lane_steps": list(self._steps)}}

    def check(self, index: int, record: dict) -> str | None:
        for chip, ok in enumerate(record["monotonic"]):
            if not ok:
                return f"chip {chip}: codes of a rising ramp decrease"
        values = record["inl"] + record["dnl"]
        if not all(math.isfinite(v) for v in values):
            return "non-finite INL/DNL"
        return None

    def references(self, records: dict[int, dict]) -> dict[int, str]:
        rng = _rng(self.seed, 7)
        jobs = sorted(records)
        failures = {}
        for index in rng.choice(jobs, min(ADC_REFERENCE_CHIPS, len(jobs)),
                                replace=False):
            index = int(index)
            chip = int(rng.integers(0, ADC_CHIPS))
            self._steps, self._monotonic = [], []
            serial = self.spec((index % self.pool) * ADC_CHIPS + chip)
            batched = (records[index]["inl"][chip],
                       records[index]["dnl"][chip])
            if (serial["inl"], serial["dnl"]) != batched:
                failures[index] = (
                    f"chip {chip}: batched INL/DNL {batched} != serial "
                    f"({serial['inl']}, {serial['dnl']})")
        return failures

    def fresh_netlists(self) -> list:
        return [self.build()]


WORKLOADS = {cls.name: cls for cls in
             (AdderDc, CellSerial, LatchMcBatched, AdcYield)}

_RUNG_NAMES = {"newton": "newton", "gmin-stepping": "gmin",
               "source-stepping": "source", "pseudo-transient": "ptran"}


def _rung_iters(result) -> list:
    return [(stage.strategy, stage.iterations, stage.converged)
            for stage in result.diagnostics.stages]


def _op_record(result) -> dict:
    """Per-rung iterations and wall time of one DC solve, read from its
    ``SolverDiagnostics``."""
    return {"stages": [(_RUNG_NAMES.get(s.strategy, s.strategy),
                        s.iterations, s.wall_time, s.converged)
                       for s in result.diagnostics.stages]}


def _tran_counts(result) -> dict:
    tel = result.telemetry
    return {"steps_accepted": tel.steps_accepted,
            "steps_rejected": tel.steps_rejected,
            "tran_newton_iters": tel.newton_iterations}
