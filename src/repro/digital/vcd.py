"""VCD (Value Change Dump) export of cycle simulations.

Lets any waveform viewer (GTKWave & friends) display what the
:class:`~repro.digital.simulator.CycleSimulator` computed -- the
debugging loop every RTL engineer expects from a digital toolchain.

The timescale maps one simulation cycle to one clock period of the
owning design point, so cursor readings are real seconds.  The
serialisation goes through the shared mixed-signal writer
(:mod:`repro.scope.vcd`), which picks the coarsest *exact* timescale
for the clock period: a sub-ns or fractional period (0.5 ns, 769 ps,
9.71 us) dumps at 100ps / 1fs / 10ns ticks instead of rounding to an
integer nanosecond count -- the old behaviour put cursor readings off
by up to 2x for fast design points.
"""

from __future__ import annotations

from typing import TextIO

from ..errors import AnalysisError
from ..scope.vcd import VcdWriter, exact_timescale
from ..stscl.gate_model import StsclGateDesign
from .netlist import GateNetlist
from .simulator import CycleSimulator

__all__ = ["cycle_timescale", "dump_vcd"]

#: Cycle period when no design point is given: 1 us per cycle.
_DEFAULT_PERIOD_S = 1e-6

#: Quantization floor for clock periods; nothing meaningful in this
#: platform switches faster than femtoseconds.
_PERIOD_FLOOR_S = 1e-15


def cycle_timescale(period_s: float) -> tuple[str, int]:
    """``(timescale label, ticks per cycle)`` representing a period.

    The period is quantized at the 1 fs floor, then the coarsest
    standard VCD timescale that represents it exactly is chosen -- so
    a 0.5 ns clock dumps as 5 ticks of ``100ps``, not 1 tick of a
    rounded ``1ns``.
    """
    if period_s <= 0.0:
        raise AnalysisError(
            f"clock period must be positive, got {period_s!r}")
    period_quantized = max(1, round(period_s / _PERIOD_FLOOR_S)) \
        * _PERIOD_FLOOR_S
    label, scale = exact_timescale([period_quantized])
    return label, max(1, round(period_quantized / scale))


def dump_vcd(netlist: GateNetlist,
             stimulus: list[dict[str, bool]],
             design: StsclGateDesign | None = None,
             stream: TextIO | None = None,
             nets: list[str] | None = None) -> str:
    """Simulate ``stimulus`` and serialise the run as VCD text.

    ``nets`` restricts the dump (default: primary inputs + outputs +
    every register output).  Returns the VCD text; also writes it to
    ``stream`` when given.
    """
    if not stimulus:
        raise AnalysisError("empty stimulus")
    simulator = CycleSimulator(netlist)
    if nets is None:
        nets = list(netlist.primary_inputs)
        nets += [g.output for g in netlist.sequential_gates()]
        nets += [n for n in netlist.primary_outputs if n not in nets]

    period_s = (_DEFAULT_PERIOD_S if design is None
                else 1.0 / design.max_frequency(1))
    timescale, ticks_per_cycle = cycle_timescale(period_s)

    writer = VcdWriter(timescale, date="repro digital simulator",
                       comment=f"netlist {netlist.name}")
    identifiers = {net: writer.add_wire(net, scope=netlist.name)
                   for net in nets}

    for cycle, vector in enumerate(stimulus):
        values = simulator.step(vector)
        for net in nets:
            # The writer deduplicates unchanged values per variable.
            writer.change(cycle * ticks_per_cycle, identifiers[net],
                          bool(values[net]))
    writer.end_time(len(stimulus) * ticks_per_cycle)
    return writer.render(stream)
