"""Transistor-level netlist generators for STSCL circuits.

These builders turn a :class:`~repro.stscl.gate_model.StsclGateDesign`
into :class:`~repro.spice.netlist.Circuit` objects the MNA engine can
solve, so every analytic claim of the gate model is verifiable against
the "silicon" (our EKV transistor level):

* a single gate (Fig. 2) with the bulk-drain-shorted PMOS loads and,
  optionally, the D_Well junction diodes;
* a buffer chain for delay extraction;
* the closed replica-bias loop;
* a generic stacked differential-pair tree (series-gated synthesis) that
  realises any <=3-input function -- including the Fig. 8 majority cell;
* a clocked latch for the pipelining experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..devices.diode import Diode, NWELL_DIODE_180
from ..devices.mosfet import Mosfet
from ..errors import DesignError
from ..spice.elements import VoltageSource
from ..spice.netlist import Circuit, is_ground
from ..spice.waveforms import Waveform, dc_wave, pulse_wave
from .gate_model import StsclGateDesign
from .load import HighValueLoad


#: Initial guess for a node that carries a tail current [V].
TAIL_SEED = 0.1


@dataclass
class GatePorts:
    """Interesting node names of a generated circuit."""

    vdd: str = "vdd"
    v_bp: str = "vbp"
    inputs: dict[str, tuple[str, str]] = field(default_factory=dict)
    outputs: dict[str, tuple[str, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class SteeringTree:
    """The nets of one series-gated steering tree (:func:`add_stscl_tree`).

    ``routes`` maps each internal node of the tree to the input-bit
    prefix (bottom level first) that steers the tail current through
    it; every other input pattern cuts the node off from the tail.
    """

    outputs: tuple[str, str]
    routes: dict[str, tuple[bool, ...]]

    def seeds(self, bits: Sequence[bool], on_path: float,
              off_path: float) -> dict[str, float]:
        """Internal node -> initial guess under input ``bits``: nodes
        carrying the tail sit at ``on_path``, the cut-off rest at
        ``off_path``."""
        bits = tuple(bits)
        return {node: on_path if bits[:len(route)] == route else off_path
                for node, route in self.routes.items()}


def _seed_driven_nets(circuit: Circuit) -> None:
    """Nodeset every net a voltage source drives from ground at the
    source's DC value, so Newton starts with those rails satisfied."""
    for element in circuit.elements:
        if isinstance(element, VoltageSource):
            pos, neg = element.nodes
            if is_ground(neg) and not is_ground(pos):
                circuit.nodeset(pos, element.value_at(None))


def _load_bias(design: StsclGateDesign, vdd: float) -> float:
    """Solve the V_BP rail the replica loop would produce."""
    load = HighValueLoad(params=design.tech.pmos_thick, w=design.load_w,
                         l=design.load_l, temperature=design.temperature)
    return load.required_gate_bias(design.i_ss, design.v_sw, vdd)


def _add_output_stage(circuit: Circuit, design: StsclGateDesign,
                      prefix: str, with_dwell: bool) -> tuple[str, str]:
    """Add the two PMOS loads (+ optional D_Well diodes and wiring load)
    for one gate; returns the (out_p, out_n) node names."""
    out_p, out_n = f"{prefix}outp", f"{prefix}outn"
    for suffix, node in (("p", out_p), ("n", out_n)):
        circuit.add_mosfet(
            f"{prefix}mpl{suffix}", drain=node, gate="vbp", source="vdd",
            bulk=node, device=design.load_device())
        if with_dwell:
            circuit.add_diode(f"{prefix}dw{suffix}", "0", node,
                              Diode(NWELL_DIODE_180))
        # Explicit fan-out / wiring load; the paper's C_L.
        circuit.add_capacitor(f"{prefix}cl{suffix}", node, "0",
                              design.c_load)
    return out_p, out_n


def stscl_inverter_circuit(
        design: StsclGateDesign, vdd: float,
        in_p: Waveform | float | None = None,
        in_n: Waveform | float | None = None,
        with_dwell: bool = False,
        v_bp: float | None = None) -> tuple[Circuit, GatePorts]:
    """One STSCL inverter/buffer (paper Fig. 2) with driven inputs.

    Input defaults: a DC high (V_DD) on the positive side and a DC low
    (V_DD - V_SW) on the negative side.  An ideal tail sink keeps the
    experiment focused on the gate; the replica-solved V_BP biases the
    loads unless overridden.
    """
    circuit = Circuit("stscl_inverter", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    bias = _load_bias(design, vdd) if v_bp is None else v_bp
    circuit.add_vsource("vvbp", "vbp", "0", bias)

    high, low = vdd, vdd - design.v_sw
    circuit.add_vsource("vinp", "inp", "0",
                        dc_wave(high) if in_p is None else in_p)
    circuit.add_vsource("vinn", "inn", "0",
                        dc_wave(low) if in_n is None else in_n)

    out_p, out_n = _add_output_stage(circuit, design, "", with_dwell)
    pair = design.pair_device()
    # Input high on inp steers the tail current into out_n (pulls the
    # negative output low), so the gate is a buffer from (inp, inn) to
    # (outp, outn).
    circuit.add_mosfet("m1", drain=out_n, gate="inp", source="tail",
                       bulk="0", device=pair)
    circuit.add_mosfet("m2", drain=out_p, gate="inn", source="tail",
                       bulk="0", device=pair)
    circuit.add_isource("itail", "tail", "0", design.i_ss)

    circuit.nodeset(out_p, vdd)
    circuit.nodeset(out_n, vdd - design.v_sw)
    circuit.nodeset("tail", 0.1)

    ports = GatePorts(inputs={"a": ("inp", "inn")},
                      outputs={"y": (out_p, out_n)})
    return circuit, ports


def stscl_buffer_chain_circuit(
        design: StsclGateDesign, vdd: float, n_stages: int,
        in_p: Waveform | float, in_n: Waveform | float,
        with_dwell: bool = False) -> tuple[Circuit, GatePorts]:
    """A chain of ``n_stages`` buffers for propagation-delay extraction.

    Stage k's differential output drives stage k+1's input; every stage
    carries its own loads, tail and explicit C_L.
    """
    if n_stages < 1:
        raise DesignError(f"need at least one stage, got {n_stages}")
    circuit = Circuit("stscl_chain", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vvbp", "vbp", "0", _load_bias(design, vdd))
    circuit.add_vsource("vinp", "s0_outp", "0", in_p)
    circuit.add_vsource("vinn", "s0_outn", "0", in_n)

    pair = design.pair_device()
    outputs = {}
    for k in range(1, n_stages + 1):
        prefix = f"s{k}_"
        out_p, out_n = _add_output_stage(circuit, design, prefix,
                                         with_dwell)
        prev_p, prev_n = f"s{k-1}_outp", f"s{k-1}_outn"
        circuit.add_mosfet(f"{prefix}m1", drain=out_n, gate=prev_p,
                           source=f"{prefix}tail", bulk="0", device=pair)
        circuit.add_mosfet(f"{prefix}m2", drain=out_p, gate=prev_n,
                           source=f"{prefix}tail", bulk="0", device=pair)
        circuit.add_isource(f"{prefix}itail", f"{prefix}tail", "0",
                            design.i_ss)
        circuit.nodeset(out_p, vdd)
        circuit.nodeset(out_n, vdd - design.v_sw)
        circuit.nodeset(f"{prefix}tail", TAIL_SEED)
        outputs[f"y{k}"] = (out_p, out_n)
    _seed_driven_nets(circuit)

    ports = GatePorts(inputs={"a": ("s0_outp", "s0_outn")},
                      outputs=outputs)
    return circuit, ports


def replica_bias_circuit(design: StsclGateDesign,
                         vdd: float) -> tuple[Circuit, GatePorts]:
    """The closed replica-bias loop of Sec. II-A2 / Fig. 1.

    A replica load device carries the reference I_SS while an ideal
    error amplifier servos V_BP until the replica output sits exactly
    V_SW below V_DD.  The produced ``vbp`` node is what every gate's
    loads would share.
    """
    circuit = Circuit("replica_bias", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vref", "vref", "0", vdd - design.v_sw)
    # Replica load: bulk-drain shorted PMOS from vdd to vrep.
    circuit.add_mosfet("mrep", drain="vrep", gate="vbp", source="vdd",
                       bulk="vrep", device=design.load_device())
    circuit.add_isource("iref", "vrep", "0", design.i_ss)
    # Error amplifier: raises vbp (weakens the load) when vrep > vref.
    circuit.add_vcvs("eamp", "vbp", "0", "vrep", "vref", gain=1e4)
    circuit.nodeset("vrep", vdd - design.v_sw)
    circuit.nodeset("vbp", vdd - 0.4)
    ports = GatePorts(outputs={"vbp": ("vbp", "0"),
                               "vrep": ("vrep", "0")})
    return circuit, ports


def add_stscl_tree(circuit: Circuit, prefix: str,
                   design: StsclGateDesign,
                   function: Callable[[tuple[bool, ...]], bool],
                   input_pairs: Sequence[tuple[str, str]],
                   with_dwell: bool = False) -> SteeringTree:
    """Add one series-gated STSCL steering tree to ``circuit``.

    ``input_pairs`` names the (positive, negative) gate nets of each
    input, bottom level first.  All the tree's own nets and elements
    are namespaced under ``prefix``; returns the tree's output pair and
    the input prefix that routes the tail through each internal node.
    This is the composable core behind :func:`stscl_tree_circuit` and
    the full-adder bit-slice cell of :mod:`repro.stscl.adder`.
    """
    n_inputs = len(input_pairs)
    if not 1 <= n_inputs <= 3:
        raise DesignError(f"tree synthesis supports 1..3 inputs, "
                          f"got {n_inputs}")
    out_p, out_n = _add_output_stage(circuit, design, prefix, with_dwell)
    circuit.add_isource(f"{prefix}itail", f"{prefix}tail", "0",
                        design.i_ss)
    pair = design.pair_device()
    counter = itertools.count()
    routes: dict[str, tuple[bool, ...]] = {}

    def build(level: int, source_node: str,
              assignment: tuple[bool, ...]) -> None:
        """Grow the steering tree above ``source_node``."""
        if level == n_inputs:
            return
        for value in (True, False):
            gate_node = input_pairs[level][0 if value else 1]
            new_assignment = assignment + (value,)
            if level == n_inputs - 1:
                drain = out_n if function(new_assignment) else out_p
            else:
                drain = f"{prefix}b{next(counter)}"
                circuit.nodeset(drain, 0.15 * (level + 1))
                routes[drain] = new_assignment
            circuit.add_mosfet(
                f"{prefix}m{level}_{next(counter)}", drain=drain,
                gate=gate_node, source=source_node, bulk="0", device=pair)
            if level < n_inputs - 1:
                build(level + 1, drain, new_assignment)

    build(0, f"{prefix}tail", ())
    return SteeringTree(outputs=(out_p, out_n), routes=routes)


def add_stscl_latch(circuit: Circuit, prefix: str,
                    design: StsclGateDesign,
                    d_p: str, d_n: str, clk_p: str, clk_n: str,
                    with_dwell: bool = False) -> tuple[str, str]:
    """Add one clocked STSCL D-latch core to ``circuit``.

    Clock high steers the tail into the sampling pair (transparent);
    clock low into the cross-coupled hold pair.  Nets and elements are
    namespaced under ``prefix``; returns the output node pair.  The
    composable core behind :func:`stscl_latch_circuit` and the
    pipelined adder bit slice.
    """
    out_p, out_n = _add_output_stage(circuit, design, prefix, with_dwell)
    pair = design.pair_device()
    tail, ns, nh = f"{prefix}tail", f"{prefix}ns", f"{prefix}nh"
    circuit.add_mosfet(f"{prefix}mck1", drain=ns, gate=clk_p,
                       source=tail, bulk="0", device=pair)
    circuit.add_mosfet(f"{prefix}mck2", drain=nh, gate=clk_n,
                       source=tail, bulk="0", device=pair)
    circuit.add_mosfet(f"{prefix}md1", drain=out_n, gate=d_p,
                       source=ns, bulk="0", device=pair)
    circuit.add_mosfet(f"{prefix}md2", drain=out_p, gate=d_n,
                       source=ns, bulk="0", device=pair)
    circuit.add_mosfet(f"{prefix}mh1", drain=out_n, gate=out_p,
                       source=nh, bulk="0", device=pair)
    circuit.add_mosfet(f"{prefix}mh2", drain=out_p, gate=out_n,
                       source=nh, bulk="0", device=pair)
    circuit.add_isource(f"{prefix}itail", tail, "0", design.i_ss)
    return out_p, out_n


def stscl_tree_circuit(
        design: StsclGateDesign, vdd: float,
        function: Callable[[tuple[bool, ...]], bool],
        input_values: Sequence[tuple[float, float]],
        with_dwell: bool = False) -> tuple[Circuit, GatePorts]:
    """Series-gated synthesis of an arbitrary <=3-input STSCL cell.

    Builds the complete binary current-steering tree: the bottom level
    switches on input 0, the top level on input ``n-1``; the drain of
    each top-level leaf connects to ``outn`` when the function is true
    for that minterm (pulling the negative output low encodes logic 1).

    ``input_values`` supplies the (positive, negative) drive voltage of
    each input.  This is the generator behind the Fig. 8 majority cell
    check (see :func:`stscl_majority_circuit`).
    """
    n_inputs = len(input_values)
    if not 1 <= n_inputs <= 3:
        raise DesignError(f"tree synthesis supports 1..3 inputs, "
                          f"got {n_inputs}")
    circuit = Circuit("stscl_tree", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vvbp", "vbp", "0", _load_bias(design, vdd))
    for k, (v_p, v_n) in enumerate(input_values):
        circuit.add_vsource(f"vin{k}p", f"in{k}p", "0", v_p)
        circuit.add_vsource(f"vin{k}n", f"in{k}n", "0", v_n)

    out_p, out_n = add_stscl_tree(
        circuit, "", design, function,
        [(f"in{k}p", f"in{k}n") for k in range(n_inputs)],
        with_dwell=with_dwell).outputs
    circuit.nodeset(out_p, vdd)
    circuit.nodeset(out_n, vdd - design.v_sw)
    ports = GatePorts(
        inputs={f"in{k}": (f"in{k}p", f"in{k}n")
                for k in range(n_inputs)},
        outputs={"y": (out_p, out_n)})
    return circuit, ports


def stscl_majority_circuit(
        design: StsclGateDesign, vdd: float,
        values: tuple[bool, bool, bool],
        with_dwell: bool = False) -> tuple[Circuit, GatePorts]:
    """The Fig. 8 majority-detector core at a static input ``values``.

    Drives each differential input to the STSCL logic levels for the
    requested booleans and returns the synthesised three-level stacked
    tree.  (The output latch of the full Fig. 8 cell is exercised
    separately by :func:`stscl_latch_circuit`.)
    """
    high, low = vdd, vdd - design.v_sw
    drives = [(high, low) if v else (low, high) for v in values]

    def majority(v: tuple[bool, ...]) -> bool:
        return (v[0] and v[1]) or (v[0] and v[2]) or (v[1] and v[2])

    return stscl_tree_circuit(design, vdd, majority, drives,
                              with_dwell=with_dwell)


def stscl_ring_oscillator_circuit(
        design: StsclGateDesign, vdd: float, n_stages: int = 3,
        with_dwell: bool = False) -> tuple[Circuit, GatePorts]:
    """A differential STSCL ring oscillator.

    This is the VCO inside the paper's PLL (Fig. 1): its frequency
    f = 1/(2 N t_d) rides linearly on the tail current, which is
    exactly why the PLL's control quantity can *be* the system bias.
    Because the ring is differential, the odd inversion is a free wire
    swap on the feedback path, so any stage count >= 2 oscillates.

    The output nodes are seeded asymmetrically (nodesets) so transient
    analysis starts the oscillation without a kick source.
    """
    if n_stages < 2:
        raise DesignError(f"ring needs at least 2 stages: {n_stages}")
    circuit = Circuit("stscl_ring", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vvbp", "vbp", "0", _load_bias(design, vdd))
    pair = design.pair_device()
    high, low = vdd, vdd - design.v_sw
    for k in range(1, n_stages + 1):
        prefix = f"s{k}_"
        out_p, out_n = _add_output_stage(circuit, design, prefix,
                                         with_dwell)
        if k == 1:
            # Feedback from the last stage, swapped (the free inversion).
            prev_p = f"s{n_stages}_outn"
            prev_n = f"s{n_stages}_outp"
        else:
            prev_p, prev_n = f"s{k-1}_outp", f"s{k-1}_outn"
        circuit.add_mosfet(f"{prefix}m1", drain=out_n, gate=prev_p,
                           source=f"{prefix}tail", bulk="0", device=pair)
        circuit.add_mosfet(f"{prefix}m2", drain=out_p, gate=prev_n,
                           source=f"{prefix}tail", bulk="0", device=pair)
        circuit.add_isource(f"{prefix}itail", f"{prefix}tail", "0",
                            design.i_ss)
        # Stagger the initial state around the loop to start it up.
        phase = k % 2 == 0
        circuit.nodeset(out_p, high if phase else low)
        circuit.nodeset(out_n, low if phase else high)
        circuit.nodeset(f"{prefix}tail", 0.1)
    # The ring's only DC solution is the metastable balance point, so a
    # noiseless transient would sit there forever.  Kick stage 1 with a
    # one-gate-delay current pulse to start the oscillation (the role
    # device noise plays in silicon).
    t_kick = design.delay()
    circuit.add_isource(
        "ikick", "s1_outp", "0",
        pulse_wave(0.0, design.i_ss, delay=0.0, rise=t_kick / 10.0,
                   fall=t_kick / 10.0, width=t_kick,
                   period=1e6 * t_kick))
    ports = GatePorts(outputs={
        f"y{k}": (f"s{k}_outp", f"s{k}_outn")
        for k in range(1, n_stages + 1)})
    return circuit, ports


def stscl_latch_circuit(
        design: StsclGateDesign, vdd: float,
        d_p: Waveform | float, d_n: Waveform | float,
        clk_p: Waveform | float, clk_n: Waveform | float,
        with_dwell: bool = False) -> tuple[Circuit, GatePorts]:
    """A clocked STSCL D-latch (the pipelining element of Sec. III-B).

    Clock high steers the tail current into the input (sampling) pair;
    clock low steers it into the cross-coupled (hold) pair, freezing the
    output for the rest of the cycle so the next pipeline stage can
    evaluate.
    """
    circuit = Circuit("stscl_latch", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vvbp", "vbp", "0", _load_bias(design, vdd))
    circuit.add_vsource("vdp", "dp", "0", d_p)
    circuit.add_vsource("vdn", "dn", "0", d_n)
    circuit.add_vsource("vckp", "ckp", "0", clk_p)
    circuit.add_vsource("vckn", "ckn", "0", clk_n)

    out_p, out_n = add_stscl_latch(circuit, "", design, "dp", "dn",
                                   "ckp", "ckn", with_dwell=with_dwell)

    circuit.nodeset(out_p, vdd)
    circuit.nodeset(out_n, vdd - design.v_sw)
    for node in ("tail", "ns", "nh"):
        circuit.nodeset(node, 0.1)

    ports = GatePorts(inputs={"d": ("dp", "dn"), "clk": ("ckp", "ckn")},
                      outputs={"q": (out_p, out_n)})
    return circuit, ports
