"""The 32-bit pipelined STSCL adder of ref. [13] (experiment E9).

Each full adder is two compound stacked cells -- XOR3 for the sum and
MAJ3 for the carry -- so one bit costs exactly two tail currents.  With
``granularity = 1`` every full adder is latch-merged (``*_PIPE``) and
the automatic balancer skews/deskews the operand and sum bits, giving
the classic bit-level-pipelined carry chain whose logic depth is one
cell; coarser granularities trade alignment latches for logic depth.

Ref. [13] reports ~5 fJ/stage power-delay product; with the repo's
default design point (I_SS = 1 nA, V_SW = 0.2 V, C_L = 50 fF,
V_DD = 0.4 V) the model lands at

    PDP_stage = 2 * I_SS * V_DD * t_d ~ 5.5 fJ

which the E9 benchmark records against the paper value.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DesignError
from ..stscl.library import StsclCell, cell as lookup_cell
from .gate_model import StsclGateDesign


def _parity3(v: tuple[bool, ...]) -> bool:
    return (v[0] ^ v[1]) ^ v[2]


def _majority3(v: tuple[bool, ...]) -> bool:
    return (v[0] and v[1]) or (v[0] and v[2]) or (v[1] and v[2])


def full_adder_cells(pipelined: bool) -> tuple[StsclCell, StsclCell]:
    """(sum_cell, carry_cell) used per adder bit."""
    if pipelined:
        return lookup_cell("FASUM_PIPE"), lookup_cell("MAJ3_PIPE")
    return lookup_cell("XOR3"), lookup_cell("MAJ3")


@dataclass(frozen=True)
class PipelinedAdder:
    """A ``width``-bit ripple-carry adder pipelined every
    ``granularity`` bits.

    ``granularity = 1`` reproduces the fully pipelined ref-[13] design;
    ``granularity = width`` is the flat (unpipelined) ripple adder used
    as the E9 baseline.
    """

    width: int = 32
    granularity: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise DesignError(f"width must be >= 1: {self.width}")
        if not 1 <= self.granularity <= self.width:
            raise DesignError(
                f"granularity must be in 1..{self.width}: "
                f"{self.granularity}")

    def build(self, balanced: bool = True):
        """Construct the gate netlist (inputs ``a*``, ``b*``, ``cin``;
        outputs ``s*``, ``cout``)."""
        from ..digital.netlist import GateNetlist
        from ..digital.pipeline import balance_pipeline

        netlist = GateNetlist(f"adder{self.width}_g{self.granularity}")
        a = [netlist.add_input(f"a{i}") for i in range(self.width)]
        b = [netlist.add_input(f"b{i}") for i in range(self.width)]
        carry = netlist.add_input("cin")

        for i in range(self.width):
            boundary = (i + 1) % self.granularity == 0
            sum_cell, carry_cell = full_adder_cells(pipelined=boundary)
            netlist.add_gate(f"fa{i}_sum", sum_cell,
                             [a[i], b[i], carry], f"s{i}")
            netlist.add_gate(f"fa{i}_carry", carry_cell,
                             [a[i], b[i], carry], f"c{i + 1}")
            carry = f"c{i + 1}"
            netlist.mark_output(f"s{i}")
        netlist.mark_output(carry)
        netlist.validate()
        if balanced and self.granularity < self.width:
            netlist = balance_pipeline(netlist)
        return netlist

    def pdp_per_stage(self, design: StsclGateDesign, vdd: float) -> float:
        """Power-delay product of one full-adder stage [J] (ref [13]'s
        figure of merit): two tail currents for one gate delay."""
        return 2.0 * design.power(vdd) * design.delay()

    def simulate_add(self, netlist, x: int, y: int,
                     carry_in: bool = False) -> int:
        """Drive the netlist with one operand pair and return the sum.

        Handles pipeline flushing automatically; works for both flat and
        balanced netlists.
        """
        from ..digital.simulator import CycleSimulator

        mask = (1 << self.width) - 1
        if not 0 <= x <= mask or not 0 <= y <= mask:
            raise DesignError("operand out of range")
        vector = {"cin": carry_in}
        for i in range(self.width):
            vector[f"a{i}"] = bool((x >> i) & 1)
            vector[f"b{i}"] = bool((y >> i) & 1)
        simulator = CycleSimulator(netlist)
        flush = simulator.latency() + 1
        values = None
        for _cycle in range(flush):
            values = simulator.step(vector)
        total = 0
        for k, net in enumerate(netlist.primary_outputs):
            if values[net]:
                total += 1 << k
        return total


# ---------------------------------------------------------------------------
# Transistor-level bit-slice chain (hierarchical MNA scale target)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullAdderCell:
    """One transistor-level STSCL full-adder bit slice as a reusable
    subcircuit template.

    ``sum_out`` / ``carry_out`` name the template's differential output
    ports; with latches these are the latch outputs (``sl_``/``kl_``
    stages), without they are the raw tree outputs.  ``sum_tree`` /
    ``carry_tree`` are the XOR3 and MAJ3 steering trees (template nets),
    whose routes let a placement seed each internal node from its
    known input bits.
    """

    subcircuit: object  # repro.spice.subckt.Subcircuit
    sum_out: tuple[str, str]
    carry_out: tuple[str, str]
    sum_tree: object  # repro.stscl.netlist_gen.SteeringTree
    carry_tree: object

    @property
    def ports(self) -> tuple[str, ...]:
        return self.subcircuit.ports


def full_adder_cell(design: StsclGateDesign, vdd: float,
                    with_latches: bool = True,
                    with_dwell: bool = False) -> FullAdderCell:
    """Build the transistor-level full-adder bit-slice template.

    The slice is the ref-[13] topology spelled out in devices: an XOR3
    steering tree for the sum, a MAJ3 tree for the carry, and (when
    ``with_latches``) one STSCL D-latch behind each so the chain is
    bit-level pipelined -- 48 MOSFETs and two tree tails plus two latch
    tails per bit.  Shared rails (``vdd``, ``vbp``) and the clock pair
    are ports so a chain of instances shares one bias network.

    Template nodesets encode the all-zero-operand polarity (every
    output at logic 0) and the transparent clock phase (the latches'
    hold pairs cut off from their tails); :func:`adder_chain_circuit`
    overrides them per bit from the expected sum/carry pattern.
    """
    from ..spice.netlist import Circuit
    from ..spice.subckt import Subcircuit
    from .netlist_gen import TAIL_SEED, add_stscl_latch, add_stscl_tree

    high, low = vdd, vdd - design.v_sw
    tpl = Circuit("stscl_fa_slice", temperature=design.temperature)
    inputs = [("ap", "an"), ("bp", "bn"), ("cp", "cn")]
    sum_tree = add_stscl_tree(tpl, "xs_", design, _parity3, inputs,
                              with_dwell=with_dwell)
    carry_tree = add_stscl_tree(tpl, "mc_", design, _majority3, inputs,
                                with_dwell=with_dwell)
    xs, mc = sum_tree.outputs, carry_tree.outputs
    tpl.nodeset("xs_tail", TAIL_SEED)
    tpl.nodeset("mc_tail", TAIL_SEED)
    if with_latches:
        sum_out = add_stscl_latch(tpl, "sl_", design, xs[0], xs[1],
                                  "ckp", "ckn", with_dwell=with_dwell)
        carry_out = add_stscl_latch(tpl, "kl_", design, mc[0], mc[1],
                                    "ckp", "ckn", with_dwell=with_dwell)
        for prefix in ("sl_", "kl_"):
            tpl.nodeset(f"{prefix}tail", TAIL_SEED)
            tpl.nodeset(f"{prefix}ns", TAIL_SEED)
            tpl.nodeset(f"{prefix}nh", low)
    else:
        sum_out, carry_out = xs, mc

    for out_p, out_n in (xs, mc, sum_out, carry_out):
        # Logic-0 polarity: the false-minterm leaves pull outp low.
        tpl.nodeset(out_p, low)
        tpl.nodeset(out_n, high)

    clock_ports = ("ckp", "ckn") if with_latches else ()
    ports = ("vdd", "vbp", *clock_ports,
             "ap", "an", "bp", "bn", "cp", "cn",
             *sum_out, *carry_out)
    return FullAdderCell(
        subcircuit=Subcircuit("stscl_fa", tpl, ports),
        sum_out=sum_out, carry_out=carry_out,
        sum_tree=sum_tree, carry_tree=carry_tree)


def _drive_pair(circuit, name: str, p: str, n: str, value: bool,
                high: float, low: float) -> None:
    circuit.add_vsource(f"v{name}p", p, "0", high if value else low)
    circuit.add_vsource(f"v{name}n", n, "0", low if value else high)


def _expect_pair(circuit, p: str, n: str, value: bool,
                 high: float, low: float) -> None:
    circuit.nodeset(p, high if value else low)
    circuit.nodeset(n, low if value else high)


def adder_chain_circuit(design: StsclGateDesign, vdd: float,
                        width: int = 32, a: int = 0, b: int = 0,
                        carry_in: bool = False,
                        with_latches: bool = True,
                        with_dwell: bool = False):
    """The ``width``-bit ripple-carry adder at transistor level.

    One :func:`full_adder_cell` template instantiated ``width`` times
    through the hierarchical compiler: the cell is compiled once and
    each bit slice is an :class:`~repro.spice.subckt.Instance` with
    index-offset stamping, so build cost is O(cell) + O(width) rather
    than O(width * cell).  At the default 32 bits the flat MNA system
    exceeds a thousand unknowns -- the scale target that motivates the
    sparse backend.

    Operands ``a``/``b`` and ``carry_in`` are encoded as DC
    differential drives; the clock is held high so the latches are
    transparent and the DC solution *is* the sum.  Nodesets follow the
    logic computed in Python, so Newton starts in the right basin: every
    driven net at its source value, every gate output and bistable latch
    on its expected side, and every steering-tree node at the tail seed
    when its bit's inputs route the tail through it, at V_DD - V_SW when
    they cut it off.

    Returns ``(circuit, ports)`` where ``ports`` maps ``"s{i}"`` /
    ``"cout"`` to differential net pairs.
    """
    from ..spice.netlist import Circuit
    from .netlist_gen import TAIL_SEED, _load_bias, _seed_driven_nets

    mask = (1 << width) - 1
    if width < 1:
        raise DesignError(f"width must be >= 1: {width}")
    if not 0 <= a <= mask or not 0 <= b <= mask:
        raise DesignError("operand out of range")

    cell = full_adder_cell(design, vdd, with_latches=with_latches,
                           with_dwell=with_dwell)
    high, low = vdd, vdd - design.v_sw

    circuit = Circuit(f"stscl_adder{width}_xtor",
                      temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vvbp", "vbp", "0", _load_bias(design, vdd))
    if with_latches:
        # Clock high: sampling pairs carry the tails, transparent.
        circuit.add_vsource("vckp", "ckp", "0", high)
        circuit.add_vsource("vckn", "ckn", "0", low)
    _drive_pair(circuit, "cin", "c0p", "c0n", carry_in, high, low)

    carry_net = ("c0p", "c0n")
    carry = carry_in
    outputs: dict[str, tuple[str, str]] = {}
    for i in range(width):
        a_i = bool((a >> i) & 1)
        b_i = bool((b >> i) & 1)
        _drive_pair(circuit, f"a{i}", f"a{i}p", f"a{i}n", a_i, high, low)
        _drive_pair(circuit, f"b{i}", f"b{i}p", f"b{i}n", b_i, high, low)
        s_nets = (f"s{i}p", f"s{i}n")
        k_nets = (f"c{i + 1}p", f"c{i + 1}n")
        port_map = {
            "vdd": "vdd", "vbp": "vbp",
            "ap": f"a{i}p", "an": f"a{i}n",
            "bp": f"b{i}p", "bn": f"b{i}n",
            "cp": carry_net[0], "cn": carry_net[1],
            cell.sum_out[0]: s_nets[0], cell.sum_out[1]: s_nets[1],
            cell.carry_out[0]: k_nets[0], cell.carry_out[1]: k_nets[1],
        }
        if with_latches:
            port_map.update(ckp="ckp", ckn="ckn")
        instance = circuit.add_instance(f"fa{i}", cell.subcircuit,
                                        port_map)
        bits = (a_i, b_i, carry)
        for tree in (cell.sum_tree, cell.carry_tree):
            for net, voltage in tree.seeds(bits, TAIL_SEED, low).items():
                circuit.nodeset(instance.map_net(net), voltage)
        s_i = _parity3(bits)
        carry = _majority3(bits)
        # Repoint the replayed template nodesets at the expected bit
        # values so Newton starts on the right side of each latch.
        _expect_pair(circuit, *s_nets, s_i, high, low)
        _expect_pair(circuit, *k_nets, carry, high, low)
        if with_latches:
            _expect_pair(circuit, *map(instance.map_net,
                                       cell.sum_tree.outputs),
                         s_i, high, low)
            _expect_pair(circuit, *map(instance.map_net,
                                       cell.carry_tree.outputs),
                         carry, high, low)
        outputs[f"s{i}"] = s_nets
        carry_net = k_nets
    outputs["cout"] = carry_net
    _seed_driven_nets(circuit)
    return circuit, outputs
