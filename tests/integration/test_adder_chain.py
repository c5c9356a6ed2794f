"""The transistor-level 32-bit adder chain: the thousand-unknown
scale target of the sparse + hierarchical MNA work.

One full-adder bit slice (XOR3 + MAJ3 steering trees plus two pipeline
latches, 48 MOSFETs) is compiled once and instantiated per bit; at 32
bits the flat MNA system crosses 1000 unknowns, the auto backend picks
sparse, and the DC solution *is* the arithmetic result -- every sum bit
must land on the correct side of its differential pair at full swing.

The generators seed Newton from the logic (driven nets at their source
values, steering-tree nodes on or off the tail path), so the adder and
the buffer chain converge on the first rung of the ladder; the
arithmetic and ``TestLogicSeededDc`` pins check that start against the
sum and the continuation rungs.
"""

import numpy as np
import pytest

from repro.spice import (PseudoTransientStrategy, SourceSteppingStrategy,
                         operating_point)
from repro.spice.batch import LaneSpec, apply_lane
from repro.stscl.adder import adder_chain_circuit, full_adder_cell
from repro.stscl.gate_model import StsclGateDesign
from repro.stscl.netlist_gen import stscl_buffer_chain_circuit

VDD = 0.4


@pytest.fixture(scope="module")
def design():
    return StsclGateDesign(i_ss=1e-9)


def decode(result, ports, width: int) -> tuple[int, bool]:
    total = 0
    for i in range(width):
        p, n = ports[f"s{i}"]
        if result.voltages[p] - result.voltages[n] > 0:
            total |= 1 << i
    p, n = ports["cout"]
    return total, result.voltages[p] - result.voltages[n] > 0


class TestScaleTarget:
    def test_32bit_chain_exceeds_thousand_unknowns_and_goes_sparse(
            self, design):
        circuit, _ = adder_chain_circuit(design, VDD)
        compiled = circuit.compile()
        assert compiled.size >= 1000
        assert compiled.solver_backend() == "sparse"

    def test_cell_compiles_once_across_instances(self, design):
        cell = full_adder_cell(design, VDD)
        plan_a = cell.subcircuit.plan()
        plan_b = cell.subcircuit.plan()
        assert plan_a is plan_b


def _random_operands(count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32)),
             bool(rng.integers(0, 2))) for _ in range(count)]


class TestArithmetic:
    @pytest.mark.parametrize("a,b,cin", [
        (0xDEADBEEF, 0x12345678, True),   # carries ripple everywhere
        (0xFFFFFFFF, 0x00000001, False),  # full-length carry chain
        (0x00000000, 0x00000000, False),
        (0x00000000, 0x00000000, True),
        (0xFFFFFFFF, 0xFFFFFFFF, True),   # every bit generates
        (0xAAAAAAAA, 0x55555555, True),   # every bit propagates
        (0x80000000, 0x80000000, False),  # carry out only
    ] + _random_operands(16, seed=2024))
    def test_dc_solution_is_the_sum(self, design, a, b, cin):
        """The logic-seeded start converges on plain Newton (the first
        rung) to the arithmetic answer."""
        circuit, ports = adder_chain_circuit(design, VDD, a=a, b=b,
                                             carry_in=cin)
        op = operating_point(circuit)
        assert op.diagnostics.rescued_by == "newton"
        expected = a + b + (1 if cin else 0)
        total, cout = decode(op, ports, 32)
        assert total == (expected & 0xFFFFFFFF)
        assert cout == bool(expected >> 32)

    def test_outputs_swing_fully(self, design):
        """Every decoded bit rests at a healthy fraction of V_SW --
        logic levels, not numerical noise around zero."""
        circuit, ports = adder_chain_circuit(design, VDD, a=0xAAAAAAAA,
                                             b=0x55555555)
        op = operating_point(circuit)
        for i in range(32):
            p, n = ports[f"s{i}"]
            swing = abs(op.voltages[p] - op.voltages[n])
            assert swing > 0.5 * design.v_sw

    def test_sparse_matches_dense_on_a_short_chain(self, design):
        """Backend equivalence on the real workload (8 bits keeps the
        dense factorization cheap)."""
        results = {}
        for backend in ("dense", "sparse"):
            circuit, ports = adder_chain_circuit(
                design, VDD, width=8, a=0xA5, b=0x3C, carry_in=True)
            circuit.matrix_backend = backend
            results[backend] = operating_point(circuit)
        dense, sparse = results["dense"], results["sparse"]
        for node, value in dense.voltages.items():
            assert sparse.voltages[node] == pytest.approx(value,
                                                          abs=1e-9)
        assert decode(sparse, ports, 8)[0] == ((0xA5 + 0x3C + 1) & 0xFF)

    def test_unlatched_chain_also_converges(self, design):
        circuit, ports = adder_chain_circuit(design, VDD, width=8,
                                             a=0x0F, b=0x01,
                                             with_latches=False)
        op = operating_point(circuit)
        assert decode(op, ports, 8)[0] == 0x10


class TestLogicSeededDc:
    """The logic-derived start lands in the right basin: plain Newton
    converges to the solution the continuation rungs reach, also under
    mismatch."""

    @pytest.mark.parametrize("a,b,cin", [
        (0xFFFFFFFF, 0x00000001, True),
        (0xAAAAAAAA, 0x55555555, True),
        (0x0F0F1234, 0x77770001, False),
    ])
    def test_seeded_newton_matches_the_continuation_rungs(self, design,
                                                          a, b, cin):
        circuit, _ = adder_chain_circuit(design, VDD, a=a, b=b,
                                         carry_in=cin)
        seeded = operating_point(circuit)
        homotopy = operating_point(
            circuit, strategies=(SourceSteppingStrategy(),
                                 PseudoTransientStrategy()))
        assert seeded.diagnostics.rescued_by == "newton"
        for node, value in homotopy.voltages.items():
            assert seeded.voltages[node] == pytest.approx(value, abs=1e-9)

    def test_buffer_chain_converges_on_newton_across_mismatch(
            self, design):
        high, low = VDD, VDD - design.v_sw
        circuit, ports = stscl_buffer_chain_circuit(
            design, VDD, 8, high, low, with_dwell=True)
        n_mos = len(circuit.mos_elements())
        draws = np.random.default_rng(7).normal(0.0, 2e-3, (20, n_mos))
        tol = 0.15 * design.v_sw
        for vt in draws:
            undo = apply_lane(circuit, LaneSpec.mismatch(vt))
            try:
                op = operating_point(circuit)
            finally:
                undo()
            assert op.diagnostics.rescued_by == "newton"
            for pos, neg in ports.outputs.values():
                assert op.voltage(pos) == pytest.approx(high, abs=tol)
                assert op.voltage(neg) == pytest.approx(low, abs=tol)
