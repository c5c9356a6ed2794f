"""Sparse backend: bit-level stamp-scatter agreement and selection.

The sparse assembler is a *twin* of the dense flat-index scatter, not a
reimplementation: every triplet segment mirrors one dense accumulation
pass in the same left-to-right order (``lin, mos, dio, cap, diocap,
diag``), and ``np.bincount`` sums duplicate triplets sequentially.  The
contract is therefore exact equality of the assembled entries -- these
tests compare with ``==``, not a tolerance.  (The one deliberate
exception: stacking *two* diagonal stamps, e.g. a pseudo-transient
anchor plus gmin, associates differently between the backends, so the
bit-level tests use a single ``add_diagonal`` call.)
"""

import numpy as np
import pytest

from repro import telemetry
from repro.devices.diode import Diode, DiodeParameters
from repro.errors import NetlistError
from repro.spice import (Circuit, LuReuseState, NewtonOptions,
                         PseudoTransientStrategy, SourceSteppingStrategy,
                         operating_point)
from repro.spice.elements import Element, Stamper
from repro.spice.sparse import (SPARSE_AUTO_THRESHOLD, SparseStamper,
                                SparseSystem)
from repro.stscl.netlist_gen import stscl_inverter_circuit

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))


def mixed_circuit(backend: str) -> Circuit:
    """R + V + I + diode + VCVS: every linear pattern plus both
    nonlinear banks."""
    circuit = Circuit("mixed", matrix_backend=backend)
    circuit.add_vsource("V1", "in", "0", 1.2)
    circuit.add_resistor("R1", "in", "a", 220.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    circuit.add_resistor("R2", "a", "b", 1e3)
    circuit.add_capacitor("C1", "b", "0", 1e-12)
    circuit.add_isource("I1", "b", "0", 1e-6)
    circuit.add_vcvs("E1", "c", "0", "a", "0", 2.0)
    circuit.add_resistor("R3", "c", "0", 5e3)
    return circuit


def inverter_circuit(backend: str, design) -> Circuit:
    circuit, _ = stscl_inverter_circuit(design, 0.4)
    circuit.matrix_backend = backend
    return circuit


def _pair(builder):
    """(dense stamper+compiled, sparse stamper+compiled) of one
    topology built twice -- identical node indexing by construction."""
    dense = builder("dense").compile()
    sparse = builder("sparse").compile()
    st_d, st_s = dense.new_stamper(), sparse.new_stamper()
    assert isinstance(st_d, Stamper)
    assert isinstance(st_s, SparseStamper)
    return (dense, st_d), (sparse, st_s)


class TestBitLevelAgreement:
    @pytest.mark.parametrize("x_kind", ["flat", "solved"])
    def test_static_assembly_is_bit_identical(self, x_kind):
        (dense, st_d), (sparse, st_s) = _pair(mixed_circuit)
        x = dense.circuit.initial_guess(dense)
        if x_kind == "solved":
            x = operating_point(dense.circuit).x
        dense.stamp_all(st_d, x, None)
        sparse.stamp_all(st_s, x, None)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)
        assert np.array_equal(st_s.res, st_d.res)

    def test_mos_bank_assembly_is_bit_identical(self, default_design):
        (dense, st_d), (sparse, st_s) = _pair(
            lambda backend: inverter_circuit(backend, default_design))
        x = operating_point(dense.circuit).x
        dense.stamp_all(st_d, x, None)
        sparse.stamp_all(st_s, x, None)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)
        assert np.array_equal(st_s.res, st_d.res)

    def test_charge_companions_are_bit_identical(self, default_design):
        """The transient companion stamp (cap + diode-cap segments)
        lands on the same entries with the same values."""
        (dense, st_d), (sparse, st_s) = _pair(
            lambda backend: inverter_circuit(backend, default_design))
        x = operating_point(dense.circuit).x
        c0 = 1.0 / 1e-9  # backward-Euler coefficient for dt = 1 ns
        q0 = dense.assembler.charge_vector(x)
        rhs = -c0 * q0
        for compiled, st in ((dense, st_d), (sparse, st_s)):
            compiled.stamp_all(st, x, None)
            compiled.assembler.stamp_charges(st, x, c0, rhs)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)
        assert np.array_equal(st_s.res, st_d.res)

    def test_gmin_diagonal_is_bit_identical(self):
        (dense, st_d), (sparse, st_s) = _pair(mixed_circuit)
        x = dense.circuit.initial_guess(dense)
        n_nodes = len(dense.node_index)
        for compiled, st in ((dense, st_d), (sparse, st_s)):
            compiled.stamp_all(st, x, None)
            st.add_diagonal(1e-9, n_nodes)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)

    def test_solutions_agree_to_solver_tolerance(self, default_design):
        """End-to-end: same circuit through both Newton backends."""
        dense = operating_point(inverter_circuit("dense", default_design))
        sparse = operating_point(
            inverter_circuit("sparse", default_design))
        for node, value in dense.voltages.items():
            assert sparse.voltages[node] == pytest.approx(value,
                                                          abs=1e-9)


class TestBackendSelection:
    def test_auto_stays_dense_below_threshold(self):
        compiled = mixed_circuit("auto").compile()
        assert compiled.size < SPARSE_AUTO_THRESHOLD
        assert compiled.solver_backend() == "dense"

    def test_auto_switches_at_threshold(self):
        circuit = Circuit("ladder", matrix_backend="auto")
        previous = "0"
        for k in range(SPARSE_AUTO_THRESHOLD + 1):
            circuit.add_resistor(f"R{k}", previous, f"n{k}", 100.0)
            previous = f"n{k}"
        circuit.add_vsource("V1", previous, "0", 1.0)
        compiled = circuit.compile()
        assert compiled.size >= SPARSE_AUTO_THRESHOLD
        assert compiled.solver_backend() == "sparse"

    def test_explicit_sparse_honored_on_tiny_circuits(self):
        assert mixed_circuit("sparse").compile().solver_backend() \
            == "sparse"

    def test_explicit_dense_always_dense(self):
        assert mixed_circuit("dense").compile().solver_backend() \
            == "dense"

    def test_unknown_backend_rejected(self):
        with pytest.raises(NetlistError, match="matrix_backend"):
            Circuit("bad", matrix_backend="banded")

    def test_foreign_element_pins_to_dense(self):
        """An imperative (fallback) stamp has no triplet twin: auto
        degrades to dense, explicit sparse refuses loudly."""

        class Gyrator(Element):
            def __init__(self):
                super().__init__("GY1", ("p", "q"))

            def stamp(self, st, x, time):
                p, q = self.node_indices
                st.add_j(p, p, 1e-3)
                st.add_j(q, q, 1e-3)
                st.res[p] += 1e-3 * x[p]
                st.res[q] += 1e-3 * x[q]

        def build(backend):
            circuit = Circuit("foreign", matrix_backend=backend)
            circuit.add_vsource("V1", "p", "0", 1.0)
            circuit.add_resistor("R1", "p", "q", 1e3)
            circuit._register(Gyrator())
            return circuit

        assert build("auto").compile().solver_backend() == "dense"
        with pytest.raises(NetlistError, match="sparse"):
            build("sparse").compile().solver_backend()


class TestSparseSystem:
    def test_duplicate_triplets_accumulate(self):
        system = SparseSystem(2, {
            "a": (np.array([0, 0, 1]), np.array([0, 0, 1])),
            "diag": (np.array([0, 1]), np.array([0, 1]))})
        matrix = system.matrix(np.array([1.0, 2.0, 5.0, 0.25, 0.75]))
        assert np.array_equal(matrix.toarray(),
                              [[3.25, 0.0], [0.0, 5.75]])

    def test_unmasked_ground_entries_rejected(self):
        with pytest.raises(ValueError, match="ground"):
            SparseSystem(2, {"a": (np.array([-1]), np.array([0]))})

    def test_empty_system_builds(self):
        system = SparseSystem(3, {})
        assert system.nnz == 0
        assert system.matrix(np.zeros(0)).shape == (3, 3)


def _random_system(size: int = 14, seed: int = 3):
    """A diagonally-anchored random pattern whose COLAMD ordering is
    not the identity, plus one values vector over it."""
    rng = np.random.default_rng(seed)
    mask = rng.random((size, size)) < 0.25
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    system = SparseSystem(size, {"full": (rows, cols)})
    values = rng.normal(size=rows.size)
    values[rows == cols] += 4.0
    return system, rows, cols, values


def _dense(rows, cols, values, size):
    a = np.zeros((size, size))
    np.add.at(a, (rows, cols), values)
    return a


class TestCachedOrdering:
    """One COLAMD ordering per system: the first factorization fixes
    it, every later one replays it with ``permc_spec="NATURAL"`` on
    the permuted data -- bit for bit what COLAMD would have done."""

    def test_adder_jacobian_solves_are_bitwise_colamd(self, default_design,
                                                      monkeypatch):
        from scipy.sparse.linalg import splu

        from repro.stscl.adder import adder_chain_circuit

        captured = []
        factorize = SparseStamper.factorize

        def recording(st):
            handle = factorize(st)
            captured.append((st.matrix(), handle))
            return handle

        monkeypatch.setattr(SparseStamper, "factorize", recording)
        circuit, _ = adder_chain_circuit(default_design, 0.4, width=32,
                                         a=0x0F0F_1234, b=0x7777_0001,
                                         carry_in=True)
        # The logic-seeded adder converges on plain Newton in about a
        # dozen Jacobians; the continuation rungs walk it through many
        # more, each checked against a fresh COLAMD below.
        ladder = (SourceSteppingStrategy(), PseudoTransientStrategy())
        assert operating_point(circuit, strategies=ladder).converged
        system = circuit.compile().assembler.sparse_system()
        assert system.perm_c is not None
        assert not np.array_equal(system.perm_c, np.arange(system.size))
        assert len(captured) > 100
        rng = np.random.default_rng(0)
        for a_csc, handle in captured:
            reference = splu(a_csc, permc_spec="COLAMD")
            assert np.array_equal(reference.perm_c, system.perm_c)
            b = rng.normal(size=system.size)
            assert np.array_equal(handle.solve(b), reference.solve(b))

    def test_matrix_keeps_the_original_order_after_adoption(self):
        system, rows, cols, values = _random_system()
        assert system.factorize(system.data(values)) is not None
        assert system.perm_c is not None
        assert not np.array_equal(system.perm_c, np.arange(system.size))
        dense = _dense(rows, cols, values, system.size)
        assert np.array_equal(system.matrix(values).toarray(), dense)
        assert np.array_equal(system.toarray(system.data(values)), dense)
        b = np.arange(system.size, dtype=float)
        handle = system.factorize(system.data(values))
        np.testing.assert_allclose(handle.solve(b),
                                   np.linalg.solve(dense, b), rtol=1e-10)

    def test_one_symbolic_count_per_system(self):
        system, _rows, _cols, values = _random_system()
        with telemetry.tracing("ordering") as trace:
            for scale in (1.0, 2.0, 3.0):
                system.factorize(system.data(scale * values))
        counters = trace.total_counters()
        assert counters["sparse_symbolic_factorizations"] == 1
        assert counters["sparse_numeric_refactorizations"] == 3

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_singular_and_nan_still_return_none(self):
        """After the ordering is fixed, an exactly singular matrix and
        a NaN matrix still yield None (the caller's least-squares
        fallback), and the NaN one never reaches SuperLU."""
        system, rows, cols, values = _random_system()
        system.factorize(system.data(values))
        singular = values.copy()
        singular[rows == 0] = 0.0  # row 0 empty
        assert system.factorize(system.data(singular)) is None
        poisoned = values.copy()
        poisoned[0] = np.nan
        with telemetry.tracing("nan") as trace:
            assert system.factorize(system.data(poisoned)) is None
        assert trace.total_counters().get(
            "sparse_numeric_refactorizations", 0) == 0

    def test_stacked_lstsq_fallback_sees_the_original_matrix(self):
        """A singular lane after the ordering is fixed degrades to the
        least-squares step of the *original* matrix, bit for bit."""
        from repro.spice.batch import _solve_stacked_sparse

        system, rows, cols, values = _random_system()
        vals = np.stack([values, values.copy(), 1.5 * values])
        vals[1, rows == 2] = 0.0  # lane 1: row 2 empty
        system.factorize(system.data(values))
        res = np.random.default_rng(1).normal(size=(3, system.size))
        dX, fresh = _solve_stacked_sparse(
            system, vals, res, np.arange(3), system.size,
            NewtonOptions(), [LuReuseState() for _ in range(3)],
            np.full(3, np.inf), None)
        singular = _dense(rows, cols, vals[1], system.size)
        expected, *_ = np.linalg.lstsq(singular, -res[1], rcond=None)
        assert np.array_equal(dX[1], expected)
        for k in (0, 2):
            np.testing.assert_allclose(
                dX[k], np.linalg.solve(
                    _dense(rows, cols, vals[k], system.size), -res[k]),
                rtol=1e-10)
        assert fresh.all()

    def test_stacked_rows_are_re_emitted_after_adoption(self):
        """The first stacked factorization fixes the ordering mid-loop;
        the remaining lanes must still solve their own matrices."""
        from repro.spice.batch import _solve_stacked_sparse

        system, rows, cols, values = _random_system()
        vals = np.stack([values, 2.0 * values, values + 0.5])
        res = np.random.default_rng(2).normal(size=(3, system.size))
        dX, _ = _solve_stacked_sparse(
            system, vals, res, np.arange(3), system.size,
            NewtonOptions(), [LuReuseState() for _ in range(3)],
            np.full(3, np.inf), None)
        assert system.perm_c is not None
        for k in range(3):
            np.testing.assert_allclose(
                dX[k], np.linalg.solve(
                    _dense(rows, cols, vals[k], system.size), -res[k]),
                rtol=1e-10)

    def test_structural_change_builds_a_new_ordering(self):
        circuit = mixed_circuit("sparse")
        with telemetry.tracing("restructure") as trace:
            operating_point(circuit)
            first = circuit.compile().assembler.sparse_system()
            assert first.perm_c is not None
            circuit.add_resistor("R9", "b", "c", 2e3)
            second = circuit.compile().assembler.sparse_system()
            assert second is not first
            assert second.perm_c is None
            operating_point(circuit)
        assert second.perm_c is not None
        assert second.size == first.size
        assert second.nnz > first.nnz
        assert trace.total_counters()[
            "sparse_symbolic_factorizations"] == 2

    def test_reuse_state_with_a_permuted_handle_comes_back_empty(self):
        import os
        import pickle

        from repro.spice.strategies import LuReuseState

        system, _rows, _cols, values = _random_system()
        system.factorize(system.data(values))
        state = LuReuseState()
        state.ensure_key("k")
        state.lu = system.factorize(system.data(values))
        assert state.lu is not None
        assert type(state.lu).__name__ == "_PermutedLU"
        restored = pickle.loads(pickle.dumps(state))
        assert restored.lu is None and restored.key is None
        if hasattr(os, "fork"):
            pid = os.fork()
            if pid == 0:  # child
                os._exit(0 if state.lu is None else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        assert state.lu is not None


class TestLazyDenseBase:
    """The dense constant linear matrix is accumulated from the linear
    triplets on first dense use, never on a sparse compile."""

    def test_sparse_adder_never_builds_the_dense_base(self,
                                                      default_design):
        from repro.stscl.adder import adder_chain_circuit

        circuit, _ = adder_chain_circuit(default_design, 0.4, width=32)
        compiled = circuit.compile()
        assert compiled.solver_backend() == "sparse"
        assert operating_point(circuit).converged
        size = compiled.size
        square = [name for name, value in vars(compiled.assembler).items()
                  if isinstance(value, np.ndarray)
                  and value.shape == (size, size)]
        assert square == []

    @staticmethod
    def _ordered_sum(assembler):
        g = np.zeros((assembler.size, assembler.size))
        for r, c, v in zip(assembler._lin_rows, assembler._lin_cols,
                           assembler._lin_vals):
            g[r, c] += v
        return g

    def test_dense_base_is_the_ordered_triplet_sum(self, default_design):
        """Bitwise equal to accumulating the triplets one by one, with
        instance triplets expanded after the top-level ones."""
        from repro.stscl.adder import adder_chain_circuit

        adder, _ = adder_chain_circuit(default_design, 0.4, width=2)
        adder.matrix_backend = "dense"
        for circuit in (mixed_circuit("dense"), adder):
            assembler = circuit.compile().assembler
            assert np.array_equal(assembler._g_const,
                                  self._ordered_sum(assembler))

    def test_dense_base_is_rebuilt_after_a_value_sync(self):
        circuit = mixed_circuit("dense")
        assembler = circuit.compile().assembler
        before = assembler._g_const
        circuit.element("R1").resistance = 470.0
        assert assembler.sync()
        assert not np.array_equal(assembler._g_const, before)
        assert np.array_equal(assembler._g_const,
                              self._ordered_sum(assembler))
