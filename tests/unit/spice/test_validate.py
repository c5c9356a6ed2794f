"""Pre-solve structural validation: broken netlists fail with named
nets at compile time, never as a bare LAPACK singular-matrix error."""

import pytest

from repro.devices.mosfet import Mosfet
from repro.devices.parameters import nmos_180
from repro.errors import NetlistError
from repro.spice.dc import operating_point
from repro.spice.netlist import Circuit
from repro.spice.subckt import Instance, Subcircuit
from repro.spice.validate import (FLOATING_NET, RAIL_DISCONNECTED,
                                  SENSE_ONLY_NET, StructuralIssue,
                                  _conductive_pairs, _current_terminals,
                                  structural_report, validate_structure)


def _nmos() -> Mosfet:
    return Mosfet(nmos_180(), w=1e-6, l=0.18e-6)


def _divider() -> Circuit:
    ckt = Circuit("divider")
    ckt.add_vsource("V1", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "mid", 10e3)
    ckt.add_resistor("R2", "mid", "0", 10e3)
    return ckt


class TestCleanCircuits:
    def test_divider_passes(self):
        assert structural_report(_divider()) == []

    def test_mos_circuit_passes(self):
        ckt = Circuit("mos")
        ckt.add_vsource("vdd", "vdd", "0", 1.0)
        ckt.add_vsource("vg", "g", "0", 0.5)
        ckt.add_resistor("rl", "vdd", "d", 100e3)
        ckt.add_mosfet("m1", "d", "g", "0", "0", _nmos())
        assert structural_report(ckt) == []
        operating_point(ckt)  # and it actually solves

    def test_vccs_integrator_idiom_passes(self):
        # Ideal gm-C integrator: VCCS output into a capacitor node is
        # gmin-anchored at DC -- conventional, must not be flagged.
        ckt = Circuit("gmc")
        ckt.add_vsource("vin", "in", "0", 0.1)
        ckt.add_vccs("gm1", "out", "0", "in", "0", 1e-6)
        ckt.add_capacitor("c1", "out", "0", 1e-12)
        assert structural_report(ckt) == []


class TestDefects:
    def test_floating_net_from_nodeset(self):
        ckt = _divider()
        ckt.nodeset("phantom", 0.5)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [FLOATING_NET]
        assert issues[0].nets == ("phantom",)

    def test_gate_only_net(self):
        ckt = Circuit("gate_only")
        ckt.add_vsource("vdd", "vdd", "0", 1.0)
        ckt.add_resistor("rl", "vdd", "d", 100e3)
        # Gate net 'g' is driven by nothing: MOS gates only sense.
        ckt.add_mosfet("m1", "d", "g", "0", "0", _nmos(),
                       with_caps=False)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [SENSE_ONLY_NET]
        assert issues[0].nets == ("g",)
        assert "m1" in issues[0].detail

    def test_capacitor_only_net_is_sense_only(self):
        ckt = _divider()
        ckt.add_capacitor("c1", "mid", "dangling", 1e-12)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [SENSE_ONLY_NET]
        assert issues[0].nets == ("dangling",)

    def test_rail_disconnected_island(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)  # floating R island
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [RAIL_DISCONNECTED]
        assert issues[0].nets == ("a", "b")

    def test_current_source_only_net(self):
        ckt = _divider()
        ckt.add_isource("ibad", "lonely", "0", 1e-9)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [RAIL_DISCONNECTED]
        assert issues[0].nets == ("lonely",)

    def test_multiple_defects_all_reported(self):
        ckt = _divider()
        ckt.nodeset("phantom", 0.1)
        ckt.add_capacitor("c1", "mid", "dangling", 1e-12)
        ckt.add_resistor("ri", "a", "b", 1e3)
        kinds = {i.kind for i in structural_report(ckt)}
        assert kinds == {FLOATING_NET, SENSE_ONLY_NET, RAIL_DISCONNECTED}


class TestCompileHook:
    def test_compile_raises_netlist_error_with_net_names(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        with pytest.raises(NetlistError, match=r"'a', 'b'"):
            ckt.compile()

    def test_error_carries_issue_payload(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        with pytest.raises(NetlistError) as excinfo:
            validate_structure(ckt)
        assert excinfo.value.issues[0].kind == RAIL_DISCONNECTED

    def test_opt_out_restores_old_behaviour(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        compiled = ckt.compile(validate=False)
        assert compiled.size >= 4

    def test_per_circuit_opt_out(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        ckt.validate_on_compile = False
        ckt.compile()

    def test_cached_compile_skips_revalidation(self):
        ckt = _divider()
        first = ckt.compile()
        assert ckt.compile() is first

    def test_operating_point_diagnoses_before_solving(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        with pytest.raises(NetlistError, match="structurally singular"):
            operating_point(ckt)


# -- oracle: the name-level walk the per-cell validator replaced ---------


def _oracle_report(circuit) -> list[StructuralIssue]:
    """Reference ``structural_report``: every element -- every template
    element of every instance included -- walked one at a time at the
    net-*name* level, with a union-find over names for rail
    connectivity.  Kept as the oracle the vectorized per-cell validator
    must reproduce issue for issue, detail text included."""
    from repro.spice.netlist import is_ground

    touches: dict[str, list[str]] = {n: [] for n in circuit.node_names}
    current: dict[str, set[str]] = {n: set() for n in circuit.node_names}
    parent: dict[str, str] = {}

    def find(key: str) -> str:
        root = key
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    ground = "0"
    find(ground)

    def canon(node: str) -> str:
        return ground if is_ground(node) else node

    def visit(element, name: str, mapped) -> None:
        for node in map(mapped, element.nodes):
            node = canon(node)
            if node != ground:
                touches.setdefault(node, []).append(name)
        for node in map(mapped, _current_terminals(element)):
            node = canon(node)
            if node != ground:
                current.setdefault(node, set()).add(name)
        for a, b in _conductive_pairs(element):
            union(canon(mapped(a)), canon(mapped(b)))

    for element in circuit.elements:
        if isinstance(element, Instance):
            for t_elem in element.subcircuit.template.elements:
                visit(t_elem, f"{element.name}.{t_elem.name}",
                      element.map_net)
        else:
            visit(element, element.name, lambda node: node)

    issues: list[StructuralIssue] = []
    floating = sorted(n for n, t in touches.items() if not t)
    if floating:
        issues.append(StructuralIssue(
            kind=FLOATING_NET, nets=tuple(floating),
            detail=f"net(s) {', '.join(map(repr, floating))} are not "
                   f"connected to any element (a nodeset on an unwired "
                   f"net?)"))
    sense_only = sorted(n for n, t in touches.items()
                        if t and not current.get(n))
    if sense_only:
        by_net = [f"{net!r} (touched by "
                  f"{', '.join(sorted(set(touches[net]))[:4])})"
                  for net in sense_only]
        issues.append(StructuralIssue(
            kind=SENSE_ONLY_NET, nets=tuple(sense_only),
            detail=f"net(s) {'; '.join(by_net)} are only sensed -- MOS "
                   f"gates/bulks, control pins and capacitors read a "
                   f"voltage but cannot source or sink DC current, so "
                   f"the MNA row is structurally singular"))
    flagged = set(floating) | set(sense_only)
    ground_root = find(ground)
    disconnected = sorted(
        n for n, t in touches.items()
        if t and n not in flagged and find(n) != ground_root)
    if disconnected:
        issues.append(StructuralIssue(
            kind=RAIL_DISCONNECTED, nets=tuple(disconnected),
            detail=f"net(s) {', '.join(map(repr, disconnected))} have "
                   f"no conductive path (R, V-source, diode, MOS "
                   f"channel) to the ground reference; the island's "
                   f"absolute potential is undetermined"))
    return issues


def _assert_matches_oracle(circuit) -> list[StructuralIssue]:
    issues = structural_report(circuit)
    assert issues == _oracle_report(circuit)
    return issues


def _inject_defects(circuit) -> None:
    """One defect of every kind, on fresh nets."""
    circuit.nodeset("zz_phantom", 0.1)
    circuit.add_capacitor("zz_cap", "vdd", "zz_plate", 1e-15)
    circuit.add_resistor("zz_island", "zz_a", "zz_b", 1e3)


class TestOracleEquivalence:
    """The per-cell validator reports exactly what the name-level walk
    did: same kinds, same net order, same detail text."""

    def test_fuzz_generator_seeds(self, monkeypatch):
        """200 mixed-mode seeds (even: free random, odd: STSCL
        mutants).  Every report the generator's repair loop asks for --
        the defective pre-repair netlists included -- is checked, then
        the final netlist with one injected defect of each kind."""
        import repro.fuzz.generator as generator

        seen = []

        def checked(circuit):
            seen.append(circuit.name)
            return _assert_matches_oracle(circuit)

        monkeypatch.setattr(generator, "structural_report", checked)
        kinds = set()
        for seed in range(200):
            circuit = generator.generate(seed, "mixed")
            _inject_defects(circuit)
            kinds.update(i.kind for i in _assert_matches_oracle(circuit))
        assert len(seen) >= 200
        assert kinds == {FLOATING_NET, SENSE_ONLY_NET, RAIL_DISCONNECTED}

    def test_corpus_decks(self):
        from pathlib import Path

        from repro.fuzz.corpus import load_corpus
        from repro.spice.io import read_netlist

        corpus = Path(__file__).resolve().parents[2] / "corpus"
        entries = load_corpus(corpus)
        assert entries
        for _path, entry in entries:
            _assert_matches_oracle(read_netlist(entry.deck))

    def test_adder_32(self, default_design):
        from repro.stscl.adder import adder_chain_circuit

        circuit, _ = adder_chain_circuit(default_design, 0.4, width=32,
                                         a=0x1234_5678, b=0x9ABC_DEF0)
        assert _assert_matches_oracle(circuit) == []
        _inject_defects(circuit)
        assert len(_assert_matches_oracle(circuit)) == 3

    def _cell(self) -> Subcircuit:
        """A cell whose port ``g`` only reaches MOS gates and whose
        internal net ``mid`` is held only by capacitor plates."""
        template = Circuit("leaky")
        template.add_resistor("rl", "vdd", "d", 100e3)
        template.add_mosfet("m1", "d", "g", "0", "0", _nmos(),
                            with_caps=False)
        template.add_mosfet("m2", "d", "g", "0", "0", _nmos(),
                            with_caps=False)
        template.add_capacitor("c1", "d", "mid", 1e-12)
        template.add_capacitor("c2", "mid", "0", 1e-12)
        return Subcircuit("leaky", template, ("vdd", "g", "d"))

    def test_hierarchical_defects(self):
        cell = self._cell()
        circuit = Circuit("hier")
        circuit.add_vsource("vdd", "vdd", "0", 1.0)
        circuit.add_vsource("vg", "bias", "0", 0.5)
        # u1's gate port is driven; u2's dangles (only gates touch it);
        # u3 ties its output to u2's and its supply port to ground.
        circuit.add_instance("u1", cell, {"vdd": "vdd", "g": "bias",
                                          "d": "o1"})
        circuit.add_instance("u2", cell, {"vdd": "vdd", "g": "dangle",
                                          "d": "o2"})
        circuit.add_instance("u3", cell, {"vdd": "gnd", "g": "o1",
                                          "d": "o2"})
        circuit.add_resistor("rx", "isl_a", "isl_b", 1e3)
        issues = _assert_matches_oracle(circuit)
        assert [i.kind for i in issues] == [SENSE_ONLY_NET,
                                            RAIL_DISCONNECTED]
        assert issues[0].nets == ("dangle", "u1.mid", "u2.mid", "u3.mid")
        assert "u2.m1, u2.m2" in issues[0].detail
        assert issues[1].nets == ("isl_a", "isl_b")
        with pytest.raises(NetlistError) as excinfo:
            circuit.compile()
        assert excinfo.value.issues == issues

    def test_floating_net_inside_a_cell(self):
        """A template net no template element touches surfaces as a
        floating namespaced net in the parent."""
        template = Circuit("unwired")
        template.add_resistor("r1", "a", "0", 1e3)
        template.nodeset("spare", 0.2)
        cell = Subcircuit("unwired", template, ("a",))
        circuit = Circuit("hier_floating")
        circuit.add_vsource("V1", "in", "0", 1.0)
        circuit.add_instance("u1", cell, {"a": "in"})
        circuit.add_instance("u2", cell, {"a": "0"})
        issues = _assert_matches_oracle(circuit)
        assert [(i.kind, i.nets) for i in issues] == [
            (FLOATING_NET, ("u1.spare", "u2.spare"))]
