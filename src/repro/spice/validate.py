"""Pre-solve structural netlist validation.

A malformed netlist -- a net nothing can drive, an island with no path
to the rails -- produces a structurally singular MNA system.  Left
unchecked, that surfaces mid-Newton as a bare LAPACK
``LinAlgError: Singular matrix`` (or, worse, as a gmin-regularised
garbage solution).  This module diagnoses the structure *before* the
first factorization and raises :class:`~repro.errors.NetlistError`
naming the offending nets, so a fuzz case, an imported deck or a
hand-built circuit fails with an actionable message instead of a
linear-algebra traceback.

Three structural defects are detected (in order of specificity):

* **floating net** -- a net no element touches at all (typically a
  ``nodeset`` on a net that was never wired);
* **sense-only net** -- a net touched exclusively by terminals that
  read a voltage but cannot source or sink DC current (MOS gate/bulk,
  VCVS/VCCS control pins, capacitor plates).  Its MNA row is all-zero
  in DC: structurally singular;
* **rail-disconnected subgraph** -- a group of nets whose *conductive*
  elements (resistors, voltage sources, VCVS outputs, diodes, MOS
  drain-source channels) never reach the ground reference, leaving the
  island's absolute potential undetermined.  Nets held only by a
  current source or a VCCS output fall in this class too: current
  injection without conductance contributes nothing to the Jacobian.

The classification of each element type mirrors what it stamps (see
:mod:`repro.spice.elements`): an edge counts as conductive exactly when
the element couples its terminals in the DC Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix as _coo_matrix
from scipy.sparse.csgraph import connected_components as _connected_components

from ..errors import NetlistError
from .elements import (Capacitor, CurrentSource, DiodeElement, Element,
                       MosElement, Resistor, Vccs, Vcvs, VoltageSource)

#: Issue kinds reported by :func:`structural_report`.
FLOATING_NET = "floating-net"
SENSE_ONLY_NET = "sense-only-net"
RAIL_DISCONNECTED = "rail-disconnected"


@dataclass(frozen=True)
class StructuralIssue:
    """One structural defect of a netlist.

    Attributes:
        kind: One of :data:`FLOATING_NET`, :data:`SENSE_ONLY_NET`,
            :data:`RAIL_DISCONNECTED`.
        nets: The offending net names (sorted).
        detail: Human-readable explanation, naming the touching
            elements where it helps.
    """

    kind: str
    nets: tuple[str, ...]
    detail: str


def _conductive_pairs(element: Element) -> list[tuple[str, str]]:
    """Node pairs ``element`` couples in the DC Jacobian.

    A voltage source (and a VCVS output) pins its two terminals
    together through the auxiliary branch row; R / diode / MOS channel
    contribute a conductance between their current-carrying terminals.
    Capacitors are DC-open; current sources and VCCS outputs inject
    current without any conductance.
    """
    if isinstance(element, (Resistor, VoltageSource, DiodeElement)):
        return [(element.nodes[0], element.nodes[1])]
    if isinstance(element, Vcvs):
        return [(element.nodes[0], element.nodes[1])]
    if isinstance(element, Vccs):
        # A VCCS output row couples to its *control* columns; an
        # output net with no other conductance is gmin-anchored at DC
        # -- the conventional ideal gm-C integrator idiom -- so the
        # output pair counts as coupled to the controls (and to each
        # other) rather than as a floating island.
        p, n, cp, cn = element.nodes
        return [(p, n), (p, cp), (n, cn)]
    if isinstance(element, MosElement):
        drain, _gate, source, _bulk = element.nodes
        return [(drain, source)]
    if isinstance(element, (Capacitor, CurrentSource)):
        # Explicitly DC-decoupled: a capacitor is open at DC and a
        # current source injects without conductance, so neither
        # couples its terminals in the DC Jacobian.  (Listed instead of
        # falling through so the conservative unknown-element branch
        # below cannot silently absorb them.)
        return []
    # Unknown element subclass: assume it couples all its terminals.
    # Mirrors the `_current_terminals` policy -- a foreign element with
    # an imperative stamp must never be false-flagged as leaving its
    # nets rail-disconnected.
    nodes = element.nodes
    return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]


def _current_terminals(element: Element) -> list[str]:
    """Nets into which ``element`` can source or sink DC current.

    These terminals produce a nonzero MNA *row* contribution; a net
    touched by none of them has an all-zero row and is structurally
    singular (the sense-only defect).
    """
    if isinstance(element, (Resistor, VoltageSource, CurrentSource,
                            DiodeElement)):
        return list(element.nodes[:2])
    if isinstance(element, (Vcvs, Vccs)):
        return list(element.nodes[:2])  # outputs; controls only sense
    if isinstance(element, MosElement):
        drain, _gate, source, _bulk = element.nodes
        return [drain, source]
    if isinstance(element, Capacitor):
        return []  # DC-open
    # Unknown element subclass: assume every terminal carries current
    # (never produce a false alarm for a foreign element type).
    return list(element.nodes)


class CellStructure:
    """Structural summary of one subcircuit template, computed once.

    Template-local net ids follow :attr:`Instance.nodes
    <repro.spice.subckt.Instance>` order -- ports, then internal nets --
    with ground as the last id, so an instance maps the whole summary
    onto parent nets with one index array.
    """

    def __init__(self, plan) -> None:
        from .netlist import is_ground
        subcircuit = plan.subcircuit
        local = {net: i for i, net in enumerate(
            (*subcircuit.ports, *plan.internal_nodes))}
        self.ground = len(local)

        def lid(net: str) -> int:
            return self.ground if is_ground(net) else local[net]

        self.elements = list(subcircuit.template.elements)
        #: Local ids of every element's terminals, per element.
        self.element_nets = [[lid(n) for n in e.nodes]
                             for e in self.elements]
        touched = sorted({i for nets in self.element_nets for i in nets})
        current = sorted({lid(n) for e in self.elements
                          for n in _current_terminals(e)})
        edges = [(lid(a), lid(b)) for e in self.elements
                 for a, b in _conductive_pairs(e)]
        self.touched = np.array(touched, dtype=np.intp)
        self.current = np.array(current, dtype=np.intp)
        self.edges = np.array(edges, dtype=np.intp).reshape(-1, 2)


def structural_report(circuit) -> list[StructuralIssue]:
    """All structural defects of ``circuit``, without raising.

    The empty list means the netlist passes every check.  ``circuit``
    is a :class:`~repro.spice.netlist.Circuit` (typed loosely to avoid
    an import cycle).

    Nets are integer ids (0 is ground).  Top-level elements contribute
    one by one; hierarchy is validated flat, but each instance maps its
    template's :class:`CellStructure` through its port/internal net ids
    in one step, so a defect inside a cell (or a port left to dangle in
    the parent) is reported against the parent's net names.
    """
    from .netlist import is_ground
    from .subckt import Instance

    names = ["0", *circuit.node_names]
    index = {net: i for i, net in enumerate(names)}

    def gid(net: str) -> int:
        if is_ground(net):
            return 0
        if net not in index:
            index[net] = len(names)
            names.append(net)
        return index[net]

    # Top-level elements one by one; each instance as three index
    # arrays mapped through its parent net ids (ground last).
    touched: list = [[]]
    current: list = [[]]
    edges: list = [[]]
    instances: list[tuple[Instance, np.ndarray]] = []
    for element in circuit.elements:
        if isinstance(element, Instance):
            cell = element.subcircuit.plan().structure
            nets = np.array([*map(gid, element.nodes), 0], dtype=np.intp)
            instances.append((element, nets))
            touched.append(nets[cell.touched])
            current.append(nets[cell.current])
            edges.append(nets[cell.edges])
        else:
            touched[0].extend(map(gid, element.nodes))
            current[0].extend(map(gid, _current_terminals(element)))
            edges[0].extend((gid(a), gid(b))
                            for a, b in _conductive_pairs(element))
    edges[0] = np.array(edges[0], dtype=np.intp).reshape(-1, 2)

    n = len(names)
    is_touched = _mark(n, touched)
    has_current = _mark(n, current)
    is_touched[0] = has_current[0] = False

    issues: list[StructuralIssue] = []

    floating = sorted(names[i] for i in np.flatnonzero(~is_touched[1:]) + 1)
    if floating:
        issues.append(StructuralIssue(
            kind=FLOATING_NET, nets=tuple(floating),
            detail=f"net(s) {', '.join(map(repr, floating))} are not "
                   f"connected to any element (a nodeset on an unwired "
                   f"net?)"))

    sense_mask = is_touched & ~has_current
    sense_only = sorted(names[i] for i in np.flatnonzero(sense_mask))
    if sense_only:
        by_net = []
        for net in sense_only:
            names_on = _touching(circuit, instances, index[net], gid)
            by_net.append(f"{net!r} (touched by "
                          f"{', '.join(names_on[:4])})")
        issues.append(StructuralIssue(
            kind=SENSE_ONLY_NET, nets=tuple(sense_only),
            detail=f"net(s) {'; '.join(by_net)} are only sensed -- MOS "
                   f"gates/bulks, control pins and capacitors read a "
                   f"voltage but cannot source or sink DC current, so "
                   f"the MNA row is structurally singular"))

    pairs = np.concatenate(edges)
    graph = _coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                        shape=(n, n))
    _, labels = _connected_components(graph, directed=False)
    disconnected = sorted(
        names[i] for i in np.flatnonzero(
            is_touched & ~sense_mask & (labels != labels[0])))
    if disconnected:
        issues.append(StructuralIssue(
            kind=RAIL_DISCONNECTED, nets=tuple(disconnected),
            detail=f"net(s) {', '.join(map(repr, disconnected))} have "
                   f"no conductive path (R, V-source, diode, MOS "
                   f"channel) to the ground reference; the island's "
                   f"absolute potential is undetermined"))
    return issues


def _mark(n: int, parts: list) -> np.ndarray:
    """Boolean mask over ``n`` net ids set at every id in ``parts``."""
    mask = np.zeros(n, dtype=bool)
    for ids in parts:
        mask[np.asarray(ids, dtype=np.intp)] = True
    return mask


def _touching(circuit, instances, net: int, gid) -> list[str]:
    """Sorted names of the elements with a terminal on net id ``net``
    (instance elements as ``"<instance>.<element>"``) -- the failure
    path's diagnostic walk."""
    from .subckt import Instance
    found = {e.name for e in circuit.elements
             if not isinstance(e, Instance)
             and any(gid(n) == net for n in e.nodes)}
    for instance, nets in instances:
        cell = instance.subcircuit.plan().structure
        local = set(np.flatnonzero(nets == net).tolist())
        if local:
            found.update(f"{instance.name}.{e.name}"
                         for e, ids in zip(cell.elements, cell.element_nets)
                         if local.intersection(ids))
    return sorted(found)


def validate_structure(circuit) -> None:
    """Raise :class:`~repro.errors.NetlistError` naming the offending
    nets when ``circuit`` is structurally singular; no-op otherwise."""
    issues = structural_report(circuit)
    if not issues:
        return
    summary = "; ".join(issue.detail for issue in issues)
    error = NetlistError(
        f"circuit {circuit.name!r} is structurally singular: {summary}")
    error.issues = issues  # forensic payload for programmatic callers
    raise error
