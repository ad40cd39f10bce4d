"""Rewrite templates: per-cell decompositions into target-basis gates.

A :class:`MapTemplate` describes one way to implement a source cell type as
a small DAG of single-output basis gates.  Templates are *declarative*: the
same node list drives

* the equivalence self-check (:func:`verify_template` evaluates the template
  DAG against :func:`repro.netlist.cells.evaluate_cell` over every input
  combination — a template that does not compute its source cell's exact
  function can never be applied);
* cost estimation (:func:`template_area` / :func:`template_arrivals` walk
  the node list against a target library's areas and pin-to-pin arcs);
* application: :func:`compile_template` turns the node list into
  slot-indexed arc and binding tables for one library
  (:class:`CompiledTemplate`), which the covering pass scores candidates
  with and materializes the winner from, as real cells in a netlist.

Node inputs are *refs*: an input port name of the source cell (``"a"``,
``"cin"``, ...), the id of an earlier node, or a constant ``"0"`` / ``"1"``.
Several templates may target the same source cell type — the covering pass
(:mod:`repro.map.mapper`) chooses among the ones whose gates fit the target
basis, under the configured objective.

The registry is open: :func:`register_template` adds alternatives, and a
new basis only needs templates for the source types it does not contain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.errors import MappingError
from repro.netlist.cells import (
    CellType,
    cell_input_ports,
    cell_output_ports,
    evaluate_cell,
)
from repro.netlist.core import Cell, Net, Netlist
from repro.tech.library import TechLibrary


@dataclass(frozen=True)
class TemplateNode:
    """One basis gate inside a template DAG.

    ``ins`` are refs bound positionally to the gate's input ports
    (:func:`cell_input_ports` order).
    """

    node: str
    gate: CellType
    ins: Tuple[str, ...]


@dataclass(frozen=True)
class MapTemplate:
    """A named decomposition of one source cell type into basis gates.

    ``outputs`` maps every output port of the source cell to the ref that
    carries its value (almost always a node id).  Nodes must be listed in
    topological order (a node may only reference earlier nodes).
    """

    name: str
    source: CellType
    nodes: Tuple[TemplateNode, ...]
    outputs: Mapping[str, str]

    def gates(self) -> FrozenSet[CellType]:
        """The gate types the template instantiates."""
        return frozenset(node.gate for node in self.nodes)

    def num_cells(self) -> int:
        """Number of cells the template materializes."""
        return len(self.nodes)


def _check_structure(template: MapTemplate) -> None:
    """Structural sanity: ref resolution, port arity, output coverage."""
    in_ports = set(cell_input_ports(template.source))
    known = set(in_ports) | {"0", "1"}
    for node in template.nodes:
        if node.node in known or node.node in in_ports:
            raise MappingError(
                f"template {template.name!r}: duplicate node id {node.node!r}"
            )
        expected = len(cell_input_ports(node.gate))
        if len(node.ins) != expected:
            raise MappingError(
                f"template {template.name!r}: node {node.node!r} binds "
                f"{len(node.ins)} inputs, {node.gate} has {expected}"
            )
        if len(cell_output_ports(node.gate)) != 1:
            raise MappingError(
                f"template {template.name!r}: node {node.node!r} uses "
                f"multi-output gate {node.gate} (templates are single-output DAGs)"
            )
        for ref in node.ins:
            if ref not in known:
                raise MappingError(
                    f"template {template.name!r}: node {node.node!r} references "
                    f"unknown ref {ref!r} (nodes must be topologically ordered)"
                )
        known.add(node.node)
    missing = [p for p in cell_output_ports(template.source) if p not in template.outputs]
    if missing:
        raise MappingError(
            f"template {template.name!r}: no ref for output port(s) {missing}"
        )
    for port, ref in template.outputs.items():
        if ref not in known:
            raise MappingError(
                f"template {template.name!r}: output {port!r} references "
                f"unknown ref {ref!r}"
            )


def _evaluate_template(
    template: MapTemplate, assignment: Mapping[str, int]
) -> Dict[str, int]:
    """Evaluate the template DAG on one 0/1 input assignment."""
    values: Dict[str, int] = {"0": 0, "1": 1}
    values.update(assignment)
    for node in template.nodes:
        ports = cell_input_ports(node.gate)
        node_inputs = {port: values[ref] for port, ref in zip(ports, node.ins)}
        values[node.node] = evaluate_cell(node.gate, node_inputs)["y"]
    return {port: values[ref] for port, ref in template.outputs.items()}


def _memo_key(template: MapTemplate) -> Tuple:
    """Full structural identity of a template (not just its name)."""
    return (
        template.name,
        template.source,
        template.nodes,
        tuple(sorted(template.outputs.items())),
    )


#: structural keys of templates that already passed :func:`verify_template`
#: this process — keyed by content, so a same-named but different template
#: can never ride an earlier template's proof
_VERIFIED: set = set()


def verify_template(template: MapTemplate) -> None:
    """Prove the template computes its source cell's function, exhaustively.

    Source cells have at most four inputs, so the proof is a 16-row truth
    table at worst.  Raises :class:`MappingError` on any structural problem
    or functional mismatch; verified templates are remembered so the check
    runs once per process, not once per application.
    """
    if _memo_key(template) in _VERIFIED:
        return
    _check_structure(template)
    ports = cell_input_ports(template.source)
    for bits in itertools.product((0, 1), repeat=len(ports)):
        assignment = dict(zip(ports, bits))
        expected = evaluate_cell(template.source, assignment)
        produced = _evaluate_template(template, assignment)
        if produced != expected:
            raise MappingError(
                f"template {template.name!r} is not equivalent to "
                f"{template.source} on inputs {assignment}: "
                f"expected {expected}, produced {produced}"
            )
    _VERIFIED.add(_memo_key(template))


# ---------------------------------------------------------------- cost model


def template_area(template: MapTemplate, library: TechLibrary) -> float:
    """Summed cell area of the template under ``library``."""
    return sum(library.area(node.gate) for node in template.nodes)


def template_arrivals(
    template: MapTemplate,
    library: TechLibrary,
    input_arrivals: Mapping[str, float],
) -> Dict[str, float]:
    """Estimated arrival time of each source output port.

    ``input_arrivals`` maps the source cell's input port names to the
    arrival times of the nets bound to them; node arrivals follow the
    library's per-arc pin-to-pin delays.
    """
    arrivals: Dict[str, float] = {"0": 0.0, "1": 0.0}
    arrivals.update(input_arrivals)
    for node in template.nodes:
        ports = cell_input_ports(node.gate)
        arrivals[node.node] = max(
            arrivals[ref] + library.delay(node.gate, port, "y")
            for port, ref in zip(ports, node.ins)
        )
    return {port: arrivals[ref] for port, ref in template.outputs.items()}


# ---------------------------------------------------- compiled applications


@dataclass(frozen=True)
class CompiledTemplate:
    """One template priced for one target library, with its binding plan.

    Slots number the values an application handles: the source cell's input
    ports in :func:`cell_input_ports` order, then the constants ``0`` and
    ``1``, then one slot per node in node order.  :meth:`arrivals` and
    :meth:`materialize` follow the slot tables instead of resolving refs by
    name; they agree exactly with :func:`template_arrivals` and the node
    walk the tables are compiled from.
    """

    template: MapTemplate
    area: float
    #: per node: ``((input slot, arc delay), ...)`` in gate-port order
    arcs: Tuple[Tuple[Tuple[int, float], ...], ...]
    #: per node: ``(gate, ((gate port, input slot), ...))``
    plan: Tuple[Tuple[CellType, Tuple[Tuple[str, int], ...]], ...]
    #: ``(source output port, slot)`` in ``template.outputs`` order
    outputs: Tuple[Tuple[str, int], ...]

    def arrivals(self, input_arrivals: Sequence[float]) -> Dict[str, float]:
        """:func:`template_arrivals` for per-port input arrivals in port order."""
        values = list(input_arrivals)
        values += (0.0, 0.0)
        for arcs in self.arcs:
            slot, delay = arcs[0]
            best = values[slot] + delay
            for slot, delay in arcs[1:]:
                arrival = values[slot] + delay
                if arrival > best:
                    best = arrival
            values.append(best)
        return {port: values[slot] for port, slot in self.outputs}

    def materialize(self, netlist: Netlist, cell: Cell) -> Dict[str, Net]:
        """Instantiate the template next to ``cell`` and return its output nets.

        The caller retires ``cell`` afterwards (``repro.opt.base.retire_cell``),
        rerouting its readers onto the returned nets.
        """
        inputs = cell.inputs
        nets = [inputs[port] for port in cell_input_ports(self.template.source)]
        nets += (netlist.const(0), netlist.const(1))
        add_cell = netlist.add_cell
        for gate, binding in self.plan:
            bound = {port: nets[slot] for port, slot in binding}
            nets.append(add_cell(gate, bound).outputs["y"])
        return {port: nets[slot] for port, slot in self.outputs}


def compile_template(template: MapTemplate, library: TechLibrary) -> CompiledTemplate:
    """Verify ``template`` and compile its slot tables against ``library``."""
    verify_template(template)
    slots = {
        ref: slot
        for slot, ref in enumerate(
            cell_input_ports(template.source)
            + ("0", "1")
            + tuple(node.node for node in template.nodes)
        )
    }
    arcs = []
    plan = []
    for node in template.nodes:
        binding = tuple(
            (port, slots[ref])
            for port, ref in zip(cell_input_ports(node.gate), node.ins)
        )
        arcs.append(
            tuple((slot, library.delay(node.gate, port, "y")) for port, slot in binding)
        )
        plan.append((node.gate, binding))
    return CompiledTemplate(
        template=template,
        area=template_area(template, library),
        arcs=tuple(arcs),
        plan=tuple(plan),
        outputs=tuple((port, slots[ref]) for port, ref in template.outputs.items()),
    )


# -------------------------------------------------------------- the registry

TEMPLATES: Dict[CellType, List[MapTemplate]] = {}
_NAMES: Dict[str, MapTemplate] = {}


def register_template(template: MapTemplate) -> MapTemplate:
    """Add a template to the registry.

    Registration is the trust boundary: the template is structurally checked
    and exhaustively proved equivalent to its source cell *here*, and names
    must be unique — a rejected template never becomes selectable, and the
    per-template application counts in :class:`~repro.map.report.MapReport`
    stay unambiguous.
    """
    if template.name in _NAMES:
        raise MappingError(
            f"a template named {template.name!r} is already registered "
            f"(for {_NAMES[template.name].source}); template names are unique"
        )
    verify_template(template)
    _NAMES[template.name] = template
    TEMPLATES.setdefault(template.source, []).append(template)
    return template


def templates_for(source: CellType) -> Tuple[MapTemplate, ...]:
    """All registered templates for one source cell type."""
    return tuple(TEMPLATES.get(source, ()))


def _t(name: str, source: CellType, outputs: Mapping[str, str], *nodes) -> MapTemplate:
    """Compact constructor used by the built-in template definitions below."""
    return register_template(
        MapTemplate(
            name=name,
            source=source,
            nodes=tuple(TemplateNode(n, g, tuple(ins)) for n, g, ins in nodes),
            outputs=dict(outputs),
        )
    )


# --- full adder --------------------------------------------------------------

#: two complex cells: the canonical rich-basis full adder
_t(
    "fa.xor3_maj3",
    CellType.FA,
    {"s": "s", "co": "co"},
    ("s", CellType.XOR3, ("a", "b", "cin")),
    ("co", CellType.MAJ3, ("a", "b", "cin")),
)

#: the classic 9-NAND full adder (carry shares the XOR-internal nodes)
_t(
    "fa.nand9",
    CellType.FA,
    {"s": "s", "co": "co"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("a", "n1")),
    ("n3", CellType.NAND2, ("b", "n1")),
    ("x1", CellType.NAND2, ("n2", "n3")),
    ("m1", CellType.NAND2, ("x1", "cin")),
    ("m2", CellType.NAND2, ("x1", "m1")),
    ("m3", CellType.NAND2, ("cin", "m1")),
    ("s", CellType.NAND2, ("m2", "m3")),
    ("co", CellType.NAND2, ("m1", "n1")),
)

#: NAND-basis delay alternative: the carry is a parallel 2-level majority
#: instead of riding the sum's XOR chain (larger, but a shorter co path)
_t(
    "fa.nand13",
    CellType.FA,
    {"s": "s", "co": "co"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("a", "n1")),
    ("n3", CellType.NAND2, ("b", "n1")),
    ("x1", CellType.NAND2, ("n2", "n3")),
    ("m1", CellType.NAND2, ("x1", "cin")),
    ("m2", CellType.NAND2, ("x1", "m1")),
    ("m3", CellType.NAND2, ("cin", "m1")),
    ("s", CellType.NAND2, ("m2", "m3")),
    ("nac", CellType.NAND2, ("a", "cin")),
    ("nbc", CellType.NAND2, ("b", "cin")),
    ("t", CellType.NAND2, ("n1", "nac")),
    ("tn", CellType.NOT, ("t",)),
    ("co", CellType.NAND2, ("tn", "nbc")),
)

#: AND/OR/XOR basis, area-lean: the carry reuses the a^b node
_t(
    "fa.shared_xor",
    CellType.FA,
    {"s": "s", "co": "co"},
    ("x1", CellType.XOR2, ("a", "b")),
    ("s", CellType.XOR2, ("x1", "cin")),
    ("p", CellType.AND2, ("a", "b")),
    ("q", CellType.AND2, ("x1", "cin")),
    ("co", CellType.OR2, ("p", "q")),
)

#: AND/OR/XOR basis, delay-lean: the carry is the expanded 2-level majority
_t(
    "fa.parallel_maj",
    CellType.FA,
    {"s": "s", "co": "co"},
    ("x1", CellType.XOR2, ("a", "b")),
    ("s", CellType.XOR2, ("x1", "cin")),
    ("p", CellType.AND2, ("a", "b")),
    ("q", CellType.AND2, ("a", "cin")),
    ("r", CellType.AND2, ("b", "cin")),
    ("o1", CellType.OR2, ("p", "q")),
    ("co", CellType.OR2, ("o1", "r")),
)

#: rich basis alternative: carry through one AOI22 complex cell
_t(
    "fa.aoi_shared",
    CellType.FA,
    {"s": "s", "co": "co"},
    ("x1", CellType.XOR2, ("a", "b")),
    ("s", CellType.XOR2, ("x1", "cin")),
    ("ao", CellType.AOI22, ("a", "b", "x1", "cin")),
    ("co", CellType.NOT, ("ao",)),
)

# --- half adder --------------------------------------------------------------

_t(
    "ha.xor_and",
    CellType.HA,
    {"s": "s", "co": "co"},
    ("s", CellType.XOR2, ("a", "b")),
    ("co", CellType.AND2, ("a", "b")),
)

_t(
    "ha.xor_nand",
    CellType.HA,
    {"s": "s", "co": "co"},
    ("s", CellType.XOR2, ("a", "b")),
    ("n1", CellType.NAND2, ("a", "b")),
    ("co", CellType.NOT, ("n1",)),
)

_t(
    "ha.nand5",
    CellType.HA,
    {"s": "s", "co": "co"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("a", "n1")),
    ("n3", CellType.NAND2, ("b", "n1")),
    ("s", CellType.NAND2, ("n2", "n3")),
    ("co", CellType.NOT, ("n1",)),
)

# --- simple gates ------------------------------------------------------------

_t(
    "and2.nand_not",
    CellType.AND2,
    {"y": "y"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("y", CellType.NOT, ("n1",)),
)

_t(
    "or2.nand_inv",
    CellType.OR2,
    {"y": "y"},
    ("na", CellType.NOT, ("a",)),
    ("nb", CellType.NOT, ("b",)),
    ("y", CellType.NAND2, ("na", "nb")),
)

_t(
    "or2.nor_not",
    CellType.OR2,
    {"y": "y"},
    ("n1", CellType.NOR2, ("a", "b")),
    ("y", CellType.NOT, ("n1",)),
)

_t(
    "nor2.nand_inv",
    CellType.NOR2,
    {"y": "y"},
    ("na", CellType.NOT, ("a",)),
    ("nb", CellType.NOT, ("b",)),
    ("t", CellType.NAND2, ("na", "nb")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "nor2.or_not",
    CellType.NOR2,
    {"y": "y"},
    ("t", CellType.OR2, ("a", "b")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "nand2.and_not",
    CellType.NAND2,
    {"y": "y"},
    ("t", CellType.AND2, ("a", "b")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "xor2.nand4",
    CellType.XOR2,
    {"y": "y"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("a", "n1")),
    ("n3", CellType.NAND2, ("b", "n1")),
    ("y", CellType.NAND2, ("n2", "n3")),
)

_t(
    "xnor2.not_xor",
    CellType.XNOR2,
    {"y": "y"},
    ("t", CellType.XOR2, ("a", "b")),
    ("y", CellType.NOT, ("t",)),
)

#: flat NAND XNOR: nand(a|b, ~(a&b)) inverts the xor in one extra level
_t(
    "xnor2.nand_flat",
    CellType.XNOR2,
    {"y": "y"},
    ("na", CellType.NOT, ("a",)),
    ("nb", CellType.NOT, ("b",)),
    ("p", CellType.NAND2, ("na", "nb")),
    ("q", CellType.NAND2, ("a", "b")),
    ("y", CellType.NAND2, ("p", "q")),
)

#: deep NAND XNOR: invert the 4-NAND XOR (one more level, one fewer NAND)
_t(
    "xnor2.nand_deep",
    CellType.XNOR2,
    {"y": "y"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("a", "n1")),
    ("n3", CellType.NAND2, ("b", "n1")),
    ("x1", CellType.NAND2, ("n2", "n3")),
    ("y", CellType.NOT, ("x1",)),
)

# --- mux and complex cells ---------------------------------------------------

_t(
    "mux2.nand4",
    CellType.MUX2,
    {"y": "y"},
    ("ns", CellType.NOT, ("sel",)),
    ("t1", CellType.NAND2, ("a", "ns")),
    ("t2", CellType.NAND2, ("b", "sel")),
    ("y", CellType.NAND2, ("t1", "t2")),
)

_t(
    "mux2.aoi",
    CellType.MUX2,
    {"y": "y"},
    ("ns", CellType.NOT, ("sel",)),
    ("ao", CellType.AOI22, ("a", "ns", "b", "sel")),
    ("y", CellType.NOT, ("ao",)),
)

_t(
    "mux2.and_or",
    CellType.MUX2,
    {"y": "y"},
    ("ns", CellType.NOT, ("sel",)),
    ("p", CellType.AND2, ("a", "ns")),
    ("q", CellType.AND2, ("b", "sel")),
    ("y", CellType.OR2, ("p", "q")),
)

_t(
    "aoi21.nand",
    CellType.AOI21,
    {"y": "y"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("nc", CellType.NOT, ("c",)),
    ("t", CellType.NAND2, ("n1", "nc")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "aoi21.and_or",
    CellType.AOI21,
    {"y": "y"},
    ("p", CellType.AND2, ("a", "b")),
    ("t", CellType.OR2, ("p", "c")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "oai21.nand",
    CellType.OAI21,
    {"y": "y"},
    ("na", CellType.NOT, ("a",)),
    ("nb", CellType.NOT, ("b",)),
    ("o", CellType.NAND2, ("na", "nb")),
    ("y", CellType.NAND2, ("o", "c")),
)

_t(
    "oai21.or_and",
    CellType.OAI21,
    {"y": "y"},
    ("o", CellType.OR2, ("a", "b")),
    ("t", CellType.AND2, ("o", "c")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "aoi22.nand",
    CellType.AOI22,
    {"y": "y"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("c", "d")),
    ("t", CellType.NAND2, ("n1", "n2")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "aoi22.and_or",
    CellType.AOI22,
    {"y": "y"},
    ("p", CellType.AND2, ("a", "b")),
    ("q", CellType.AND2, ("c", "d")),
    ("t", CellType.OR2, ("p", "q")),
    ("y", CellType.NOT, ("t",)),
)

_t(
    "xor3.xor2",
    CellType.XOR3,
    {"y": "y"},
    ("t", CellType.XOR2, ("a", "b")),
    ("y", CellType.XOR2, ("t", "c")),
)

_t(
    "xor3.nand8",
    CellType.XOR3,
    {"y": "y"},
    ("n1", CellType.NAND2, ("a", "b")),
    ("n2", CellType.NAND2, ("a", "n1")),
    ("n3", CellType.NAND2, ("b", "n1")),
    ("x1", CellType.NAND2, ("n2", "n3")),
    ("m1", CellType.NAND2, ("x1", "c")),
    ("m2", CellType.NAND2, ("x1", "m1")),
    ("m3", CellType.NAND2, ("c", "m1")),
    ("y", CellType.NAND2, ("m2", "m3")),
)

_t(
    "maj3.nand",
    CellType.MAJ3,
    {"y": "y"},
    ("nab", CellType.NAND2, ("a", "b")),
    ("nac", CellType.NAND2, ("a", "c")),
    ("nbc", CellType.NAND2, ("b", "c")),
    ("t", CellType.NAND2, ("nab", "nac")),
    ("tn", CellType.NOT, ("t",)),
    ("y", CellType.NAND2, ("tn", "nbc")),
)

_t(
    "maj3.and_or",
    CellType.MAJ3,
    {"y": "y"},
    ("x", CellType.XOR2, ("a", "b")),
    ("p", CellType.AND2, ("a", "b")),
    ("q", CellType.AND2, ("c", "x")),
    ("y", CellType.OR2, ("p", "q")),
)
