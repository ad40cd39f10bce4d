"""Structural Verilog emission.

The paper's flow emits the allocated FA-tree as a Verilog netlist which is
then fed to a commercial logic synthesizer.  This module reproduces that
interface: it turns a :class:`~repro.netlist.core.Netlist` into a
self-contained structural Verilog file.  Single-gate cell types are emitted
as Verilog primitives (``and``, ``nor``, ...); the others as ``REPRO_<type>``
instances whose module bodies, rendered from the cells' expression trees,
are appended so the file elaborates without an external library.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.netlist.cells import (
    CELL_DEFS,
    CellDef,
    CellType,
    Expr,
    Function,
    cell_input_ports,
    cell_output_ports,
)
from repro.netlist.core import Net, Netlist

#: Verilog operator template of each node kind
_VERILOG_RULES = {
    "AND": "{0} & {1}",
    "OR": "{0} | {1}",
    "XOR": "{0} ^ {1}",
    "NOT": "~{0}",
    "MUX": "{0} ? {2} : {1}",
    "MAJ": "({0} & {1}) | ({0} & {2}) | ({1} & {2})",
}


def _expression(expr: Function, parent: Optional[str] = None) -> str:
    """Verilog text of ``expr``, parenthesized unless it chains its parent's operator."""
    if isinstance(expr, str):
        return expr
    text = _VERILOG_RULES[expr.kind].format(
        *(_expression(arg, expr.kind) for arg in expr.args)
    )
    chained = parent == expr.kind and expr.kind in ("AND", "OR", "XOR")
    return text if parent is None or chained else f"({text})"


#: Verilog gate primitives over input ports: node kind -> (plain, negated);
#: a bare port is a buffer
_GATE_PRIMITIVES = {"AND": ("and", "nand"), "OR": ("or", "nor"), "XOR": ("xor", "xnor")}


def _primitive(definition: CellDef) -> Optional[str]:
    """The gate primitive computing a cell whose function is one node, if any."""
    if len(definition.functions) != 1:
        return None
    function, negated = definition.functions[0], False
    if isinstance(function, Expr) and function.kind == "NOT":
        function, negated = function.args[0], True
    if isinstance(function, str):
        return ("buf", "not")[negated]
    if function.kind in _GATE_PRIMITIVES and all(isinstance(a, str) for a in function.args):
        return _GATE_PRIMITIVES[function.kind][negated]
    return None


def _module_text(cell_type: CellType, definition: CellDef) -> str:
    """Gate-level definition of the helper module implementing ``cell_type``."""
    ports = [f"input {p}" for p in definition.inputs]
    ports += [f"output {p}" for p in definition.outputs]
    width = max(map(len, definition.outputs))
    lines = [f"module REPRO_{cell_type.value}({', '.join(ports)});"]
    for port, function in zip(definition.outputs, definition.functions):
        lines.append(f"  assign {port.ljust(width)} = {_expression(function)};")
    lines.append("endmodule")
    return "\n".join(lines)


#: cell types emitted as Verilog gate primitives: type -> primitive name
_PRIMITIVE_OF: Dict[CellType, str] = {
    t: _primitive(d) for t, d in CELL_DEFS.items() if _primitive(d)  # type: ignore[misc]
}

#: the other cell types, emitted as ``REPRO_<type>`` instances: type ->
#: helper-module text, in emission order
_HELPER_MODULES: Dict[CellType, str] = {
    t: _module_text(t, d) for t, d in CELL_DEFS.items() if t not in _PRIMITIVE_OF
}

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _escape(name: str) -> str:
    """Return a legal Verilog identifier for ``name`` (escaped if needed)."""
    if _IDENTIFIER_RE.match(name):
        return name
    return f"\\{name} "


def _net_ref(net: Net) -> str:
    """Verilog expression referring to ``net`` (constants become literals)."""
    if net.is_constant:
        return "1'b1" if net.const_value else "1'b0"
    return _escape(net.name)


def to_verilog(netlist: Netlist, module_name: str = None) -> str:
    """Render ``netlist`` as a structural Verilog description.

    The top module exposes every primary input and output as a scalar port
    (bit ``name[i]`` becomes port ``name_i``); the helper module of each
    non-primitive cell type used is appended after the top module.
    """
    module_name = module_name or netlist.name or "top"
    port_names: Dict[str, str] = {}

    def port_name(net: Net) -> str:
        if net.name not in port_names:
            sanitized = re.sub(r"[^A-Za-z0-9_]", "_", net.name)
            if not _IDENTIFIER_RE.match(sanitized):
                sanitized = f"p_{sanitized}"
            base = sanitized
            suffix = 1
            while sanitized in port_names.values():
                suffix += 1
                sanitized = f"{base}_{suffix}"
            port_names[net.name] = sanitized
        return port_names[net.name]

    inputs = netlist.primary_inputs
    outputs = netlist.primary_outputs
    ports = [port_name(n) for n in inputs] + [port_name(n) for n in outputs]

    lines: List[str] = []
    lines.append(f"// Generated by repro {module_name}: structural netlist")
    lines.append(f"module {module_name}({', '.join(ports)});")
    for net in inputs:
        lines.append(f"  input {port_name(net)};")
    for net in outputs:
        lines.append(f"  output {port_name(net)};")

    # Internal wire declarations (everything that is not a port or constant).
    port_net_names = {n.name for n in inputs} | {n.name for n in outputs}
    for net in netlist.nets.values():
        if net.name in port_net_names or net.is_constant:
            continue
        lines.append(f"  wire {_escape(net.name)};")

    # Tie port names to internal net names where they differ.
    for net in inputs:
        if port_name(net) != net.name:
            lines.append(f"  wire {_escape(net.name)};")
            lines.append(f"  assign {_escape(net.name)} = {port_name(net)};")
    for net in outputs:
        if port_name(net) != net.name:
            if not net.is_constant:
                lines.append(f"  wire {_escape(net.name)};")
            lines.append(f"  assign {port_name(net)} = {_net_ref(net)};")

    used_modules = set()
    for cell in netlist.topological_cells():
        ctype = cell.cell_type
        instance = _escape(cell.name)
        if ctype in _PRIMITIVE_OF:
            primitive = _PRIMITIVE_OF[ctype]
            out_net = cell.outputs[cell_output_ports(ctype)[0]]
            in_refs = ", ".join(_net_ref(cell.inputs[p]) for p in cell_input_ports(ctype))
            lines.append(f"  {primitive} {instance}({_net_ref(out_net)}, {in_refs});")
        else:
            used_modules.add(ctype)
            bindings = []
            for port in cell_input_ports(ctype):
                bindings.append(f".{port}({_net_ref(cell.inputs[port])})")
            for port in cell_output_ports(ctype):
                bindings.append(f".{port}({_net_ref(cell.outputs[port])})")
            lines.append(f"  REPRO_{ctype.value} {instance}({', '.join(bindings)});")

    lines.append("endmodule")

    for cell_type, text in _HELPER_MODULES.items():
        if cell_type in used_modules:
            lines.append("")
            lines.append(text)
    lines.append("")
    return "\n".join(lines)
