"""JSON round-trip for netlists.

``netlist_to_dict`` captures the complete structure of a
:class:`~repro.netlist.core.Netlist` — nets (with primary-input/constant
roles and their arrival/probability attribute annotations), cells (with
port bindings and attributes), primary outputs and the input/output bus
registry — as plain JSON-able data, mirroring the metric-record convention of
:meth:`repro.api.result.FlowResult.to_dict`.  ``netlist_from_dict``
rebuilds an equivalent netlist object graph, which is what the optimizer uses
to snapshot the pre-optimization netlist for equivalence checking and what
lets optimized netlists be cached and diffed as artifacts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import NetlistError
from repro.netlist.cells import CellType
from repro.netlist.core import Bus, Netlist

#: schema marker embedded in every snapshot; bump on layout changes
NETLIST_SCHEMA = "repro.netlist"
NETLIST_SCHEMA_VERSION = 1


def netlist_to_dict(netlist: Netlist) -> Dict[str, object]:
    """Serialize ``netlist`` to a JSON-able dict (inverse of
    :func:`netlist_from_dict`)."""
    nets: List[Dict[str, object]] = []
    for net in netlist.nets.values():
        record: Dict[str, object] = {"name": net.name}
        if net.is_primary_input:
            record["pi"] = True
        if net.const_value is not None:
            record["const"] = int(net.const_value)
        if net.attributes:
            # arrival/probability annotations feed timing and power analysis
            record["attributes"] = dict(net.attributes)
        nets.append(record)
    cells = []
    for cell in netlist.cells.values():
        cell_record: Dict[str, object] = {
            "name": cell.name,
            "type": cell.cell_type.value,
            "inputs": {port: net.name for port, net in cell.inputs.items()},
            "outputs": {port: net.name for port, net in cell.outputs.items()},
        }
        if cell.attributes:
            cell_record["attributes"] = dict(cell.attributes)
        cells.append(cell_record)
    return {
        "schema": NETLIST_SCHEMA,
        "schema_version": NETLIST_SCHEMA_VERSION,
        "name": netlist.name,
        "nets": nets,
        "cells": cells,
        "inputs": [net.name for net in netlist.primary_inputs],
        "outputs": [net.name for net in netlist.primary_outputs],
        "input_buses": {
            name: [net.name for net in bus.nets]
            for name, bus in netlist.input_buses.items()
        },
        "output_buses": {
            name: [net.name for net in bus.nets]
            for name, bus in netlist.output_buses.items()
        },
    }


def netlist_from_dict(data: Dict[str, object]) -> Netlist:
    """Rebuild a :class:`Netlist` from :func:`netlist_to_dict` output."""
    if data.get("schema") != NETLIST_SCHEMA:
        raise NetlistError(f"not a netlist snapshot: schema={data.get('schema')!r}")
    if data.get("schema_version") != NETLIST_SCHEMA_VERSION:
        raise NetlistError(
            f"unsupported netlist snapshot version {data.get('schema_version')!r}"
        )
    netlist = Netlist(str(data.get("name", "top")))

    for record in data["nets"]:
        net = netlist.add_net(str(record["name"]))
        if record.get("pi"):
            net.is_primary_input = True
        const = record.get("const")
        if const is not None:
            net.const_value = int(const)
            netlist._const_nets[int(const)] = net
        net.attributes.update(record.get("attributes", {}))

    def _net(name: str):
        try:
            return netlist.nets[name]
        except KeyError as exc:
            raise NetlistError(f"snapshot references unknown net {name!r}") from exc

    netlist._inputs = [_net(name) for name in data.get("inputs", [])]
    for record in data["cells"]:
        # cell types resolve through the CellType enum (and port sets through
        # cell_input_ports/cell_output_ports inside add_cell), so any type the
        # cell table knows round-trips with no per-type code here; a snapshot
        # naming an unknown type fails as a NetlistError, not a ValueError
        try:
            cell_type = CellType(str(record["type"]))
        except ValueError as exc:
            raise NetlistError(
                f"snapshot cell {record.get('name')!r} has unknown cell type "
                f"{record.get('type')!r}"
            ) from exc
        cell = netlist.add_cell(
            cell_type,
            {port: _net(name) for port, name in record["inputs"].items()},
            name=str(record["name"]),
            outputs={port: _net(name) for port, name in record["outputs"].items()},
        )
        cell.attributes.update(record.get("attributes", {}))
    for name in data.get("outputs", []):
        netlist.set_output(_net(name))
    for bus_name, net_names in data.get("input_buses", {}).items():
        netlist.input_buses[bus_name] = Bus(bus_name, [_net(n) for n in net_names])
    for bus_name, net_names in data.get("output_buses", {}).items():
        netlist.output_buses[bus_name] = Bus(bus_name, [_net(n) for n in net_names])
    return netlist
