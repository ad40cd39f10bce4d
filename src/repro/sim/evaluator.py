"""Bit-true evaluation of a netlist on one input vector: the reference oracle.

:func:`evaluate_netlist` dispatches every cell through the cell library's
boolean semantics, one vector at a time.  It is deliberately simple and
shares no code with the packed path (:mod:`repro.sim.stimulus` words
replayed by :mod:`repro.sim.program`), so the tests can check the packed
path against it bit for bit.  :func:`set_bus_value` and :func:`bus_value`
write and read a bus as an unsigned integer.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from repro.errors import SimulationError
from repro.netlist.cells import evaluate_cell
from repro.netlist.core import Bus, Netlist

ValueMap = Dict[str, int]


def set_bus_value(values: ValueMap, bus: Bus, value: int) -> None:
    """Assign an unsigned integer to a bus, writing one bit value per net.

    Negative values wrap modulo the bus width (two's complement); a
    non-negative value that does not fit in the bus raises
    :class:`SimulationError` rather than silently dropping high bits.
    """
    if value < 0:
        value %= 1 << bus.width
    if value >> bus.width:
        raise SimulationError(
            f"value {value} does not fit in {bus.width}-bit bus {bus.name!r}"
        )
    for index, net in enumerate(bus.nets):
        values[net.name] = (value >> index) & 1


def bus_value(values: Mapping[str, int], bus: Bus) -> int:
    """Read a bus back as an unsigned integer."""
    total = 0
    for index, net in enumerate(bus.nets):
        if net.name not in values:
            raise SimulationError(f"no simulated value for net {net.name!r}")
        total |= (values[net.name] & 1) << index
    return total


def evaluate_netlist(
    netlist: Netlist,
    inputs: Mapping[str, Union[int, Mapping[str, int]]],
) -> ValueMap:
    """Evaluate every net of the netlist.

    ``inputs`` maps input-bus names to unsigned integers (negative values are
    wrapped modulo the bus width) and/or individual primary-input net names to
    bit values.  Every primary input must receive a value.
    """
    values: ValueMap = {}
    for net in netlist.nets.values():
        if net.is_constant:
            values[net.name] = int(net.const_value or 0)

    for name, value in inputs.items():
        if name in netlist.input_buses:
            if not isinstance(value, int):
                raise SimulationError(f"bus {name!r} expects an integer value")
            set_bus_value(values, netlist.input_buses[name], value)
        elif name in netlist.nets and netlist.nets[name].is_primary_input:
            if value not in (0, 1):
                raise SimulationError(f"net {name!r} expects a bit value, got {value!r}")
            values[name] = int(value)
        else:
            raise SimulationError(f"unknown input {name!r}")

    missing = [net.name for net in netlist.primary_inputs if net.name not in values]
    if missing:
        raise SimulationError(
            f"missing values for {len(missing)} primary inputs (e.g. {missing[:5]})"
        )

    for cell in netlist.topological_cells():
        cell_inputs = {}
        for port, net in cell.inputs.items():
            if net.name not in values:
                raise SimulationError(
                    f"net {net.name!r} used by {cell.name!r} has no value"
                )
            cell_inputs[port] = values[net.name]
        for port, value in evaluate_cell(cell.cell_type, cell_inputs).items():
            values[cell.outputs[port].name] = value
    return values
