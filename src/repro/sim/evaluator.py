"""Bit-true evaluation of a netlist on concrete input values.

Two evaluation modes are provided:

* :func:`evaluate_netlist` — one vector at a time, dispatching through the
  cell library's boolean semantics; this is the reference implementation.
* :func:`evaluate_vectors` — N vectors at once: each net's value across all
  vectors is packed into one Python integer (bit ``k`` = the net's value in
  vector ``k``) and every cell is evaluated once with bitwise operations.
  For batches of tens of vectors and up this is an order of magnitude
  faster than the per-vector loop, which is what makes large equivalence
  checks and empirical switching runs cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Union

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


# --------------------------------------------------------------------------
# batched, bit-parallel evaluation


@dataclass
class BatchValues:
    """Packed results of a batched evaluation.

    ``values[net]`` holds one integer whose bit ``k`` is the net's value in
    vector ``k``; ``count`` is the number of vectors in the batch.
    """

    values: Dict[str, int]
    count: int

    def _net_bytes(self, name: str) -> bytes:
        """Little-endian byte view of one net's packed values (linear)."""
        if name not in self.values:
            raise SimulationError(f"no simulated value for net {name!r}")
        return self.values[name].to_bytes((self.count + 7) // 8, "little")

    def net_values(self, name: str) -> List[int]:
        """Per-vector bit values of one net."""
        if self.count == 0:
            return []
        data = self._net_bytes(name)
        return [(data[k >> 3] >> (k & 7)) & 1 for k in range(self.count)]

    def bus_values(self, bus: Bus) -> List[int]:
        """Per-vector unsigned integer values of a bus."""
        if self.count == 0:
            return []
        results = [0] * self.count
        for index, net in enumerate(bus.nets):
            # byte-wise extraction keeps this linear in the vector count
            # (bigint shifts per vector would be quadratic)
            data = self._net_bytes(net.name)
            bit = 1 << index
            for k in range(self.count):
                if (data[k >> 3] >> (k & 7)) & 1:
                    results[k] |= bit
        return results


def evaluate_vectors(
    netlist: Netlist,
    vectors: Sequence[Mapping[str, Union[int, Mapping[str, int]]]],
) -> BatchValues:
    """Evaluate the netlist on many input vectors at once, bit-parallel.

    Each vector has the same shape as the ``inputs`` of
    :func:`evaluate_netlist` (bus names to unsigned integers and/or primary
    input net names to bits).  All N vectors are packed into per-net integers
    and every cell is evaluated exactly once, so the cost per extra vector is
    a few machine-word operations rather than a full netlist traversal.
    """
    count = len(vectors)
    if count == 0:
        return BatchValues(values={}, count=0)
    mask = (1 << count) - 1
    nbytes = (count + 7) // 8

    # bits and per-vector coverage are accumulated in bytearrays and turned
    # into ints once at the end; |=-ing a bigint per vector would be quadratic
    input_bits: Dict[str, bytearray] = {}
    covered: Dict[str, bytearray] = {}

    def _slot(net_name: str) -> bytearray:
        if net_name not in covered:
            covered[net_name] = bytearray(nbytes)
            input_bits[net_name] = bytearray(nbytes)
        return covered[net_name]

    for k, vector in enumerate(vectors):
        byte_index, byte_bit = k >> 3, 1 << (k & 7)
        for name, value in vector.items():
            if name in netlist.input_buses:
                bus = netlist.input_buses[name]
                if not isinstance(value, int):
                    raise SimulationError(f"bus {name!r} expects an integer value")
                if value < 0:
                    value %= 1 << bus.width
                if value >> bus.width:
                    raise SimulationError(
                        f"value {value} does not fit in {bus.width}-bit "
                        f"bus {name!r}"
                    )
                for index, net in enumerate(bus.nets):
                    _slot(net.name)[byte_index] |= byte_bit
                    if (value >> index) & 1:
                        input_bits[net.name][byte_index] |= byte_bit
            elif name in netlist.nets and netlist.nets[name].is_primary_input:
                if value not in (0, 1):
                    raise SimulationError(
                        f"net {name!r} expects a bit value, got {value!r}"
                    )
                _slot(name)[byte_index] |= byte_bit
                if value:
                    input_bits[name][byte_index] |= byte_bit
            else:
                raise SimulationError(f"unknown input {name!r}")

    full_coverage = mask.to_bytes(nbytes, "little")
    partial = [name for name, cov in covered.items() if bytes(cov) != full_coverage]
    if partial:
        raise SimulationError(
            f"{len(partial)} inputs are not assigned in every vector of the "
            f"batch (e.g. {sorted(partial)[:5]})"
        )
    missing = [net.name for net in netlist.primary_inputs if net.name not in covered]
    if missing:
        raise SimulationError(
            f"missing values for {len(missing)} primary inputs (e.g. {missing[:5]})"
        )

    values: Dict[str, int] = {
        name: int.from_bytes(bits, "little") for name, bits in input_bits.items()
    }
    return _evaluate_packed_values(netlist, values, mask, count)


def _evaluate_packed_values(
    netlist: Netlist, values: Dict[str, int], mask: int, count: int
) -> BatchValues:
    """Shared bit-parallel sweep: replay the netlist's compiled program."""
    from repro.sim.program import cached_program

    program = cached_program(netlist)
    slots = program.run_packed(values, mask)
    return BatchValues(values=program.values_dict(slots), count=count)
