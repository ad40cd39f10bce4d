"""Tests for cell definitions, boolean semantics and the views derived from them."""

import itertools
import math
import random
import re

import pytest

from repro.errors import NetlistError
from repro.netlist.cells import (
    CELL_DEFS,
    CellType,
    cell_input_ports,
    cell_output_ports,
    evaluate_cell,
)
from repro.netlist.core import Netlist
from repro.netlist.verilog import to_verilog
from repro.opt.cse import _signature
from repro.power.probability import propagate_probabilities
from repro.sim.program import OP_FACTORIES


class TestPortDefinitions:
    def test_every_cell_has_ports(self):
        for cell_type in CellType:
            assert cell_input_ports(cell_type)
            assert cell_output_ports(cell_type)

    def test_fa_ports(self):
        assert cell_input_ports(CellType.FA) == ("a", "b", "cin")
        assert cell_output_ports(CellType.FA) == ("s", "co")

    def test_ha_ports(self):
        assert cell_input_ports(CellType.HA) == ("a", "b")
        assert cell_output_ports(CellType.HA) == ("s", "co")


class TestEvaluate:
    def test_fa_truth_table(self):
        for a, b, cin in itertools.product((0, 1), repeat=3):
            out = evaluate_cell(CellType.FA, {"a": a, "b": b, "cin": cin})
            assert out["s"] + 2 * out["co"] == a + b + cin

    def test_ha_truth_table(self):
        for a, b in itertools.product((0, 1), repeat=2):
            out = evaluate_cell(CellType.HA, {"a": a, "b": b})
            assert out["s"] + 2 * out["co"] == a + b

    @pytest.mark.parametrize(
        "cell_type,function",
        [
            (CellType.AND2, lambda a, b: a & b),
            (CellType.NAND2, lambda a, b: 1 - (a & b)),
            (CellType.OR2, lambda a, b: a | b),
            (CellType.NOR2, lambda a, b: 1 - (a | b)),
            (CellType.XOR2, lambda a, b: a ^ b),
            (CellType.XNOR2, lambda a, b: 1 - (a ^ b)),
        ],
    )
    def test_two_input_gates(self, cell_type, function):
        for a, b in itertools.product((0, 1), repeat=2):
            assert evaluate_cell(cell_type, {"a": a, "b": b})["y"] == function(a, b)

    def test_not_and_buf(self):
        for a in (0, 1):
            assert evaluate_cell(CellType.NOT, {"a": a})["y"] == 1 - a
            assert evaluate_cell(CellType.BUF, {"a": a})["y"] == a

    def test_mux(self):
        for a, b, sel in itertools.product((0, 1), repeat=3):
            expected = b if sel else a
            assert evaluate_cell(CellType.MUX2, {"a": a, "b": b, "sel": sel})["y"] == expected

    def test_aoi21(self):
        for a, b, c in itertools.product((0, 1), repeat=3):
            expected = 1 - ((a & b) | c)
            assert evaluate_cell(CellType.AOI21, {"a": a, "b": b, "c": c})["y"] == expected

    def test_missing_port_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_cell(CellType.FA, {"a": 1, "b": 0})

    def test_non_binary_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_cell(CellType.NOT, {"a": 2})


def _rows(cell_type):
    return list(itertools.product((0, 1), repeat=len(cell_input_ports(cell_type))))


def _one_cell(cell_type):
    """A netlist of one ``cell_type`` cell reading inputs ``n0``, ``n1``, ..."""
    definition = CELL_DEFS[cell_type]
    netlist = Netlist("one")
    nets = [netlist.add_input(f"n{k}") for k in range(len(definition.inputs))]
    cell = netlist.add_cell(cell_type, dict(zip(definition.inputs, nets)), name="u0")
    for port in definition.outputs:
        netlist.set_output(cell.outputs[port])
    return netlist, cell


def _propagate(netlist, probabilities):
    """Annotate input ``n{k}`` with ``probabilities[k]`` and propagate."""
    for k, probability in enumerate(probabilities):
        netlist.annotate(netlist.nets[f"n{k}"], probability=probability)
    return propagate_probabilities(netlist)


@pytest.mark.parametrize("cell_type", list(CellType))
class TestDerivedViews:
    """Every view derived from a :class:`CellDef` agrees with the scalar one."""

    def test_packed_op_matches_scalar_evaluator(self, cell_type):
        definition = CELL_DEFS[cell_type]
        rows, n = _rows(cell_type), len(definition.inputs)
        values = [sum(bits[k] << j for j, bits in enumerate(rows)) for k in range(n)]
        values += [0] * len(definition.outputs)
        outs = tuple(range(n, len(values)))
        OP_FACTORIES[cell_type](tuple(range(n)), outs)(values, (1 << len(rows)) - 1)
        assert all(values[slot] >> len(rows) == 0 for slot in outs)  # stays in the mask
        for j, bits in enumerate(rows):
            expected = evaluate_cell(cell_type, dict(zip(definition.inputs, bits)))
            for slot, port in zip(outs, definition.outputs):
                assert (values[slot] >> j) & 1 == expected[port], (bits, port)

    def test_probability_is_the_minterm_sum(self, cell_type):
        definition = CELL_DEFS[cell_type]
        netlist, cell = _one_cell(cell_type)
        rows = _rows(cell_type)
        truth = [evaluate_cell(cell_type, dict(zip(definition.inputs, bits))) for bits in rows]
        rng = random.Random(len(rows) * 100 + list(CellType).index(cell_type))
        for _ in range(50):
            ps = [rng.random() for _ in definition.inputs]
            result = _propagate(netlist, ps)
            for port in definition.outputs:
                expected = sum(
                    math.prod(p if bit else 1.0 - p for p, bit in zip(ps, bits))
                    for bits, out in zip(rows, truth)
                    if out[port]
                )
                got = result.probability_of(cell.outputs[port])
                assert got == pytest.approx(expected, rel=0, abs=1e-12), port
        for bits, out in zip(rows, truth):
            result = _propagate(netlist, map(float, bits))
            for port in definition.outputs:
                assert result.probability_of(cell.outputs[port]) == float(out[port])

    def test_cse_signature_invariant_exactly_under_symmetries(self, cell_type):
        ports = cell_input_ports(cell_type)
        rows = _rows(cell_type)

        def table(perm):
            return [
                evaluate_cell(cell_type, {port: bits[p] for port, p in zip(ports, perm)})
                for bits in rows
            ]

        netlist = Netlist("sym")
        nets = [netlist.add_input(f"n{k}") for k in range(len(ports))]
        identity = tuple(range(len(ports)))
        reference = _signature(netlist.add_cell(cell_type, dict(zip(ports, nets))))
        for perm in itertools.permutations(identity):
            cell = netlist.add_cell(cell_type, {port: nets[p] for port, p in zip(ports, perm)})
            preserves = table(perm) == table(identity)
            assert (_signature(cell) == reference) == preserves, perm

    def test_verilog_ports_match_record(self, cell_type):
        definition = CELL_DEFS[cell_type]
        netlist, cell = _one_cell(cell_type)
        text = to_verilog(netlist)
        instance = next(line for line in text.splitlines() if " u0(" in line)
        header = re.search(rf"module REPRO_{cell_type.value}\((.*)\);", text)
        if header is None:  # a gate primitive: the output net, then the inputs
            nets = instance.split("(", 1)[1].rstrip(");").split(", ")
            assert len(definition.outputs) == 1
            assert nets == [cell.outputs["y"].name] + [
                cell.inputs[port].name for port in definition.inputs
            ]
        else:
            assert header.group(1).split(", ") == [
                f"input {port}" for port in definition.inputs
            ] + [f"output {port}" for port in definition.outputs]
            bound = re.findall(r"\.(\w+)\(", instance)
            assert bound == list(definition.inputs + definition.outputs)
