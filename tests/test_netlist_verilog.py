"""Tests for the structural Verilog emitter."""

import pathlib
import re

from repro.bitmatrix.builder import build_addend_matrix
from repro.core.fa_aot import fa_aot
from repro.adders.factory import build_final_adder
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.netlist.verilog import to_verilog


def _simple_netlist():
    netlist = Netlist("simple")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    cin = netlist.add_input("cin")
    fa = netlist.add_cell(CellType.FA, {"a": a, "b": b, "cin": cin})
    netlist.set_output(fa.outputs["s"])
    netlist.set_output(fa.outputs["co"])
    return netlist


class TestVerilogEmission:
    def test_module_header_and_ports(self):
        text = to_verilog(_simple_netlist(), module_name="adder1")
        assert text.startswith("// Generated by repro")
        assert "module adder1(" in text
        assert "endmodule" in text
        assert "input a;" in text
        assert "input cin;" in text

    def test_fa_helper_module_appended_once(self):
        text = to_verilog(_simple_netlist())
        assert text.count("module REPRO_FA(") == 1
        assert "REPRO_FA" in text

    def test_primitive_gates_emitted(self):
        netlist = Netlist("gates")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g1 = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
        g2 = netlist.add_cell(CellType.XOR2, {"a": g1.outputs["y"], "b": b})
        netlist.set_output(g2.outputs["y"])
        text = to_verilog(netlist)
        assert re.search(r"\band\b", text)
        assert re.search(r"\bxor\b", text)
        assert "REPRO_FA" not in text

    def test_constants_rendered_as_literals(self):
        netlist = Netlist("consts")
        a = netlist.add_input("a")
        gate = netlist.add_cell(CellType.AND2, {"a": a, "b": netlist.const(1)})
        netlist.set_output(gate.outputs["y"])
        text = to_verilog(netlist)
        assert "1'b1" in text

    def test_bracketed_bus_names_are_sanitized_in_ports(self):
        netlist = Netlist("bus")
        bus = netlist.add_input_bus("x", 2)
        gate = netlist.add_cell(CellType.OR2, {"a": bus[0], "b": bus[1]})
        netlist.set_output(gate.outputs["y"])
        text = to_verilog(netlist)
        # ports must be plain identifiers
        header = text.splitlines()[1]
        assert "[" not in header
        assert "x_0" in header and "x_1" in header

    def test_instance_count_matches_cells(self, x2_design, library):
        build = build_addend_matrix(
            x2_design.expression, x2_design.signals, x2_design.output_width, library=library
        )
        result = fa_aot(build.netlist, build.matrix)
        rows = [[a.net if a else None for a in row] for row in result.rows]
        build_final_adder(build.netlist, rows[0], rows[1], x2_design.output_width)
        text = to_verilog(build.netlist)
        fa_instances = text.count("REPRO_FA ")
        ha_instances = text.count("REPRO_HA ")
        assert fa_instances == len(build.netlist.cells_of_type(CellType.FA))
        assert ha_instances == len(build.netlist.cells_of_type(CellType.HA))


def _golden_netlist():
    """Fixed netlist for the golden-file test: one of every emission style."""
    netlist = Netlist("golden")
    x = netlist.add_input_bus("x", 2)
    cin = netlist.add_input("cin")
    fa = netlist.add_cell(CellType.FA, {"a": x[0], "b": x[1], "cin": cin}, name="fa0")
    g = netlist.add_cell(
        CellType.AND2, {"a": fa.outputs["s"], "b": netlist.const(1)}, name="g0"
    )
    inv = netlist.add_cell(CellType.NOT, {"a": fa.outputs["co"]}, name="inv0")
    netlist.set_output(g.outputs["y"])
    netlist.set_output(inv.outputs["y"])
    return netlist


class TestGoldenEmission:
    GOLDEN = pathlib.Path(__file__).parent / "golden" / "golden_netlist.v"

    def test_emission_matches_golden_file(self):
        text = to_verilog(_golden_netlist(), module_name="golden_top")
        assert text == self.GOLDEN.read_text(encoding="utf-8"), (
            "to_verilog output drifted from tests/golden/golden_netlist.v; "
            "if the change is intentional, regenerate the golden file"
        )


class TestOptimizedNetlistEmission:
    def test_optimized_netlist_names_all_primary_ios(self, small_design):
        from repro.api import Flow, FlowConfig

        result = Flow(FlowConfig(method="fa_aot", opt_level=2)).run(small_design)
        assert result.opt_report is not None and result.opt_report.cells_removed > 0
        text = to_verilog(result.netlist, module_name="opt_top")
        header = text[text.index("(") + 1 : text.index(");")]
        ports = {p.strip() for p in header.split(",")}
        sanitize = lambda name: re.sub(r"[^A-Za-z0-9_]", "_", name)
        for net in result.netlist.primary_inputs:
            assert sanitize(net.name) in ports, f"missing input port for {net.name}"
        for net in result.netlist.primary_outputs:
            assert sanitize(net.name) in ports, f"missing output port for {net.name}"

    def test_optimized_netlist_emits_parsable_structure(self, small_design):
        from repro.api import Flow, FlowConfig

        result = Flow(FlowConfig(method="conventional", opt_level=2)).run(small_design)
        text = to_verilog(result.netlist)
        opened = len(re.findall(r"^module ", text, re.MULTILINE))
        assert opened == text.count("endmodule")
        # every remaining cell still has an instance line
        assert text.count("REPRO_FA ") == len(result.netlist.cells_of_type(CellType.FA))
