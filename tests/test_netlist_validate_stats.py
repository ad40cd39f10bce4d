"""Tests for netlist validation and statistics."""

import pytest

from repro.errors import NetlistError
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.netlist.stats import logic_depth, netlist_stats
from repro.netlist.validate import validate_netlist


def _small_netlist():
    netlist = Netlist("small")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    gate = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
    inv = netlist.add_cell(CellType.NOT, {"a": gate.outputs["y"]})
    netlist.set_output(inv.outputs["y"])
    return netlist


class TestValidate:
    def test_clean_netlist_passes(self):
        warnings = validate_netlist(_small_netlist())
        assert warnings == []

    def test_dangling_net_is_warning_by_default(self):
        netlist = _small_netlist()
        netlist.add_net("dangling_but_undriven_is_error")  # undriven -> hard error
        with pytest.raises(NetlistError):
            validate_netlist(netlist)

    def test_unused_driven_net_warns(self):
        netlist = _small_netlist()
        a = netlist.nets["a"]
        netlist.add_cell(CellType.NOT, {"a": a})  # output never used
        warnings = validate_netlist(netlist)
        assert len(warnings) == 1
        with pytest.raises(NetlistError):
            validate_netlist(netlist, allow_dangling=False)

    def test_corrupted_driver_detected(self):
        netlist = _small_netlist()
        gate = next(iter(netlist.cells.values()))
        gate.outputs["y"].driver = None
        with pytest.raises(NetlistError):
            validate_netlist(netlist)

    def test_corrupted_load_detected(self):
        netlist = _small_netlist()
        a = netlist.nets["a"]
        a.loads.clear()
        with pytest.raises(NetlistError):
            validate_netlist(netlist)


class TestStats:
    def test_counts_and_depth(self, library):
        netlist = _small_netlist()
        stats = netlist_stats(netlist, library)
        assert stats.num_cells == 2
        assert stats.count(CellType.AND2) == 1
        assert stats.count(CellType.NOT) == 1
        assert stats.count(CellType.FA) == 0
        assert stats.logic_depth == 2
        assert stats.area == pytest.approx(library.area(CellType.AND2) + library.area(CellType.NOT))
        assert "small" in stats.summary()

    def test_depth_of_empty_netlist(self):
        netlist = Netlist("empty")
        netlist.add_input("a")
        assert logic_depth(netlist) == 0

    def test_stats_without_library(self):
        stats = netlist_stats(_small_netlist())
        assert stats.area is None
        assert stats.num_inputs == 2
        assert stats.num_outputs == 1


class TestFloatingAndMultiplyDriven:
    def test_multiply_driven_net_detected(self):
        netlist = _small_netlist()
        gate = netlist.cells["and2_1"]
        inv = netlist.cells["not_2"]
        # forcibly bind the NOT's output onto the AND's output net
        contested = gate.outputs["y"]
        inv.outputs["y"] = contested
        with pytest.raises(NetlistError, match="multiply-driven"):
            validate_netlist(netlist)

    def test_floating_net_with_stale_driver_detected(self):
        netlist = _small_netlist()
        inv = netlist.cells["not_2"]
        po = inv.outputs["y"]
        # drop the cell but leave the net's driver pointer stale: the net now
        # floats even though every back-pointer check still passes
        del netlist.cells[inv.name]
        gate_out = inv.inputs["a"]
        gate_out.loads = [entry for entry in gate_out.loads if entry[0] is not inv]
        with pytest.raises(NetlistError, match="floating"):
            validate_netlist(netlist)

    def test_optimized_netlists_validate(self, small_design):
        from repro.api import Flow, FlowConfig

        result = Flow(FlowConfig(method="fa_aot", opt_level=2)).run(small_design)
        assert validate_netlist(result.netlist) is not None
