"""Unit tests for the individual rewrite passes in `repro.opt`."""

import pytest

from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.netlist.validate import validate_netlist
from repro.opt.base import classify_truth_table
from repro.opt.cleanup import CleanupPass
from repro.opt.constant_fold import ConstantFoldPass
from repro.opt.cse import CommonSubexpressionPass
from repro.opt.dce import DeadCellEliminationPass
from repro.opt.strength import StrengthReductionPass
from repro.sim.equivalence import check_netlists_equivalent


def _check(before: Netlist, after: Netlist) -> None:
    validate_netlist(after)
    check_netlists_equivalent(before, after).assert_ok()


class TestClassifyTruthTable:
    @pytest.mark.parametrize(
        "tt,expected",
        [
            ((0, 0), ("const", 0)),
            ((1, 1), ("const", 1)),
            ((0, 1), ("var", 0)),
            ((1, 0), ("not", 0)),
            ((0, 0, 1, 1), ("var", 1)),
            ((1, 0, 1, 0), ("not", 0)),
            ((0, 0, 0, 1), ("gate", (CellType.AND2, 0, 1))),
            ((0, 1, 1, 0), ("gate", (CellType.XOR2, 0, 1))),
            ((1, 0, 0, 0), ("gate", (CellType.NOR2, 0, 1))),
            ((0, 1, 0, 0), None),  # a & ~b: not a supported gate
            # 3-variable tables: v0 is don't-care, so the surviving gate
            # variables must be renumbered to (1, 2)
            ((0, 0, 0, 0, 1, 1, 1, 1), ("var", 2)),
            ((0, 0, 1, 1, 1, 1, 1, 1), ("gate", (CellType.OR2, 1, 2))),
            ((0, 1, 0, 1, 1, 0, 1, 0), ("gate", (CellType.XOR2, 0, 2))),
        ],
    )
    def test_classification(self, tt, expected):
        assert classify_truth_table(tt) == expected


class TestConstantFold:
    def _gate_with_const(self, cell_type, const_value):
        netlist = Netlist("fold")
        x = netlist.add_input("x")
        c = netlist.const(const_value)
        g = netlist.add_cell(cell_type, {"a": x, "b": c})
        netlist.set_output(g.outputs["y"])
        return netlist

    @pytest.mark.parametrize(
        "cell_type,const_value",
        [
            (CellType.AND2, 0),
            (CellType.AND2, 1),
            (CellType.OR2, 0),
            (CellType.OR2, 1),
            (CellType.XOR2, 0),
            (CellType.XOR2, 1),
            (CellType.NAND2, 0),
            (CellType.NOR2, 1),
            (CellType.XNOR2, 1),
        ],
    )
    def test_two_input_gates_with_constants(self, cell_type, const_value):
        netlist = self._gate_with_const(cell_type, const_value)
        before = netlist.copy()
        assert ConstantFoldPass().run(netlist) == 1
        _check(before, netlist)

    def test_duplicate_inputs_collapse(self):
        netlist = Netlist("dup")
        x = netlist.add_input("x")
        g = netlist.add_cell(CellType.XOR2, {"a": x, "b": x})
        netlist.set_output(g.outputs["y"])
        before = netlist.copy()
        assert ConstantFoldPass().run(netlist) == 1
        # XOR(x, x) == 0: the output is anchored to constant 0 via a BUF
        po = netlist.primary_outputs[0]
        assert po.driver is not None
        anchor = po.driver[0]
        assert anchor.cell_type is CellType.BUF
        assert anchor.inputs["a"].const_value == 0
        _check(before, netlist)

    def test_aoi21_reduces_to_two_input_gate(self):
        netlist = Netlist("aoi")
        a = netlist.add_input("a")
        c = netlist.add_input("c")
        g = netlist.add_cell(
            CellType.AOI21, {"a": a, "b": netlist.const(1), "c": c}
        )
        netlist.set_output(g.outputs["y"])
        before = netlist.copy()
        assert ConstantFoldPass().run(netlist) == 1
        assert len(netlist.cells_of_type(CellType.NOR2)) == 1
        _check(before, netlist)

    def test_mux_with_constant_select(self):
        netlist = Netlist("mux")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_cell(CellType.MUX2, {"a": a, "b": b, "sel": netlist.const(1)})
        reader = netlist.add_cell(CellType.NOT, {"a": g.outputs["y"]})
        netlist.set_output(reader.outputs["y"])
        before = netlist.copy()
        assert ConstantFoldPass().run(netlist) == 1
        assert reader.inputs["a"] is b
        _check(before, netlist)

    def test_constants_propagate_in_one_sweep(self):
        netlist = Netlist("chain")
        x = netlist.add_input("x")
        g1 = netlist.add_cell(CellType.AND2, {"a": x, "b": netlist.const(0)})
        g2 = netlist.add_cell(CellType.OR2, {"a": g1.outputs["y"], "b": x})
        g3 = netlist.add_cell(CellType.XOR2, {"a": g2.outputs["y"], "b": netlist.const(1)})
        netlist.set_output(g3.outputs["y"])
        before = netlist.copy()
        # g1 -> const 0, g2 -> x, g3 -> NOT x: all in one topological sweep
        assert ConstantFoldPass().run(netlist) == 3
        _check(before, netlist)

    def test_minimal_cells_untouched(self):
        netlist = Netlist("minimal")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_cell(CellType.NAND2, {"a": a, "b": b})
        n = netlist.add_cell(CellType.NOT, {"a": g.outputs["y"]})
        netlist.set_output(n.outputs["y"])
        assert ConstantFoldPass().run(netlist) == 0


class TestStrengthReduction:
    def _adder(self, cell_type, bindings, outputs_are_pos=False):
        """An FA/HA with the given port bindings.

        By default the adder outputs feed internal XOR readers (the common
        compressor-tree situation); with ``outputs_are_pos`` they are the
        primary outputs themselves, which makes rewrites pay BUF anchors.
        """
        netlist = Netlist("adder")
        nets = {}
        for port, spec in bindings.items():
            if spec in (0, 1):
                nets[port] = netlist.const(spec)
            else:
                nets[port] = netlist.nets.get(spec) or netlist.add_input(spec)
        cell = netlist.add_cell(cell_type, nets)
        if outputs_are_pos:
            netlist.set_output(cell.outputs["s"])
            netlist.set_output(cell.outputs["co"])
        else:
            probe = netlist.add_input("probe")
            for port in ("s", "co"):
                reader = netlist.add_cell(
                    CellType.XOR2, {"a": cell.outputs[port], "b": probe}
                )
                netlist.set_output(reader.outputs["y"])
        return netlist

    def test_fa_with_constant_zero_becomes_ha(self):
        netlist = self._adder(CellType.FA, {"a": "x", "b": "y", "cin": 0})
        before = netlist.copy()
        assert StrengthReductionPass().run(netlist) == 1
        assert len(netlist.cells_of_type(CellType.FA)) == 0
        assert len(netlist.cells_of_type(CellType.HA)) == 1
        _check(before, netlist)

    def test_fa_with_constant_one_becomes_xnor_or(self):
        netlist = self._adder(CellType.FA, {"a": "x", "b": "y", "cin": 1})
        before = netlist.copy()
        assert StrengthReductionPass().run(netlist) == 1
        assert len(netlist.cells_of_type(CellType.FA)) == 0
        assert len(netlist.cells_of_type(CellType.XNOR2)) == 1
        assert len(netlist.cells_of_type(CellType.OR2)) == 1
        _check(before, netlist)

    def test_ha_with_constant_zero_is_a_wire(self):
        netlist = self._adder(CellType.HA, {"a": "x", "b": 0})
        before = netlist.copy()
        assert StrengthReductionPass().run(netlist) == 1
        assert netlist.cells_of_type(CellType.HA) == []
        _check(before, netlist)

    def test_ha_with_constant_one_inverts(self):
        netlist = self._adder(CellType.HA, {"a": "x", "b": 1})
        before = netlist.copy()
        assert StrengthReductionPass().run(netlist) == 1
        assert len(netlist.cells_of_type(CellType.NOT)) == 1
        _check(before, netlist)

    def test_fa_with_two_constants(self):
        netlist = self._adder(CellType.FA, {"a": "x", "b": 0, "cin": 1})
        before = netlist.copy()
        assert StrengthReductionPass().run(netlist) == 1
        assert netlist.cells_of_type(CellType.FA) == []
        _check(before, netlist)

    def test_fa_with_duplicated_inputs(self):
        netlist = self._adder(CellType.FA, {"a": "x", "b": "x", "cin": "y"})
        before = netlist.copy()
        assert StrengthReductionPass().run(netlist) == 1
        # s == y, co == x: pure rewiring
        assert netlist.cells_of_type(CellType.FA) == []
        _check(before, netlist)

    def test_inflating_rewrite_on_primary_outputs_skipped(self):
        # FA(x, y, 1) whose outputs ARE the primary outputs: the XNOR+OR
        # replacement would cost two gates plus two BUF anchors for one FA,
        # so the cost guard must leave the adder alone
        netlist = self._adder(
            CellType.FA, {"a": "x", "b": "y", "cin": 1}, outputs_are_pos=True
        )
        assert StrengthReductionPass().run(netlist) == 0
        assert len(netlist.cells_of_type(CellType.FA)) == 1

    def test_full_fa_untouched(self):
        netlist = self._adder(CellType.FA, {"a": "x", "b": "y", "cin": "z"})
        assert StrengthReductionPass().run(netlist) == 0

    def test_minimal_ha_untouched(self):
        netlist = self._adder(CellType.HA, {"a": "x", "b": "y"})
        assert StrengthReductionPass().run(netlist) == 0


class TestCse:
    def test_identical_gates_merge(self):
        netlist = Netlist("cse")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g1 = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
        g2 = netlist.add_cell(CellType.AND2, {"a": b, "b": a})  # commuted
        out = netlist.add_cell(
            CellType.XOR2, {"a": g1.outputs["y"], "b": g2.outputs["y"]}
        )
        netlist.set_output(out.outputs["y"])
        before = netlist.copy()
        assert CommonSubexpressionPass().run(netlist) == 1
        assert len(netlist.cells_of_type(CellType.AND2)) == 1
        # XOR now reads the surviving AND on both pins
        assert out.inputs["a"] is out.inputs["b"]
        _check(before, netlist)

    def test_mux_is_order_sensitive(self):
        netlist = Netlist("mux_cse")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        s = netlist.add_input("s")
        m1 = netlist.add_cell(CellType.MUX2, {"a": a, "b": b, "sel": s})
        m2 = netlist.add_cell(CellType.MUX2, {"a": b, "b": a, "sel": s})
        out = netlist.add_cell(
            CellType.OR2, {"a": m1.outputs["y"], "b": m2.outputs["y"]}
        )
        netlist.set_output(out.outputs["y"])
        assert CommonSubexpressionPass().run(netlist) == 0

    def test_adders_merge_both_outputs(self):
        netlist = Netlist("fa_cse")
        x = netlist.add_input("x")
        y = netlist.add_input("y")
        z = netlist.add_input("z")
        fa1 = netlist.add_cell(CellType.FA, {"a": x, "b": y, "cin": z})
        fa2 = netlist.add_cell(CellType.FA, {"a": z, "b": x, "cin": y})
        out = netlist.add_cell(
            CellType.HA, {"a": fa1.outputs["s"], "b": fa2.outputs["co"]}
        )
        netlist.set_output(out.outputs["s"])
        netlist.set_output(out.outputs["co"])
        before = netlist.copy()
        assert CommonSubexpressionPass().run(netlist) == 1
        assert len(netlist.cells_of_type(CellType.FA)) == 1
        _check(before, netlist)


class TestCleanup:
    def test_buf_chain_collapses(self):
        netlist = Netlist("bufs")
        x = netlist.add_input("x")
        b1 = netlist.add_cell(CellType.BUF, {"a": x})
        b2 = netlist.add_cell(CellType.BUF, {"a": b1.outputs["y"]})
        g = netlist.add_cell(CellType.NOT, {"a": b2.outputs["y"]})
        netlist.set_output(g.outputs["y"])
        before = netlist.copy()
        assert CleanupPass().run(netlist) == 2
        assert g.inputs["a"] is x
        _check(before, netlist)

    def test_po_anchor_buf_kept(self):
        netlist = Netlist("anchor")
        x = netlist.add_input("x")
        buf = netlist.add_cell(CellType.BUF, {"a": x})
        netlist.set_output(buf.outputs["y"])
        assert CleanupPass().run(netlist) == 0
        assert "buf_1" in netlist.cells or netlist.num_cells() == 1

    def test_double_not_cancels(self):
        netlist = Netlist("nots")
        x = netlist.add_input("x")
        n1 = netlist.add_cell(CellType.NOT, {"a": x})
        n2 = netlist.add_cell(CellType.NOT, {"a": n1.outputs["y"]})
        g = netlist.add_cell(CellType.AND2, {"a": n2.outputs["y"], "b": x})
        netlist.set_output(g.outputs["y"])
        before = netlist.copy()
        assert CleanupPass().run(netlist) == 1
        assert g.inputs["a"] is x
        _check(before, netlist)


class TestDce:
    def test_unreachable_cone_removed(self):
        netlist = Netlist("dead")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        live = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
        dead1 = netlist.add_cell(CellType.OR2, {"a": a, "b": b})
        dead2 = netlist.add_cell(CellType.NOT, {"a": dead1.outputs["y"]})
        netlist.set_output(live.outputs["y"])
        before = netlist.copy()
        assert DeadCellEliminationPass().run(netlist) == 2
        assert netlist.num_cells() == 1
        assert dead1.name not in netlist.cells
        assert dead2.name not in netlist.cells
        _check(before, netlist)

    def test_unused_adder_carry_kept_alive_by_sum(self):
        netlist = Netlist("carry")
        x = netlist.add_input("x")
        y = netlist.add_input("y")
        ha = netlist.add_cell(CellType.HA, {"a": x, "b": y})
        netlist.set_output(ha.outputs["s"])  # co dangles but the cell is live
        assert DeadCellEliminationPass().run(netlist) == 0
        assert ha.name in netlist.cells

    def test_orphan_nets_swept(self):
        netlist = Netlist("orphan")
        netlist.add_input("a")
        netlist.add_net("stray")
        DeadCellEliminationPass().run(netlist)
        assert "stray" not in netlist.nets
        assert "a" in netlist.nets

    def test_clean_netlist_is_not_walked_again_until_it_changes(self, monkeypatch):
        netlist = Netlist("rerun")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        live = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
        netlist.add_cell(CellType.OR2, {"a": a, "b": b})
        netlist.set_output(live.outputs["y"])
        walks = []
        fanin = netlist.transitive_fanin

        def counting_fanin(nets):
            walks.append(nets)
            return fanin(nets)

        monkeypatch.setattr(netlist, "transitive_fanin", counting_fanin)
        dce = DeadCellEliminationPass()
        assert dce.run(netlist) == 1
        assert dce.run(netlist) == 0
        assert len(walks) == 1  # the second run saw the marker and did not walk
        dead = netlist.add_cell(CellType.XOR2, {"a": a, "b": b})
        assert dce.run(netlist) == 1  # the mutation re-armed the pass
        assert len(walks) == 2
        assert dead.name not in netlist.cells
        assert dce.run(netlist) == 0
        assert len(walks) == 2
