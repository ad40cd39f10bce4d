"""Tests for the final-adder generators."""

import itertools

import pytest

from repro.adders.carry_select import carry_select_adder
from repro.adders.cla import carry_lookahead_adder
from repro.adders.common import and_chain, normalize_operand, or_chain
from repro.adders.factory import FINAL_ADDER_KINDS, build_final_adder
from repro.adders.kogge_stone import kogge_stone_adder
from repro.adders.ripple import ripple_carry_adder
from repro.errors import NetlistError
from repro.netlist.core import Netlist
from repro.sim.evaluator import bus_value, evaluate_netlist

ADDERS = {
    "ripple": ripple_carry_adder,
    "cla": carry_lookahead_adder,
    "carry_select": carry_select_adder,
    "kogge_stone": kogge_stone_adder,
}


def _check_adder(builder, width, pairs):
    netlist = Netlist("adder")
    a = netlist.add_input_bus("a", width)
    b = netlist.add_input_bus("b", width)
    result = builder(netlist, a.nets, b.nets, width)
    netlist.set_output_bus(result)
    for value_a, value_b in pairs:
        values = evaluate_netlist(netlist, {"a": value_a, "b": value_b})
        assert bus_value(values, result) == (value_a + value_b) % (1 << width), (
            builder.__name__,
            value_a,
            value_b,
        )


class TestAdderCorrectness:
    @pytest.mark.parametrize("name", sorted(ADDERS))
    def test_exhaustive_4_bits(self, name):
        pairs = list(itertools.product(range(16), repeat=2))
        _check_adder(ADDERS[name], 4, pairs)

    @pytest.mark.parametrize("name", sorted(ADDERS))
    def test_random_12_bits(self, name):
        import random

        rng = random.Random(name)
        pairs = [(rng.randrange(4096), rng.randrange(4096)) for _ in range(40)]
        _check_adder(ADDERS[name], 12, pairs)

    @pytest.mark.parametrize("name", sorted(ADDERS))
    def test_width_one(self, name):
        _check_adder(ADDERS[name], 1, [(0, 0), (0, 1), (1, 1)])

    def test_missing_bits_treated_as_zero(self):
        netlist = Netlist("adder")
        a = netlist.add_input_bus("a", 4)
        result = build_final_adder(netlist, [a[0], None, a[2], None], [None] * 4, 4)
        netlist.set_output_bus(result)
        values = evaluate_netlist(netlist, {"a": 0b0101})
        assert bus_value(values, result) == 0b0101

    def test_ripple_carry_in(self):
        netlist = Netlist("adder")
        a = netlist.add_input_bus("a", 3)
        b = netlist.add_input_bus("b", 3)
        result = ripple_carry_adder(netlist, a.nets, b.nets, 3, carry_in=netlist.const(1))
        netlist.set_output_bus(result)
        values = evaluate_netlist(netlist, {"a": 2, "b": 3})
        assert bus_value(values, result) == 6

    def test_cla_carry_in_used_for_subtraction(self):
        netlist = Netlist("sub")
        a = netlist.add_input_bus("a", 4)
        b = netlist.add_input_bus("b", 4)
        from repro.netlist.cells import CellType

        inverted = [netlist.add_cell(CellType.NOT, {"a": net}).outputs["y"] for net in b.nets]
        result = carry_lookahead_adder(
            netlist, a.nets, inverted, 4, carry_in=netlist.const(1)
        )
        netlist.set_output_bus(result)
        for value_a, value_b in itertools.product(range(16), repeat=2):
            values = evaluate_netlist(netlist, {"a": value_a, "b": value_b})
            assert bus_value(values, result) == (value_a - value_b) % 16


class TestFactoryAndHelpers:
    def test_factory_kinds(self):
        assert set(FINAL_ADDER_KINDS) == set(ADDERS)

    def test_unknown_kind_rejected(self):
        netlist = Netlist("t")
        a = netlist.add_input_bus("a", 2)
        with pytest.raises(NetlistError):
            build_final_adder(netlist, a.nets, a.nets, 2, kind="bogus")

    def test_normalize_operand_pads_and_truncates(self):
        netlist = Netlist("t")
        a = netlist.add_input_bus("a", 2)
        padded = normalize_operand(netlist, a.nets, 4)
        assert len(padded) == 4
        assert padded[2].is_constant and padded[3].is_constant
        truncated = normalize_operand(netlist, a.nets, 1)
        assert len(truncated) == 1

    def test_normalize_bad_width(self):
        netlist = Netlist("t")
        with pytest.raises(NetlistError):
            normalize_operand(netlist, [], 0)

    def test_and_or_chains(self):
        netlist = Netlist("t")
        a = netlist.add_input_bus("a", 3)
        and_net = and_chain(netlist, a.nets)
        or_net = or_chain(netlist, a.nets)
        netlist.set_output(and_net)
        netlist.set_output(or_net)
        values = evaluate_netlist(netlist, {"a": 0b111})
        assert values[and_net.name] == 1 and values[or_net.name] == 1
        values = evaluate_netlist(netlist, {"a": 0b011})
        assert values[and_net.name] == 0 and values[or_net.name] == 1
        with pytest.raises(NetlistError):
            and_chain(netlist, [])
        with pytest.raises(NetlistError):
            or_chain(netlist, [])

    def test_single_net_chain_is_identity(self):
        netlist = Netlist("t")
        a = netlist.add_input("a")
        assert and_chain(netlist, [a]) is a
        assert or_chain(netlist, [a]) is a

    @pytest.mark.parametrize("name", sorted(ADDERS))
    def test_adders_are_faster_or_equal_to_ripple_in_depth(self, name, library):
        """Structural sanity: no adder has a worse logic depth than ripple."""
        from repro.timing.arrival import compute_arrival_times

        def delay_of(builder):
            netlist = Netlist("adder")
            a = netlist.add_input_bus("a", 16)
            b = netlist.add_input_bus("b", 16)
            bus = builder(netlist, a.nets, b.nets, 16)
            netlist.set_output_bus(bus)
            return compute_arrival_times(netlist, library).delay

        assert delay_of(ADDERS[name]) <= delay_of(ADDERS["ripple"]) + 1e-9
