"""Tests for the netlist JSON round-trip (`repro.netlist.serialize`)."""

import json

import pytest

from repro.errors import NetlistError
from repro.api import Flow, FlowConfig
from repro.netlist.serialize import netlist_from_dict, netlist_to_dict
from repro.netlist.validate import validate_netlist
from repro.sim.equivalence import check_netlists_equivalent
from repro.sim.evaluator import bus_value, evaluate_netlist


class TestRoundTrip:
    def test_dict_round_trip_is_stable(self, small_design):
        netlist = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist
        snapshot = netlist.to_dict()
        rebuilt = netlist_from_dict(snapshot)
        assert netlist_to_dict(rebuilt) == snapshot

    def test_snapshot_is_json_serializable(self, small_design):
        netlist = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist
        text = json.dumps(netlist.to_dict())
        rebuilt = netlist_from_dict(json.loads(text))
        assert rebuilt.num_cells() == netlist.num_cells()

    def test_rebuilt_netlist_is_valid_and_equivalent(self, small_design):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        rebuilt = netlist_from_dict(result.netlist.to_dict())
        validate_netlist(rebuilt)
        check_netlists_equivalent(result.netlist, rebuilt).assert_ok()

    def test_buses_and_interface_survive(self, small_design):
        netlist = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist
        rebuilt = netlist_from_dict(netlist.to_dict())
        assert set(rebuilt.input_buses) == set(netlist.input_buses)
        assert set(rebuilt.output_buses) == set(netlist.output_buses)
        assert [n.name for n in rebuilt.primary_inputs] == [
            n.name for n in netlist.primary_inputs
        ]
        assert [n.name for n in rebuilt.primary_outputs] == [
            n.name for n in netlist.primary_outputs
        ]

    def test_copy_evaluates_identically(self, small_design):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        duplicate = result.netlist.copy(name="dup")
        assert duplicate.name == "dup"
        inputs = {"x": 5, "y": 9}
        original = bus_value(
            evaluate_netlist(result.netlist, inputs), result.output_bus
        )
        bus = duplicate.output_buses[result.output_bus.name]
        assert bus_value(evaluate_netlist(duplicate, inputs), bus) == original

    def test_copy_is_independent(self, small_design):
        netlist = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist
        duplicate = netlist.copy()
        cells_before = netlist.num_cells()
        cell = next(iter(duplicate.cells.values()))
        for net in cell.outputs.values():
            duplicate.replace_net_uses(net, duplicate.const(0))
        assert netlist.num_cells() == cells_before


class TestErrors:
    def test_wrong_schema_rejected(self):
        with pytest.raises(NetlistError):
            netlist_from_dict({"schema": "something-else", "schema_version": 1})

    def test_wrong_version_rejected(self, small_design):
        snapshot = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist.to_dict()
        snapshot["schema_version"] = 999
        with pytest.raises(NetlistError):
            netlist_from_dict(snapshot)

    def test_unknown_net_reference_rejected(self, small_design):
        snapshot = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist.to_dict()
        snapshot["outputs"] = ["no_such_net"]
        with pytest.raises(NetlistError):
            netlist_from_dict(snapshot)


class TestAttributesSurvive:
    def test_timing_and_power_identical_after_round_trip(self, small_design, library):
        from repro.power.probability import propagate_probabilities
        from repro.timing.arrival import compute_arrival_times

        netlist = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist
        rebuilt = netlist_from_dict(netlist.to_dict())
        assert compute_arrival_times(rebuilt, library).delay == pytest.approx(
            compute_arrival_times(netlist, library).delay
        )
        original_probs = propagate_probabilities(netlist).probabilities
        rebuilt_probs = propagate_probabilities(rebuilt).probabilities
        assert rebuilt_probs == original_probs
