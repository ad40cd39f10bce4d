"""Tests for the functional simulator, the packed stimulus and toggle counting."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType
from repro.netlist.core import Bus, Netlist
from repro.sim.evaluator import bus_value, evaluate_netlist, set_bus_value
from repro.sim.toggles import empirical_switching
from repro.sim.stimulus import (
    exhaustive_words,
    packed_chunks,
    total_input_width,
    unpack_bus,
    weighted_words,
)


def _adder_bit():
    netlist = Netlist("bit")
    a = netlist.add_input_bus("a", 2)
    b = netlist.add_input_bus("b", 2)
    fa = netlist.add_cell(CellType.FA, {"a": a[0], "b": b[0], "cin": netlist.const(0)})
    netlist.set_output(fa.outputs["s"])
    return netlist, fa


class TestEvaluator:
    def test_bus_inputs_and_outputs(self):
        netlist, fa = _adder_bit()
        values = evaluate_netlist(netlist, {"a": 3, "b": 1})
        assert values["a[0]"] == 1 and values["a[1]"] == 1
        assert values[fa.outputs["s"].name] == 0
        assert values[fa.outputs["co"].name] == 1

    def test_negative_bus_value_wraps(self):
        netlist, _ = _adder_bit()
        values = evaluate_netlist(netlist, {"a": -1, "b": 0})
        assert values["a[0]"] == 1 and values["a[1]"] == 1

    def test_per_net_inputs(self):
        netlist, fa = _adder_bit()
        values = evaluate_netlist(netlist, {"a": 0, "b": 0, "a[0]": 1})
        assert values[fa.outputs["s"].name] == 1

    def test_missing_inputs_rejected(self):
        netlist, _ = _adder_bit()
        with pytest.raises(SimulationError):
            evaluate_netlist(netlist, {"a": 1})

    def test_unknown_input_rejected(self):
        netlist, _ = _adder_bit()
        with pytest.raises(SimulationError):
            evaluate_netlist(netlist, {"a": 1, "b": 0, "c": 1})

    def test_non_bit_value_rejected(self):
        netlist, _ = _adder_bit()
        with pytest.raises(SimulationError):
            evaluate_netlist(netlist, {"a": 1, "b": 0, "a[0]": 5})

    def test_bus_value_roundtrip(self):
        netlist = Netlist("bus")
        bus = netlist.add_input_bus("x", 5)
        values = {}
        set_bus_value(values, bus, 19)
        assert bus_value(values, bus) == 19
        set_bus_value(values, bus, -1)
        assert bus_value(values, bus) == 31

    def test_bus_value_missing_net(self):
        netlist = Netlist("bus")
        bus = netlist.add_input_bus("x", 2)
        with pytest.raises(SimulationError):
            bus_value({}, Bus("x", bus.nets))


class TestStimulus:
    def test_uniform_words_in_range(self):
        chunks = list(packed_chunks(["x[0]", "x[1]", "y[0]"], False, 20, seed=1))
        assert [count for _, count in chunks] == [20]
        words, _ = chunks[0]
        assert list(words) == ["x[0]", "x[1]", "y[0]"]
        assert all(0 <= word < 1 << 20 for word in words.values())

    def test_uniform_words_reproducible(self):
        names = [f"x[{i}]" for i in range(8)]
        assert list(packed_chunks(names, False, 5, seed=3)) == list(
            packed_chunks(names, False, 5, seed=3)
        )

    def test_uniform_words_are_one_draw_per_input_per_chunk(self):
        # pins the draw order every sampled equivalence vector depends on
        names = ["a", "b"]
        rng = random.Random(5)
        expected = [
            ({name: rng.getrandbits(count) for name in names}, count)
            for count in (1 << 13, 100)
        ]
        assert list(packed_chunks(names, False, (1 << 13) + 100, seed=5)) == expected

    def test_probability_weighted_words(self):
        words = weighted_words({"x": 1.0, "y": 0.0}, 10, seed=0)
        assert words == {"x": (1 << 10) - 1, "y": 0}

    def test_exhaustive_words(self):
        names = ["x[0]", "x[1]", "y[0]"]
        (words, count), = packed_chunks(names, True, 0, seed=0)
        assert count == 8
        assert unpack_bus([words[name] for name in names], count) == list(range(8))

    def test_exhaustive_chunk_carries_its_start(self):
        names = [f"i{k}" for k in range(5)]
        words = exhaustive_words(names, 16, 8)
        assert unpack_bus([words[name] for name in names], 8) == list(range(16, 24))

    def test_unpack_bus_is_lsb_first(self):
        assert unpack_bus([0b0110, 0b1100], 4) == [0, 1, 3, 2]
        assert unpack_bus([], 3) == [0, 0, 0]

    def test_total_input_width(self):
        signals = {"x": SignalSpec("x", 2), "y": SignalSpec("y", 3)}
        assert total_input_width(signals) == 5


class TestWeightedWords:
    COUNT = 4096

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probability_zero_and_one_are_constant_words(self, seed):
        words = weighted_words({"zero": 0.0, "one": 1.0}, self.COUNT, seed=seed)
        assert words == {"zero": 0, "one": (1 << self.COUNT) - 1}

    @pytest.mark.parametrize("p", [0.875, 0.25, 0.3, 0.01, 0.999])
    def test_mean_within_five_sigma(self, p):
        words = weighted_words({"x": p}, self.COUNT, seed=11)
        mean = bin(words["x"]).count("1") / self.COUNT
        sigma = math.sqrt(p * (1 - p) / self.COUNT)
        assert abs(mean - p) < 5 * sigma

    def test_half_is_one_uniform_draw(self):
        words = weighted_words({"x": 0.5}, 64, seed=4)
        assert words == {"x": random.Random(4).getrandbits(64)}

    def test_same_seed_same_words_other_seed_other_words(self):
        probabilities = {"a": 0.875, "b": 0.3, "c": 0.01}
        first = weighted_words(probabilities, self.COUNT, seed=8)
        assert weighted_words(probabilities, self.COUNT, seed=8) == first
        other = weighted_words(probabilities, self.COUNT, seed=9)
        assert all(other[name] != first[name] for name in probabilities)


class TestToggleCounting:
    def test_constant_input_never_toggles(self):
        netlist = Netlist("t")
        bus = netlist.add_input_bus("x", 1)
        inv = netlist.add_cell(CellType.NOT, {"a": bus[0]})
        netlist.set_output(inv.outputs["y"])
        signals = {"x": SignalSpec("x", 1, probability=1.0)}
        stats = empirical_switching(netlist, signals, vector_count=50, seed=2)
        assert stats.rate_of("x[0]") == 0.0
        assert stats.probability_of("x[0]") == 1.0
        assert stats.probability_of(inv.outputs["y"].name) == 0.0

    def test_toggle_rate_approximates_2p_1_minus_p(self):
        netlist = Netlist("t")
        bus = netlist.add_input_bus("x", 1)
        buf = netlist.add_cell(CellType.BUF, {"a": bus[0]})
        netlist.set_output(buf.outputs["y"])
        signals = {"x": SignalSpec("x", 1, probability=0.5)}
        stats = empirical_switching(netlist, signals, vector_count=800, seed=4)
        assert stats.vectors_simulated == 800
        assert stats.rate_of(buf.outputs["y"].name) == pytest.approx(0.5, abs=0.1)

    def test_primary_inputs_follow_their_spec_probabilities(self):
        from repro.api import Flow, FlowConfig
        from repro.designs.registry import get_design, with_random_probabilities

        count = 4096
        design = with_random_probabilities(get_design("serial_adapter"), seed=2000)
        netlist = Flow(FlowConfig(method="fa_alp")).run(design).netlist
        stats = empirical_switching(netlist, design.signals, count, seed=9)
        for name, spec in design.signals.items():
            for index, net in enumerate(netlist.input_buses[name].nets):
                p = spec.probability_of(index)
                bound = 5 * math.sqrt(p * (1 - p) / count) + 2.0 ** -16
                assert abs(stats.probability_of(net.name) - p) < bound, net.name

