"""Tests for the batched, bit-parallel netlist evaluator."""

import pytest

from repro.designs.registry import get_design
from repro.errors import SimulationError
from repro.api import Flow, FlowConfig
from repro.sim.evaluator import bus_value, evaluate_netlist, evaluate_vectors
from repro.sim.vectors import exhaustive_vectors, random_vectors


def _output_values_per_vector(result, vectors):
    return [
        bus_value(evaluate_netlist(result.netlist, vector), result.output_bus)
        for vector in vectors
    ]


class TestEvaluateVectors:
    @pytest.mark.parametrize("method", ["fa_aot", "wallace", "conventional"])
    def test_bit_exact_vs_per_vector_random(self, method):
        design = get_design("x2_plus_x_plus_y")
        result = Flow(FlowConfig(method=method)).run(design)
        vectors = random_vectors(design.signals, 96, seed=11)
        batch = evaluate_vectors(result.netlist, vectors)
        assert batch.count == 96
        assert batch.bus_values(result.output_bus) == _output_values_per_vector(
            result, vectors
        )

    def test_bit_exact_exhaustive(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="dadda")).run(design)
        vectors = list(exhaustive_vectors(design.signals))
        batch = evaluate_vectors(result.netlist, vectors)
        assert batch.bus_values(result.output_bus) == _output_values_per_vector(
            result, vectors
        )

    def test_every_net_matches_per_vector(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        vectors = random_vectors(design.signals, 17, seed=3)
        batch = evaluate_vectors(result.netlist, vectors)
        for k, vector in enumerate(vectors):
            reference = evaluate_netlist(result.netlist, vector)
            for name, value in reference.items():
                assert (batch.values[name] >> k) & 1 == value, name

    def test_empty_batch(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        batch = evaluate_vectors(result.netlist, [])
        assert batch.count == 0
        assert batch.bus_values(result.output_bus) == []

    def test_unknown_input_rejected(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        with pytest.raises(SimulationError):
            evaluate_vectors(result.netlist, [{"bogus": 1}])

    def test_missing_inputs_rejected(self):
        design = get_design("x2_plus_x_plus_y")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        with pytest.raises(SimulationError):
            evaluate_vectors(result.netlist, [{"x": 1}])  # 'y' missing

    def test_partially_assigned_vector_rejected(self):
        # an input present in some vectors but absent in others must raise,
        # matching the per-vector reference behaviour (not silently read 0)
        design = get_design("x2_plus_x_plus_y")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        with pytest.raises(SimulationError):
            evaluate_vectors(result.netlist, [{"x": 1, "y": 1}, {"x": 1}])

    def test_net_values_accessor(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        vectors = random_vectors(design.signals, 5, seed=1)
        batch = evaluate_vectors(result.netlist, vectors)
        net = result.output_bus.nets[0]
        per_vector = [
            evaluate_netlist(result.netlist, vector)[net.name] for vector in vectors
        ]
        assert batch.net_values(net.name) == per_vector
        with pytest.raises(SimulationError):
            batch.net_values("no_such_net")

    def test_oversized_bus_value_rejected(self):
        # regression: values wider than the bus used to be silently
        # truncated during packing, simulating a different stimulus than
        # the caller asked for
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        width = result.netlist.input_buses["x"].width
        with pytest.raises(SimulationError, match="does not fit"):
            evaluate_vectors(result.netlist, [{"x": 1 << width}])
        with pytest.raises(SimulationError, match="does not fit"):
            evaluate_netlist(result.netlist, {"x": 1 << width})

    def test_negative_bus_value_wraps_not_rejected(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        width = result.netlist.input_buses["x"].width
        batch = evaluate_vectors(result.netlist, [{"x": -1}])
        reference = evaluate_netlist(result.netlist, {"x": (1 << width) - 1})
        assert batch.bus_values(result.output_bus) == [
            bus_value(reference, result.output_bus)
        ]

    def test_faster_than_per_vector_at_64(self):
        # the acceptance bar: measurably faster at >= 64 vectors; use a
        # conservative 2x margin so the test is robust on loaded machines
        # (observed speedups are an order of magnitude or more)
        import time

        design = get_design("iir")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        vectors = random_vectors(design.signals, 64, seed=9)

        start = time.perf_counter()
        expected = _output_values_per_vector(result, vectors)
        per_vector_time = time.perf_counter() - start

        start = time.perf_counter()
        produced = evaluate_vectors(result.netlist, vectors).bus_values(
            result.output_bus
        )
        batched_time = time.perf_counter() - start

        assert produced == expected
        assert batched_time < per_vector_time / 2
