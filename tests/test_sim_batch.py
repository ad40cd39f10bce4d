"""The packed path — stimulus words replayed by the compiled program —
against the one-vector reference oracle ``evaluate_netlist``."""

import pytest

from repro.designs.registry import get_design
from repro.errors import SimulationError
from repro.api import Flow, FlowConfig
from repro.expr.signals import SignalSpec
from repro.sim.equivalence import check_equivalence
from repro.sim.evaluator import bus_value, evaluate_netlist
from repro.sim.program import cached_program
from repro.sim.stimulus import packed_chunks, unpack_bus
from repro.sim.toggles import empirical_switching


def _stimulus(netlist, exhaustive, count, seed):
    """The one chunk of packed words over the netlist's primary inputs."""
    names = [net.name for net in netlist.primary_inputs]
    (chunk,) = packed_chunks(names, exhaustive, count, seed)
    return chunk


def _vector(words, k):
    """Vector ``k`` of a packed batch, as per-net bits for ``evaluate_netlist``."""
    return {name: (word >> k) & 1 for name, word in words.items()}


def _packed_outputs(result, words, count):
    program = cached_program(result.netlist)
    slots = program.run_packed(words, (1 << count) - 1)
    nets = result.output_bus.nets
    return unpack_bus([slots[program.slot_of[net.name]] for net in nets], count)


def _reference_outputs(result, words, count):
    return [
        bus_value(evaluate_netlist(result.netlist, _vector(words, k)), result.output_bus)
        for k in range(count)
    ]


class TestPackedReplay:
    @pytest.mark.parametrize("method", ["fa_aot", "wallace", "conventional"])
    def test_bit_exact_vs_per_vector_random(self, method):
        design = get_design("x2_plus_x_plus_y")
        result = Flow(FlowConfig(method=method)).run(design)
        words, count = _stimulus(result.netlist, False, 96, seed=11)
        assert count == 96
        assert _packed_outputs(result, words, count) == _reference_outputs(
            result, words, count
        )

    def test_bit_exact_exhaustive(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="dadda")).run(design)
        words, count = _stimulus(result.netlist, True, 0, seed=0)
        assert count == 1 << len(result.netlist.primary_inputs)
        assert _packed_outputs(result, words, count) == _reference_outputs(
            result, words, count
        )

    def test_every_net_matches_per_vector(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        words, count = _stimulus(result.netlist, False, 17, seed=3)
        program = cached_program(result.netlist)
        slots = program.run_packed(words, (1 << count) - 1)
        for k in range(count):
            reference = evaluate_netlist(result.netlist, _vector(words, k))
            assert reference.keys() == program.slot_of.keys()
            for name, value in reference.items():
                assert (slots[program.slot_of[name]] >> k) & 1 == value, name

    def test_empty_batch(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        names = [net.name for net in result.netlist.primary_inputs]
        assert list(packed_chunks(names, False, 0, seed=1)) == []
        assert _packed_outputs(result, dict.fromkeys(names, 0), 0) == []
        stats = empirical_switching(result.netlist, design.signals, 0, seed=1)
        assert stats.vectors_simulated == 0
        assert set(stats.one_probability.values()) == {0.0}
        assert set(stats.toggle_rate.values()) == {0.0}

    def test_faster_than_per_vector_at_64(self):
        # the acceptance bar: measurably faster at >= 64 vectors; use a
        # conservative 2x margin so the test is robust on loaded machines
        # (observed speedups are an order of magnitude or more).  The program
        # is compiled before timing, and each side is timed as the best of
        # five runs, so one stall on a busy host cannot decide the outcome.
        import time

        design = get_design("iir")
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        words, count = _stimulus(result.netlist, False, 64, seed=9)
        cached_program(result.netlist)

        def best_of_5(run):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                outputs = run()
                times.append(time.perf_counter() - start)
            return outputs, min(times)

        expected, per_vector_time = best_of_5(
            lambda: _reference_outputs(result, words, count)
        )
        produced, packed_time = best_of_5(lambda: _packed_outputs(result, words, count))

        assert produced == expected
        assert packed_time < per_vector_time / 2


#: the two packed drivers that take operand signals: ``(design, flow result,
#: signals)`` -> run it
DRIVERS = {
    "empirical_switching": lambda design, result, signals: empirical_switching(
        result.netlist, signals, 8, seed=1
    ),
    "check_equivalence": lambda design, result, signals: check_equivalence(
        result.netlist, result.output_bus, design.expression, signals
    ),
}


class TestInputErrors:
    """Both packed drivers reject a stimulus that does not fit the netlist."""

    @pytest.fixture(scope="class")
    def flow(self):
        design = get_design("x2_plus_x_plus_y")
        return design, Flow(FlowConfig(method="fa_aot")).run(design)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_unknown_signal_rejected(self, flow, driver):
        design, result = flow
        signals = {**design.signals, "bogus": SignalSpec("bogus", 1)}
        with pytest.raises(SimulationError, match="unknown input 'bogus'"):
            DRIVERS[driver](design, result, signals)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_uncovered_primary_input_rejected(self, flow, driver):
        design, result = flow
        signals = {"x": design.signals["x"]}  # no signal drives 'y'
        with pytest.raises(SimulationError, match="missing values"):
            DRIVERS[driver](design, result, signals)

    def test_signal_wider_than_its_bus_rejected(self, flow):
        design, result = flow
        width = result.netlist.input_buses["x"].width
        signals = {**design.signals, "x": SignalSpec("x", width + 1)}
        with pytest.raises(SimulationError, match="bits wide"):
            empirical_switching(result.netlist, signals, 8, seed=1)

    def test_oversized_bus_value_rejected_by_the_oracle(self, flow):
        # regression: values wider than the bus used to be silently
        # truncated, simulating a different stimulus than the caller asked for
        _, result = flow
        width = result.netlist.input_buses["x"].width
        with pytest.raises(SimulationError, match="does not fit"):
            evaluate_netlist(result.netlist, {"x": 1 << width, "y": 0})
