"""Determinism of every stochastic path: explicit seeds, identical replays.

The packed stimulus generators of ``repro.sim.stimulus`` deliberately have
**no default seed**: each stochastic consumer (equivalence sampling,
empirical switching, the fuzzer) must name its seed, and these tests pin the
resulting replayability end to end.
"""

import pytest

from repro.api.config import FlowConfig
from repro.api.flow import Flow
from repro.designs.registry import get_design
from repro.sim.equivalence import check_equivalence
from repro.sim.stimulus import packed_chunks, weighted_words
from repro.sim.toggles import empirical_switching


@pytest.fixture(scope="module")
def big_flow():
    """A design too wide for exhaustive checking (forces random sampling)."""
    design = get_design("iir")
    result = Flow(FlowConfig(analyses=("stats",))).run(design)
    return design, result


def _input_probabilities(design):
    """Per input-bus net, its bit's probability (net names are ``x[i]``)."""
    return {
        f"{name}[{i}]": spec.probability_of(i)
        for name, spec in design.signals.items()
        for i in range(spec.width)
    }


def _input_names(design):
    return list(_input_probabilities(design))


class TestStimulusSeeds:
    def test_seed_is_mandatory(self, x2_design):
        probabilities = _input_probabilities(x2_design)
        with pytest.raises(TypeError):
            weighted_words(probabilities, 4)  # noqa: seed intentionally missing
        with pytest.raises(TypeError):
            packed_chunks(list(probabilities), False, 4)  # noqa: seed missing

    def test_same_seed_same_stream(self, x2_design):
        names = _input_names(x2_design)
        a = list(packed_chunks(names, False, 16, seed=9))
        b = list(packed_chunks(names, False, 16, seed=9))
        assert a == b

    def test_probability_respecting_stream_is_seeded_too(self, small_design):
        probabilities = _input_probabilities(small_design)
        a = weighted_words(probabilities, 32, seed=3)
        b = weighted_words(probabilities, 32, seed=3)
        assert a == b


class TestEquivalenceSampling:
    def test_random_sampled_check_replays_identically(self, big_flow):
        design, result = big_flow
        reports = [
            check_equivalence(
                result.netlist,
                result.output_bus,
                design.expression,
                design.signals,
                output_width=result.output_width,
                seed=42,
            )
            for _ in range(2)
        ]
        assert not reports[0].exhaustive  # iir is wide: sampling path
        assert reports[0] == reports[1]

    def test_different_seeds_sample_different_vectors(self, big_flow):
        design, _ = big_flow
        names = _input_names(design)
        assert list(packed_chunks(names, False, 8, seed=1)) != list(
            packed_chunks(names, False, 8, seed=2)
        )


class TestEmpiricalSwitching:
    def test_same_seed_identical_statistics(self, big_flow):
        design, result = big_flow
        a = empirical_switching(result.netlist, design.signals, 64, seed=5)
        b = empirical_switching(result.netlist, design.signals, 64, seed=5)
        assert a.toggle_rate == b.toggle_rate
        assert a.one_probability == b.one_probability

    def test_different_seed_differs(self, big_flow):
        design, result = big_flow
        a = empirical_switching(result.netlist, design.signals, 64, seed=5)
        b = empirical_switching(result.netlist, design.signals, 64, seed=6)
        assert a.toggle_rate != b.toggle_rate


class TestFuzzerDeterminism:
    def test_whole_fuzz_run_replays_identically(self):
        from repro.verify import run_fuzz, sample_points

        points = sample_points(3, seed=7, designs=("x2", "x2_plus_x_plus_y"))
        a, _ = run_fuzz(points)
        b, _ = run_fuzz(points)
        strip = lambda records: [
            {k: v for k, v in r.items() if k != "elapsed_s"} for r in records
        ]
        assert strip(a) == strip(b)

    def test_random_probability_protocol_is_seeded(self):
        config = FlowConfig(random_probabilities=True, seed=123, analyses=("power",))
        a = Flow(config).run("x2")
        b = Flow(config).run("x2")
        assert a.total_energy == b.total_energy


class TestPlacementDeterminism:
    def test_same_seed_byte_identical_placement_and_report(self):
        import json

        config = FlowConfig(analyses=("stats",), place=True)
        a = Flow(config).run("x2")
        b = Flow(config).run("x2")
        place_a = a.stage_artifacts["place"]
        place_b = b.stage_artifacts["place"]
        dump = lambda obj: json.dumps(obj, sort_keys=True)
        assert dump(place_a.placement.to_dict()) == dump(place_b.placement.to_dict())
        assert dump(a.place_report.to_dict()) == dump(b.place_report.to_dict())
        assert place_a.net_delays == place_b.net_delays

    def test_different_place_seed_different_placement(self):
        base = FlowConfig(analyses=("stats",), place=True)
        a = Flow(base).run("x2")
        from dataclasses import replace

        b = Flow(replace(base, place_seed=2)).run("x2")
        assert (
            a.stage_artifacts["place"].placement.to_dict()
            != b.stage_artifacts["place"].placement.to_dict()
        )

    def test_parallel_sweep_matches_serial(self):
        import json

        from repro.explore.engine import run_sweep
        from repro.explore.spec import SweepSpec

        spec = SweepSpec(
            designs=("x2", "x2_plus_x_plus_y"),
            methods=("fa_aot",),
            place_options=(True,),
            analyses=("stats",),
        )
        points = spec.expand()
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        dump = lambda sweep: json.dumps(
            [outcome.metrics for outcome in sweep.outcomes], sort_keys=True
        )
        assert dump(serial) == dump(parallel)
