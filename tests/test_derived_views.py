"""Tests for the generation-keyed derived-view memo and the work it saves.

Every memoized view of a :class:`Netlist` — topological order, sim program,
structural stats and area, full STA, the placement pin table — is keyed on
the netlist's generation plus whatever else its result depends on.  These
tests pin the keys (a changed input is never served a stale view), the
sharing (shared views are never mutated by their consumers) and the work
one backend flow does.
"""

from __future__ import annotations

from types import MappingProxyType

import pytest

from repro import obs
from repro.api import Flow, FlowConfig
from repro.designs.registry import get_design
from repro.flows.synthesis import synthesize
from repro.netlist import stats as netlist_stats_module
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.netlist.stats import logic_depth, netlist_stats
from repro.opt.equivalence import check_netlists_equivalent, equivalence_reference
from repro.place import placer as place_placer
from repro.place import runner as place_runner
from repro.place import validate as place_validate
from repro.sim.program import cached_program
from repro.tech.default_libs import generic_035, unit_library
from repro.timing import arrival as timing_arrival
from repro.timing.arrival import compute_arrival_times


def _x2_netlist() -> Netlist:
    return synthesize(get_design("x2"), method="fa_aot").netlist


def _backend_flow(**kwargs):
    config = FlowConfig(opt_level=2, target_lib="aoi_rich", place=True, **kwargs)
    return Flow(config).run("iir")


class TestBackendFlowWork:
    def test_one_placed_flow_compiles_three_programs_and_copies_nothing(
        self, monkeypatch
    ):
        copies, pin_tables, validations = [], [], []
        original_copy = Netlist.copy

        def counting_copy(self, *args, **kwargs):
            copies.append(self.name)
            return original_copy(self, *args, **kwargs)

        def counting(log, fn):
            def wrapper(*args, **kwargs):
                log.append(1)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Netlist, "copy", counting_copy)
        monkeypatch.setattr(
            place_placer,
            "_build_pin_table",
            counting(pin_tables, place_placer._build_pin_table),
        )
        for module in (place_runner, place_validate):
            monkeypatch.setattr(
                module,
                "validate_placement",
                counting(validations, module.validate_placement),
            )
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            result = _backend_flow()
        # opt's reference and result, then the mapped netlist; map's
        # reference is the program opt compiled for its result
        assert tracer.counters["sim.program_compiles"] == 3
        assert tracer.counters["sim.program_cache_hits"] >= 1
        assert copies == []
        assert pin_tables == [1] and validations == [1]
        assert result.place_report.validation_findings == 0

    def test_stages_share_sta_and_stats_views(self, monkeypatch):
        sweeps, structures = [], []
        finalize, depth = timing_arrival._finalize, netlist_stats_module.logic_depth

        def counting_finalize(netlist, arrivals):
            sweeps.append(1)
            return finalize(netlist, arrivals)

        def counting_depth(netlist):
            structures.append(1)
            return depth(netlist)

        monkeypatch.setattr(timing_arrival, "_finalize", counting_finalize)
        monkeypatch.setattr(netlist_stats_module, "logic_depth", counting_depth)
        result = _backend_flow()
        # STA: map before and after, place after wires (place's pre-place
        # delay is map's after, analyze's timing is place's after); stats:
        # before opt, after opt (= before map), after map (= analyze's)
        assert len(sweeps) == 3 and len(structures) == 3
        place = result.stage_artifacts["place"]
        assert isinstance(place.net_delays, MappingProxyType)
        library = result.stage_artifacts["map"].library
        post = compute_arrival_times(
            result.netlist, library, net_delays=place.net_delays
        )
        assert result.timing is post
        assert result.map_report.before == result.opt_report.after


class TestSharedViewsStayUnmutated:
    def test_memoized_timing_matches_a_fresh_sweep_after_the_flow(self):
        result = _backend_flow()
        place = result.stage_artifacts["place"]
        library = result.stage_artifacts["map"].library
        # a plain-dict net-delay map is never memoized: this is a new sweep
        fresh = compute_arrival_times(
            result.netlist, library, net_delays=dict(place.net_delays)
        )
        assert fresh is not result.timing
        assert fresh.arrivals == result.timing.arrivals
        assert fresh.delay == result.timing.delay

    def test_stats_handed_to_two_reports_are_separate_objects(self):
        result = _backend_flow()
        after, stats = result.map_report.after, result.stats
        assert after == stats and after is not stats
        assert after.cell_counts is not stats.cell_counts
        stats.cell_counts["NAND2"] += 1000
        assert netlist_stats(result.netlist).cell_counts == after.cell_counts


class TestMemoKeys:
    def test_structural_views_are_replaced_after_a_mutation(self):
        netlist = _x2_netlist()
        order = netlist.topological_cells()
        assert netlist.topological_cells() is order
        program = cached_program(netlist)
        cell = order[-1]
        netlist.rebind_input(cell, next(iter(cell.inputs)), netlist.const(0))
        assert cached_program(netlist) is not program
        assert netlist.topological_cells() is not order

    def test_sta_is_keyed_on_the_library(self):
        netlist = _x2_netlist()
        generic, unit = generic_035(), unit_library()
        first = compute_arrival_times(netlist, generic)
        assert compute_arrival_times(netlist, generic) is first
        other = compute_arrival_times(netlist, unit)
        assert other is not first and other.delay != first.delay
        assert compute_arrival_times(netlist, unit) is other

    def test_only_read_only_net_delay_maps_are_memoized(self):
        netlist = _x2_netlist()
        library = generic_035()
        base = compute_arrival_times(netlist, library)
        worst = base.worst_output_net
        delays = {}
        plain = compute_arrival_times(netlist, library, net_delays=delays)
        delays[worst] = 1.0
        changed = compute_arrival_times(netlist, library, net_delays=delays)
        assert changed is not plain
        assert changed.delay == pytest.approx(base.delay + 1.0)
        frozen = MappingProxyType({worst: 2.0})
        wired = compute_arrival_times(netlist, library, net_delays=frozen)
        assert compute_arrival_times(netlist, library, net_delays=frozen) is wired
        assert wired.delay == pytest.approx(base.delay + 2.0)

    def test_non_default_arrival_sources_bypass_the_memo(self):
        netlist = _x2_netlist()
        library = generic_035()
        base = compute_arrival_times(netlist, library)
        pi = netlist.primary_inputs[0].name
        late = compute_arrival_times(netlist, library, input_arrivals={pi: 50.0})
        assert late.delay > base.delay
        shifted = compute_arrival_times(netlist, library, default_input_arrival=1.0)
        assert shifted is not base
        bare = compute_arrival_times(netlist, library, use_net_attributes=False)
        assert bare is not base
        assert compute_arrival_times(netlist, library) is base

    def test_annotations_bump_the_generation_and_refresh_sta(self):
        netlist = _x2_netlist()
        library = generic_035()
        before = compute_arrival_times(netlist, library)
        generation = netlist.generation
        netlist.annotate(netlist.primary_inputs[0], arrival=100.0)
        assert netlist.generation > generation
        after = compute_arrival_times(netlist, library)
        assert after is not before and after.delay > 100.0

    def test_reducers_annotate_through_the_netlist(self, monkeypatch):
        annotated = set()
        original = Netlist.annotate

        def recording(self, net, **attributes):
            annotated.add(net.name)
            return original(self, net, **attributes)

        monkeypatch.setattr(Netlist, "annotate", recording)
        netlist = _x2_netlist()
        adders = [
            cell for cell in netlist.cells.values()
            if cell.cell_type in (CellType.FA, CellType.HA)
        ]
        assert adders
        for cell in adders:
            assert {net.name for net in cell.outputs.values()} <= annotated
        assert {net.name for net in netlist.primary_inputs} <= annotated

    def test_area_is_keyed_on_the_library(self):
        netlist = _x2_netlist()
        generic, unit = generic_035(), unit_library()
        for library in (generic, unit, generic):
            expected = 0.0
            for cell in netlist.cells.values():
                expected += library.area(cell.cell_type)
            assert netlist_stats(netlist, library).area == expected
        assert netlist_stats(netlist).area is None
        assert netlist_stats(netlist).logic_depth == logic_depth(netlist)


class TestEquivalenceReference:
    def test_snapshot_keeps_describing_the_netlist_before_a_rewrite(self):
        netlist = _x2_netlist()
        pristine = _x2_netlist()
        reference = equivalence_reference(netlist)
        assert reference.program is cached_program(netlist)
        assert check_netlists_equivalent(reference, netlist).equivalent
        output = netlist.primary_outputs[-1]
        cell = output.driver[0]
        netlist.rebind_input(cell, next(iter(cell.inputs)), netlist.const(1))
        assert not check_netlists_equivalent(reference, netlist).equivalent
        assert check_netlists_equivalent(reference, pristine).equivalent
        assert not check_netlists_equivalent(pristine, netlist).equivalent


class TestPinTable:
    def test_table_matches_the_netlist_connectivity(self):
        result = Flow(FlowConfig(place=True, analyses=("timing",))).run("x2")
        netlist = result.netlist
        table = place_placer.pin_table(netlist)
        assert place_placer.pin_table(netlist) is table
        assert list(table.cells) == sorted(netlist.cells)
        pins = {}
        for cell in netlist.cells.values():
            for net in list(cell.inputs.values()) + list(cell.outputs.values()):
                pins.setdefault(net.name, []).append(cell.name)
        multi = [name for name, cells in pins.items() if len(cells) >= 2]
        assert list(table.net_names) == multi
        for k, (name, net_pins) in enumerate(zip(table.net_names, table.net_pins)):
            assert [table.cells[i] for i, _, _ in net_pins] == pins[name]
            for i, _, _ in net_pins:
                assert k in table.cell_nets[i]
        for nets in table.cell_nets:
            assert list(nets) == sorted(set(nets))
