"""The physical-design subsystem: fabric, placer, wires, CTS, validation.

Covers the ``repro.place`` package end to end — fabric sizing and
footprints, the greedy seed placement, the annealer's invariants, the
structural validator against hand-corrupted placements, wire-aware timing,
the H-tree clock builder — plus the flow integration: the ``place`` stage,
the config knobs (validation, canonicalization, cache identity, sweep
labels) and the ``PlaceReport`` record shape.
"""

from __future__ import annotations

import pytest

from repro.api.config import FlowConfig
from repro.api.flow import Flow
from repro.errors import ConfigError, PlaceError
from repro.explore.spec import SweepPoint
from repro.netlist.cells import CellType
from repro.place import (
    CLOCK_BUFFER_DELAY_NS,
    FabricGrid,
    Placement,
    anneal,
    auto_size,
    build_clock_tree,
    check_placement,
    footprint,
    greedy_initial_placement,
    pin_offsets,
    place_netlist,
    site_demand,
    total_hpwl,
    validate_placement,
    wire_delays,
)
from repro.timing.arrival import compute_arrival_times


@pytest.fixture(scope="module")
def x2_netlist(library):
    result = Flow(FlowConfig(analyses=("stats",))).run("x2")
    return result.netlist


@pytest.fixture(scope="module")
def placed_x2(library):
    result = Flow(FlowConfig(analyses=("stats",))).run("x2")
    return result.netlist, place_netlist(result.netlist, library=library)


class TestFabric:
    def test_every_cell_type_has_a_footprint(self):
        for cell_type in CellType:
            assert footprint(cell_type) >= 1

    def test_fa_is_the_widest_cell(self):
        assert footprint(CellType.FA) == max(footprint(t) for t in CellType)

    def test_pin_offsets_inputs_bottom_outputs_top(self):
        offsets = pin_offsets(CellType.FA)
        assert offsets["s"][1] == 1.0 and offsets["co"][1] == 1.0
        for port in ("a", "b", "cin"):
            assert offsets[port][1] == 0.0
        # inputs spread across the footprint, in port order
        xs = [offsets[p][0] for p in ("a", "b", "cin")]
        assert xs == sorted(xs) and len(set(xs)) == 3

    def test_grid_rejects_degenerate_shapes(self):
        with pytest.raises(PlaceError):
            FabricGrid(rows=0, cols=4)
        with pytest.raises(PlaceError):
            FabricGrid(rows=4, cols=-1)

    def test_auto_size_fits_demand_at_target_utilization(self, x2_netlist):
        fabric = auto_size(x2_netlist)
        demand = site_demand(x2_netlist)
        assert fabric.capacity >= demand / 0.6
        assert fabric.cols >= max(footprint(t) for t in CellType)

    def test_auto_size_rejects_bogus_utilization(self, x2_netlist):
        with pytest.raises(PlaceError):
            auto_size(x2_netlist, utilization=0.0)
        with pytest.raises(PlaceError):
            auto_size(x2_netlist, utilization=1.5)


class TestPlacer:
    def test_greedy_seed_is_valid(self, x2_netlist):
        placement = greedy_initial_placement(x2_netlist, auto_size(x2_netlist))
        assert validate_placement(x2_netlist, placement) == []
        assert len(placement.origins) == x2_netlist.num_cells()

    def test_too_small_fabric_raises_typed_error(self, x2_netlist):
        with pytest.raises(PlaceError, match="too small"):
            greedy_initial_placement(x2_netlist, FabricGrid(rows=2, cols=4))

    def test_anneal_never_worse_than_seed_and_stays_valid(self, x2_netlist):
        fabric = auto_size(x2_netlist)
        placement = greedy_initial_placement(x2_netlist, fabric)
        before = total_hpwl(x2_netlist, placement)
        stats = anneal(x2_netlist, placement, seed=1, iters=1500)
        assert validate_placement(x2_netlist, placement) == []
        assert stats.final_hpwl <= before
        assert stats.final_hpwl == pytest.approx(total_hpwl(x2_netlist, placement))
        assert stats.moves == 1500
        assert 0 < stats.accepted <= stats.moves

    def test_zero_iterations_returns_the_seed(self, x2_netlist):
        fabric = auto_size(x2_netlist)
        placement = greedy_initial_placement(x2_netlist, fabric)
        seed_origins = dict(placement.origins)
        stats = anneal(x2_netlist, placement, seed=1, iters=0)
        assert placement.origins == seed_origins
        assert stats.moves == 0 and stats.accepted == 0

    @pytest.mark.parametrize("seed", [16, 20, 25])
    def test_sliding_a_cell_along_its_row_keeps_its_sites(self, x2_netlist, seed):
        # a relocation overlapping the cell's own old span used to free a
        # site the cell still covered; a later move then stacked another
        # cell on it and the placement failed validation (these seeds)
        placement = greedy_initial_placement(x2_netlist, auto_size(x2_netlist))
        anneal(x2_netlist, placement, seed=seed, iters=2000)
        assert validate_placement(x2_netlist, placement) == []

    def test_incremental_cost_matches_full_recompute(self, x2_netlist):
        # the annealer prices moves incrementally; the invariant is that its
        # running total agrees with a from-scratch HPWL sum at the end
        fabric = auto_size(x2_netlist)
        for seed in (1, 2, 3):
            placement = greedy_initial_placement(x2_netlist, fabric)
            stats = anneal(x2_netlist, placement, seed=seed, iters=400)
            assert stats.final_hpwl == pytest.approx(
                total_hpwl(x2_netlist, placement)
            )


class TestValidator:
    def _placed(self, netlist):
        return greedy_initial_placement(netlist, auto_size(netlist))

    def test_unplaced_cell_is_caught(self, x2_netlist):
        placement = self._placed(x2_netlist)
        origins = dict(placement.origins)
        victim = sorted(origins)[0]
        del origins[victim]
        broken = Placement(fabric=placement.fabric, origins=origins)
        findings = validate_placement(x2_netlist, broken)
        assert any(victim in f and "not placed" in f for f in findings)

    def test_overlap_is_caught(self, x2_netlist):
        placement = self._placed(x2_netlist)
        origins = dict(placement.origins)
        a, b = sorted(origins)[:2]
        origins[b] = origins[a]
        broken = Placement(fabric=placement.fabric, origins=origins)
        assert any("overlap" in f for f in validate_placement(x2_netlist, broken))

    def test_out_of_bounds_is_caught(self, x2_netlist):
        placement = self._placed(x2_netlist)
        origins = dict(placement.origins)
        victim = sorted(origins)[0]
        origins[victim] = (placement.fabric.rows + 3, 0)
        broken = Placement(fabric=placement.fabric, origins=origins)
        assert any("exceeds" in f for f in validate_placement(x2_netlist, broken))

    def test_unknown_cell_is_caught(self, x2_netlist):
        placement = self._placed(x2_netlist)
        origins = dict(placement.origins)
        origins["ghost_cell"] = (0, 0)
        broken = Placement(fabric=placement.fabric, origins=origins)
        assert any("ghost_cell" in f for f in validate_placement(x2_netlist, broken))

    def test_check_placement_raises_with_finding_count(self, x2_netlist):
        placement = self._placed(x2_netlist)
        origins = dict(placement.origins)
        del origins[sorted(origins)[0]]
        broken = Placement(fabric=placement.fabric, origins=origins)
        with pytest.raises(PlaceError, match="1 finding"):
            check_placement(x2_netlist, broken)


class TestWireAwareTiming:
    def test_wire_delays_are_positive_per_net(self, placed_x2):
        netlist, result = placed_x2
        assert result.net_delays
        assert all(v > 0 for v in result.net_delays.values())

    def test_post_place_delay_strictly_exceeds_pre(self, placed_x2, library):
        netlist, result = placed_x2
        pre = compute_arrival_times(netlist, library)
        post = compute_arrival_times(netlist, library, net_delays=result.net_delays)
        assert post.delay > pre.delay
        assert result.report.pre_place_delay_ns == pytest.approx(pre.delay)
        assert result.report.post_place_delay_ns == pytest.approx(post.delay)

    def test_no_net_delays_reproduces_plain_sta(self, x2_netlist, library):
        plain = compute_arrival_times(x2_netlist, library)
        empty = compute_arrival_times(x2_netlist, library, net_delays={})
        assert plain.delay == empty.delay
        assert plain.arrivals == empty.arrivals


class TestClockTree:
    def test_htree_reaches_every_sink(self, placed_x2):
        netlist, result = placed_x2
        tree = build_clock_tree(netlist, result.placement)
        assert tree.sinks == netlist.num_cells()
        assert len(tree.insertion_delays) == tree.sinks
        assert tree.levels >= 1
        assert tree.total_wire > 0

    def test_skew_is_max_minus_min_insertion(self, placed_x2):
        netlist, result = placed_x2
        tree = build_clock_tree(netlist, result.placement)
        spread = max(tree.insertion_delays.values()) - min(
            tree.insertion_delays.values()
        )
        assert tree.skew == pytest.approx(spread)
        assert tree.skew >= 0
        # every sink pays at least one buffer level of insertion delay
        assert min(tree.insertion_delays.values()) >= CLOCK_BUFFER_DELAY_NS


class TestFlowIntegration:
    def test_place_stage_populates_report_and_metrics(self):
        result = Flow(FlowConfig(place=True)).run("x2")
        report = result.place_report
        assert report is not None
        assert report.validation_findings == 0
        assert report.total_hpwl <= report.initial_hpwl
        record = result.to_dict()
        assert record["place_hpwl"] == pytest.approx(report.total_hpwl)
        assert record["cts_skew_ns"] == report.cts_skew_ns
        assert record["place_report"]["fabric_rows"] == report.fabric_rows

    def test_place_off_leaves_record_untouched(self):
        record = Flow(FlowConfig()).run("x2").to_dict()
        assert record["place_report"] is None
        assert record["place_hpwl"] is None
        assert record["cts_skew_ns"] is None

    def test_delay_ns_becomes_wire_aware_when_placed(self):
        plain = Flow(FlowConfig()).run("x2")
        placed = Flow(FlowConfig(place=True)).run("x2")
        assert placed.delay_ns > plain.delay_ns
        assert placed.place_report.post_place_delay_ns == pytest.approx(
            placed.delay_ns
        )

    def test_placement_never_touches_the_netlist(self):
        from repro.netlist.serialize import netlist_to_dict

        plain = Flow(FlowConfig(analyses=("stats",))).run("x2")
        placed = Flow(FlowConfig(analyses=("stats",), place=True)).run("x2")
        assert netlist_to_dict(plain.netlist) == netlist_to_dict(placed.netlist)

    def test_explicit_fabric_dimensions_are_honoured(self):
        result = Flow(
            FlowConfig(place=True, fabric_rows=16, fabric_cols=16)
        ).run("x2")
        assert result.place_report.fabric_rows == 16
        assert result.place_report.fabric_cols == 16

    def test_report_to_dict_has_no_wall_time(self):
        # records must be deterministic bytes (cache round-trips, goldens)
        result = Flow(FlowConfig(place=True)).run("x2")
        assert "elapsed_s" not in result.place_report.to_dict()
        assert result.place_report.elapsed_s > 0

    def test_render_mentions_validation_and_skew(self):
        text = Flow(FlowConfig(place=True)).run("x2").place_report.render()
        assert "placement validation: ok" in text
        assert "skew" in text


class TestConfigKnobs:
    def test_degenerate_fabric_dims_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="fabric_rows"):
            FlowConfig(fabric_rows=0)
        with pytest.raises(ConfigError, match="fabric_cols"):
            FlowConfig(fabric_cols=-3)

    def test_negative_iterations_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="place_iters"):
            FlowConfig(place_iters=-1)

    def test_canonical_resets_place_knobs_when_place_is_off(self):
        noisy = FlowConfig(place=False, place_seed=9, place_iters=55, fabric_rows=8)
        assert noisy.canonical() == FlowConfig()
        kept = FlowConfig(place=True, place_seed=9)
        assert kept.canonical().place_seed == 9

    def test_place_knobs_fragment_the_cache_only_when_on(self):
        base = SweepPoint.from_config("x2", FlowConfig(place=True))
        reseeded = SweepPoint.from_config(
            "x2", FlowConfig(place=True, place_seed=2)
        )
        off_a = SweepPoint.from_config("x2", FlowConfig(place_seed=1))
        off_b = SweepPoint.from_config("x2", FlowConfig(place_seed=2))
        assert base.key() != reseeded.key()
        assert off_a.canonical().key() == off_b.canonical().key()

    def test_label_names_the_fabric_and_schedule(self):
        point = SweepPoint.from_config(
            "x2", FlowConfig(place=True, fabric_rows=12, place_seed=3)
        )
        assert "place12xauto:s3:i2000" in point.label()
        plain = SweepPoint.from_config("x2", FlowConfig())
        assert "place" not in plain.label()
