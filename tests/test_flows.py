"""Tests for the end-to-end synthesis flow over every method and knob."""

import json
import math

import pytest

from repro.api import MATRIX_METHODS, SYNTHESIS_METHODS, Flow, FlowConfig
from repro.cli import main
from repro.designs.registry import get_design
from repro.errors import DesignError
from repro.utils.metrics import improvement_pct
from repro.sim.equivalence import check_equivalence


class TestSynthesize:
    @pytest.mark.parametrize("method", sorted(SYNTHESIS_METHODS))
    def test_every_method_is_functionally_correct(self, small_design, method):
        result = Flow(FlowConfig(method=method, seed=7)).run(small_design)
        report = check_equivalence(
            result.netlist,
            result.output_bus,
            small_design.expression,
            small_design.signals,
            output_width=small_design.output_width,
        )
        assert report.exhaustive
        report.assert_ok()

    @pytest.mark.parametrize("method", sorted(SYNTHESIS_METHODS))
    def test_every_method_on_subtraction_design(self, subtract_design, method):
        result = Flow(FlowConfig(method=method, seed=3)).run(subtract_design)
        check_equivalence(
            result.netlist,
            result.output_bus,
            subtract_design.expression,
            subtract_design.signals,
            output_width=subtract_design.output_width,
        ).assert_ok()

    def test_result_fields_populated(self, small_design):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        assert result.delay_ns > 0
        assert result.area > 0
        assert result.total_energy > 0
        assert result.tree_energy > 0
        assert result.cell_count == len(result.netlist.cells)
        assert result.fa_count > 0
        assert result.output_bus.width == small_design.output_width
        assert result.compression is not None
        assert result.matrix_build is not None
        assert result.library_name == "generic_035"
        assert "delay=" in result.summary()

    def test_conventional_result_fields(self, small_design):
        result = Flow(FlowConfig(method="conventional")).run(small_design)
        assert result.compression is None
        assert result.matrix_build is None
        assert result.delay_ns > 0

    @pytest.mark.parametrize("final_adder", ["ripple", "cla", "carry_select", "kogge_stone"])
    def test_final_adder_choices(self, small_design, final_adder):
        result = Flow(FlowConfig(method="fa_aot", final_adder=final_adder)).run(small_design)
        check_equivalence(
            result.netlist,
            result.output_bus,
            small_design.expression,
            small_design.signals,
            output_width=small_design.output_width,
        ).assert_ok()
        assert result.final_adder == final_adder

    def test_unknown_method_rejected(self, small_design):
        with pytest.raises(DesignError):
            Flow(FlowConfig(method="magic")).run(small_design)

    def test_unknown_final_adder_rejected(self, small_design):
        with pytest.raises(DesignError):
            Flow(FlowConfig(final_adder="magic")).run(small_design)

    def test_csd_option(self, small_design):
        result = Flow(FlowConfig(method="fa_aot", use_csd_coefficients=True)).run(small_design)
        check_equivalence(
            result.netlist,
            result.output_bus,
            small_design.expression,
            small_design.signals,
            output_width=small_design.output_width,
        ).assert_ok()

    def test_unit_library(self, small_design, unit_lib):
        result = Flow(FlowConfig(method="fa_aot", library="unit")).run(
            small_design, library=unit_lib
        )
        assert result.library_name == "unit"

    def test_fa_aot_not_slower_than_arrival_blind_methods(self, small_design):
        aot = Flow(FlowConfig(method="fa_aot")).run(small_design)
        for method in ("wallace", "csa_opt", "conventional"):
            other = Flow(FlowConfig(method=method)).run(small_design)
            assert aot.delay_ns <= other.delay_ns + 1e-9

    def test_fa_alp_not_worse_than_random_on_tree_energy(self):
        from repro.designs.registry import with_random_probabilities

        design = with_random_probabilities(get_design("x2_plus_x_plus_y"), seed=5)
        alp = Flow(FlowConfig(method="fa_alp")).run(design)
        random_result = Flow(FlowConfig(method="fa_random", seed=5)).run(design)
        assert alp.tree_energy <= random_result.tree_energy * 1.02


class TestCompare:
    @staticmethod
    def _compare_records(tmp_path, argv):
        out = tmp_path / "compare.json"
        assert main(["compare", *argv, "--json", str(out)]) == 0
        return json.loads(out.read_text())["results"]

    def test_compare_methods_collects_results(self, tmp_path):
        # `compare` runs one Flow per method, in the order given, and its
        # records are exactly those runs' to_dict() records
        records = self._compare_records(
            tmp_path, ["--design", "x2", "--methods", "fa_aot", "wallace"]
        )
        assert [r["method"] for r in records] == ["fa_aot", "wallace"]
        for record in records:
            live = Flow(FlowConfig(method=record["method"])).run("x2").to_dict()
            assert record == json.loads(json.dumps(live))
        aot, wallace = records
        assert aot["delay_ns"] <= wallace["delay_ns"] + 1e-9
        assert aot["area"] > 0
        assert wallace["tree_energy"] > 0

    def test_compare_with_opt_level(self, tmp_path):
        (record,) = self._compare_records(
            tmp_path, ["--design", "x2", "--methods", "fa_aot", "--opt", "2"]
        )
        assert record["opt_level"] == 2
        assert record["config"]["opt_level"] == 2
        assert record["opt_cells_removed"] > 0
        assert record["cell_count"] < record["pre_opt_cell_count"]

    def test_improvements(self, small_design):
        aot = Flow(FlowConfig(method="fa_aot")).run(small_design)
        wallace = Flow(FlowConfig(method="wallace")).run(small_design)
        assert improvement_pct(wallace.delay_ns, aot.delay_ns) >= -1e-9
        assert improvement_pct(10.0, 7.5) == pytest.approx(25.0)
        assert math.isnan(improvement_pct(0.0, 1.0))

    def test_matrix_methods_subset(self):
        assert set(MATRIX_METHODS) < set(SYNTHESIS_METHODS)
        assert "conventional" in SYNTHESIS_METHODS


class TestOptimizedSynthesis:
    @pytest.mark.parametrize("opt_level", [1, 2])
    @pytest.mark.parametrize("method", ["fa_aot", "conventional", "wallace"])
    def test_optimized_flows_stay_equivalent(self, small_design, method, opt_level):
        result = Flow(FlowConfig(method=method, opt_level=opt_level)).run(small_design)
        assert result.opt_level == opt_level
        assert result.opt_report is not None
        assert result.opt_report.equivalence is not None
        assert result.opt_report.equivalence.equivalent
        check_equivalence(
            result.netlist,
            result.output_bus,
            small_design.expression,
            small_design.signals,
            output_width=small_design.output_width,
        ).assert_ok()

    def test_opt_level_two_reduces_cells(self, small_design):
        baseline = Flow(FlowConfig(method="fa_aot")).run(small_design)
        optimized = Flow(FlowConfig(method="fa_aot", opt_level=2)).run(small_design)
        assert optimized.cell_count < baseline.cell_count
        assert optimized.area < baseline.area
        assert optimized.pre_opt_stats is not None
        assert optimized.pre_opt_stats.num_cells == baseline.cell_count
        assert optimized.opt_report.cells_removed == (
            baseline.cell_count - optimized.cell_count
        )

    def test_opt_level_zero_matches_legacy(self, small_design):
        legacy = Flow(FlowConfig(method="fa_aot")).run(small_design)
        assert legacy.opt_level == 0
        assert legacy.opt_report is None
        assert legacy.pre_opt_stats is None
        record = legacy.to_dict()
        assert record["opt_level"] == 0
        assert record["pre_opt_cell_count"] is None

    def test_metrics_describe_optimized_netlist(self, small_design):
        result = Flow(FlowConfig(method="fa_aot", opt_level=2)).run(small_design)
        assert result.cell_count == len(result.netlist.cells)
        from repro.netlist.cells import CellType

        assert result.fa_count == len(result.netlist.cells_of_type(CellType.FA))
        assert result.ha_count == len(result.netlist.cells_of_type(CellType.HA))
        assert any(note.startswith("-O2") for note in result.notes)
        record = result.to_dict()
        assert record["opt_cells_removed"] == result.opt_report.cells_removed

    def test_unknown_opt_level_rejected(self, small_design):
        with pytest.raises(DesignError):
            Flow(FlowConfig(opt_level=7)).run(small_design)
