"""Tests for the pass manager, optimization levels and equivalence checker."""

import functools

import pytest

from repro.api import Flow, FlowConfig
from repro.errors import OptimizationError, SimulationError
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.opt.base import RewritePass
from repro.opt.manager import OPT_LEVELS, PassManager, default_pipeline, optimize_netlist
from repro.sim.equivalence import (
    check_equivalence,
    check_netlists_equivalent,
    equivalence_reference,
)


#: representative registry designs and methods for the whole -O2 pipeline
REGISTRY_CASES = (
    ("x2_plus_x_plus_y", "fa_aot"),
    ("square_of_sum", "fa_aot"),
    ("iir", "fa_aot"),
    ("iir", "conventional"),
    ("kalman", "fa_aot"),
)


@functools.lru_cache(maxsize=None)
def _optimized(design_name, method):
    """The ``-O2`` report of one registry design, memoized across tests."""
    config = FlowConfig(method=method, opt_level=2, analyses=("stats",))
    return Flow(config).run(design_name).opt_report


@pytest.fixture(scope="module", autouse=True)
def _release_reports():
    yield
    _optimized.cache_clear()


class TestDefaultPipeline:
    def test_levels(self):
        assert OPT_LEVELS == (0, 1, 2)
        assert default_pipeline(0) == []
        names1 = [p.name for p in default_pipeline(1)]
        names2 = [p.name for p in default_pipeline(2)]
        assert names1 == ["constant-fold", "buf-not-cleanup", "dce"]
        assert names2 == [
            "constant-fold",
            "fa-ha-strength",
            "buf-not-cleanup",
            "cse",
            "dce",
        ]

    def test_unknown_level_rejected(self):
        with pytest.raises(OptimizationError):
            default_pipeline(3)


class TestPassManager:
    def test_fixpoint_and_report(self, small_design, library):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        before_cells = result.netlist.num_cells()
        report = optimize_netlist(
            result.netlist, opt_level=2, library=library, validate=True
        )
        assert report.converged
        assert report.cells_removed > 0
        assert report.before.num_cells == before_cells
        assert report.after.num_cells == result.netlist.num_cells()
        assert report.area_delta is not None and report.area_delta > 0
        assert report.equivalence is not None
        assert report.equivalence.equivalent
        assert report.equivalence.exhaustive  # 8 input bits
        assert report.validated
        # the last pipeline iteration performed no rewrites
        last_iter = max(stat.iteration for stat in report.passes)
        assert all(
            stat.rewrites == 0
            for stat in report.passes
            if stat.iteration == last_iter
        )

    @pytest.mark.parametrize("design_name, method", REGISTRY_CASES)
    def test_registry_design_stays_equivalent_and_converges(self, design_name, method):
        report = _optimized(design_name, method)
        assert report.equivalence is not None and report.equivalence.equivalent
        assert report.converged
        assert report.area_delta is not None and report.area_delta >= 0

    def test_most_registry_designs_shrink(self):
        # FA strength reduction may trade one FA for two cheaper gates, so
        # the cell count need not fall on every design; area never grows
        reports = {case: _optimized(*case) for case in REGISTRY_CASES}
        shrunk = [c for c, r in reports.items() if r.after.num_cells < r.before.num_cells]
        assert len(shrunk) >= 3, shrunk

    def test_opt_level_zero_is_noop(self, small_design):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        before = result.netlist.to_dict()
        report = optimize_netlist(result.netlist, opt_level=0)
        assert result.netlist.to_dict() == before
        assert report.cells_removed == 0
        assert report.passes == []
        assert report.converged

    def test_check_each_pass(self, small_design):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        report = optimize_netlist(
            result.netlist, opt_level=2, check_each_pass=True
        )
        assert report.equivalence is not None and report.equivalence.equivalent

    def test_broken_pass_is_caught(self, small_design):
        class BreakingPass(RewritePass):
            name = "breaker"

            def run(self, netlist):
                # silently tie an input bit to 0: functionally wrong but
                # structurally legal, so only the equivalence check sees it
                netlist.replace_net_uses(netlist.nets["x[0]"], netlist.const(0))
                return 1

        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        manager = PassManager([BreakingPass()], check_equivalence=True, max_iterations=1)
        with pytest.raises(OptimizationError):
            manager.run(result.netlist)

    def test_report_to_dict_and_render(self, small_design, library):
        result = Flow(FlowConfig(method="fa_aot")).run(small_design)
        report = optimize_netlist(result.netlist, opt_level=2, library=library)
        record = report.to_dict()
        assert record["opt_level"] == 2
        assert record["cells_removed"] == report.cells_removed
        assert record["equivalence"]["equivalent"] is True
        assert len(record["passes"]) == len(report.passes)
        text = report.render()
        assert "-O2" in text
        assert "equivalence: ok" in text

    def test_bad_max_iterations(self):
        with pytest.raises(OptimizationError):
            PassManager([], max_iterations=0)


def _check_synthesized(entry, design, **stimulus):
    """Check a synthesized netlist through one of the two public checkers."""
    result = Flow(FlowConfig(method="fa_aot")).run(design)
    if entry == "netlists":
        return check_netlists_equivalent(result.netlist, result.netlist.copy(), **stimulus)
    return check_equivalence(
        result.netlist,
        result.output_bus,
        design.expression,
        design.signals,
        output_width=design.output_width,
        **stimulus,
    )


class TestEquivalenceChecker:
    @pytest.mark.parametrize("entry", ["netlists", "expression"])
    def test_equivalent_copies(self, small_design, entry):
        report = _check_synthesized(entry, small_design)
        assert report.equivalent
        assert report.exhaustive
        assert report.vectors_checked == 1 << 8

    @pytest.mark.parametrize("entry", ["netlists", "expression"])
    def test_random_sampling_above_limit(self, small_design, entry):
        report = _check_synthesized(
            entry, small_design, exhaustive_width_limit=4, random_vector_count=64
        )
        assert report.equivalent
        assert not report.exhaustive
        assert report.vectors_checked == 64

    def test_detects_inequivalence(self):
        def build(gate):
            netlist = Netlist("g")
            a = netlist.add_input("a")
            b = netlist.add_input("b")
            cell = netlist.add_cell(gate, {"a": a, "b": b}, name="g")
            netlist.set_output(cell.outputs["y"])
            return netlist

        left = build(CellType.AND2)
        right = build(CellType.OR2)
        # align output net names so the interface matches
        assert [n.name for n in left.primary_outputs] == [
            n.name for n in right.primary_outputs
        ]
        report = check_netlists_equivalent(left, right)
        assert not report.equivalent
        assert report.mismatches
        first = report.mismatches[0]
        assert first["expected"] != first["produced"]
        with pytest.raises(SimulationError):
            report.assert_ok()

    def test_positional_outputs_compare_renamed_buses(self):
        unfolded, folded = (
            Flow(
                FlowConfig(opt_level=0, fold_square_products=fold, analyses=("stats",))
            ).run("x2")
            for fold in (False, True)
        )
        # folding renames every primary output; inputs and the bus keep theirs
        assert not {n.name for n in unfolded.netlist.primary_outputs} & {
            n.name for n in folded.netlist.primary_outputs
        }
        with pytest.raises(SimulationError, match="primary outputs differ"):
            check_netlists_equivalent(unfolded.netlist, folded.netlist)
        bus_names = [net.name for net in unfolded.output_bus.nets]
        reference = equivalence_reference(unfolded.netlist, bus_names)
        folded_names = [net.name for net in folded.output_bus.nets]
        report = check_netlists_equivalent(
            reference, equivalence_reference(folded.netlist, folded_names)
        )
        assert report.equivalent and report.exhaustive
        assert report.vectors_checked == 1 << 3

        # invert one bus bit of the folded netlist: every vector flips it
        flipped = folded.netlist.add_cell(
            CellType.NOT, {"a": folded.output_bus.nets[2]}, name="flip"
        ).outputs["y"]
        folded_names[2] = flipped.name
        report = check_netlists_equivalent(
            reference, equivalence_reference(folded.netlist, folded_names)
        )
        assert not report.equivalent
        assert len(report.mismatches) == 5
        for mismatch in report.mismatches:
            assert mismatch["net"] == bus_names[2]
            assert mismatch["produced"] == mismatch["expected"] ^ 1

    def test_interface_mismatch_rejected(self, small_design):
        netlist = Flow(FlowConfig(method="fa_aot")).run(small_design).netlist
        other = Netlist("other")
        other.add_input("zzz")
        with pytest.raises(SimulationError):
            check_netlists_equivalent(netlist, other)
