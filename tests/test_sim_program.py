"""Tests for compiled packed-sim programs and the generation-keyed cache."""

import random
import zlib

import pytest

from repro import obs
from repro.designs.registry import get_design, list_designs
from repro.errors import SimulationError
from repro.api import Flow, FlowConfig
from repro.netlist.cells import CellType, cell_output_ports
from repro.netlist.core import Netlist
from repro.sim.evaluator import evaluate_netlist
from repro.sim.program import cached_program, compile_netlist_program
from repro.sim.stimulus import exhaustive_words, packed_chunks


def _all_celltype_netlist() -> Netlist:
    """One instance of every cell type, plus constant and shared fanout nets."""
    netlist = Netlist("zoo")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    d = netlist.add_input("d")
    one = netlist.const(1)
    zero = netlist.const(0)

    netlist.add_cell(CellType.FA, {"a": a, "b": b, "cin": c})
    netlist.add_cell(CellType.HA, {"a": c, "b": d})
    netlist.add_cell(CellType.AND2, {"a": a, "b": one})
    netlist.add_cell(CellType.NAND2, {"a": a, "b": b})
    netlist.add_cell(CellType.OR2, {"a": b, "b": zero})
    netlist.add_cell(CellType.NOR2, {"a": c, "b": d})
    xor2 = netlist.add_cell(CellType.XOR2, {"a": a, "b": c})
    netlist.add_cell(CellType.XNOR2, {"a": b, "b": d})
    netlist.add_cell(CellType.NOT, {"a": a})
    netlist.add_cell(CellType.BUF, {"a": xor2.outputs["y"]})
    netlist.add_cell(CellType.MUX2, {"a": a, "b": b, "sel": c})
    netlist.add_cell(CellType.AOI21, {"a": a, "b": b, "c": c})
    netlist.add_cell(CellType.OAI21, {"a": b, "b": c, "c": d})
    netlist.add_cell(CellType.AOI22, {"a": a, "b": b, "c": c, "d": d})
    netlist.add_cell(CellType.XOR3, {"a": a, "b": b, "c": d})
    maj = netlist.add_cell(CellType.MAJ3, {"a": a, "b": c, "c": d})
    netlist.set_output(maj.outputs["y"])
    return netlist


def _assert_matches_interpreter(netlist, words, count):
    """Every net of every packed vector equals the one-vector interpreter."""
    program = cached_program(netlist)
    slots = program.run_packed(words, (1 << count) - 1)
    for k in range(count):
        vector = {name: (word >> k) & 1 for name, word in words.items()}
        for name, bit in evaluate_netlist(netlist, vector).items():
            assert (slots[program.slot_of[name]] >> k) & 1 == bit, (name, k)


class TestCompiledProgramSemantics:
    def test_every_celltype_matches_interpreter_exhaustively(self):
        netlist = _all_celltype_netlist()
        used = {instr[0] for instr in compile_netlist_program(netlist).instructions}
        assert used == {ct.value for ct in CellType}

        words = exhaustive_words(["a", "b", "c", "d"], 0, 16)
        _assert_matches_interpreter(netlist, words, 16)

    @pytest.mark.parametrize("design_name", list_designs())
    def test_registry_designs_match_interpreter(self, design_name):
        design = get_design(design_name)
        result = Flow(FlowConfig(method="fa_aot")).run(design)
        names = [net.name for net in result.netlist.primary_inputs]
        (words, count), = packed_chunks(names, False, 16, seed=77)
        _assert_matches_interpreter(result.netlist, words, count)

    def test_missing_primary_input_rejected(self):
        netlist = _all_celltype_netlist()
        program = cached_program(netlist)
        with pytest.raises(SimulationError, match="missing values"):
            program.run_packed({"a": 1, "b": 0}, 1)

    def test_floating_input_net_rejected_at_compile(self):
        netlist = Netlist("floating")
        a = netlist.add_input("a")
        dangling = netlist.add_net("loose")
        cell = netlist.add_cell(CellType.AND2, {"a": a, "b": dangling})
        with pytest.raises(SimulationError, match="loose.*has no value"):
            compile_netlist_program(netlist)
        assert cell.inputs["b"] is dangling  # netlist untouched by the failure


class TestProgramCache:
    def test_cache_hit_until_mutation(self):
        netlist = _all_celltype_netlist()
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            first = cached_program(netlist)
            again = cached_program(netlist)
            assert again is first
            netlist.add_cell(
                CellType.NOT, {"a": netlist.primary_inputs[0]}
            )
            rebuilt = cached_program(netlist)
        assert rebuilt is not first
        assert rebuilt.generation > first.generation
        assert tracer.counters["sim.program_compiles"] == 2.0
        assert tracer.counters["sim.program_cache_hits"] == 1.0

    def test_one_compile_amortized_over_many_replays(self):
        replays = 120
        netlist = Flow(FlowConfig(method="fa_aot")).run(get_design("iir")).netlist
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            programs = {id(cached_program(netlist)) for _ in range(replays)}
        assert len(programs) == 1
        assert tracer.counters["sim.program_compiles"] == 1.0
        assert tracer.counters["sim.program_cache_hits"] == replays - 1

    def test_recompile_after_mutation_is_byte_exact_vs_fresh(self):
        # determinism pin: a program recompiled after a real optimization
        # sequence must be identical to one compiled from scratch on an
        # independent structural copy of the same netlist
        from repro.opt.manager import optimize_netlist

        design = get_design("x2_plus_x_plus_y")
        result = Flow(FlowConfig(method="wallace")).run(design)
        netlist = result.netlist
        cached_program(netlist)  # warm the cache pre-mutation
        optimize_netlist(netlist, opt_level=2)

        recompiled = cached_program(netlist)
        fresh = compile_netlist_program(netlist.copy())
        assert recompiled.instructions == fresh.instructions
        assert recompiled.pi_slots == fresh.pi_slots
        assert recompiled.const_slots == fresh.const_slots
        assert recompiled.source == fresh.source

    def test_slot_order_is_pis_then_consts_then_topo_outputs(self):
        netlist = _all_celltype_netlist()
        program = compile_netlist_program(netlist)
        names = [n.name for n in netlist.primary_inputs]
        assert [name for name, _ in program.pi_slots] == names
        assert [program.slot_of[name] for name in names] == list(range(len(names)))
        cursor = len(names) + len(program.const_slots)
        for cell in netlist.topological_cells():
            for port in cell_output_ports(cell.cell_type):
                assert program.slot_of[cell.outputs[port].name] == cursor
                cursor += 1


class TestTopologicalCache:
    def test_order_cached_until_mutation(self):
        netlist = _all_celltype_netlist()
        first = netlist.topological_cells()
        assert netlist.topological_cells() is first
        netlist.add_cell(CellType.BUF, {"a": netlist.primary_inputs[0]})
        second = netlist.topological_cells()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_generation_bumps_on_every_mutation_api(self):
        netlist = Netlist("gen")
        seen = netlist.generation
        a = netlist.add_input("a")
        assert netlist.generation > seen
        seen = netlist.generation
        g = netlist.add_cell(CellType.NOT, {"a": a})
        assert netlist.generation > seen
        seen = netlist.generation
        netlist.set_output(g.outputs["y"])
        assert netlist.generation > seen
        seen = netlist.generation
        h = netlist.add_cell(CellType.BUF, {"a": g.outputs["y"]})
        netlist.replace_net_uses(g.outputs["y"], a)
        assert netlist.generation > seen
        seen = netlist.generation
        netlist.rebind_input(h, "a", g.outputs["y"])
        assert netlist.generation > seen
        seen = netlist.generation
        netlist.remove_cell(h)
        assert netlist.generation > seen


def _assert_sta_view_is_fresh(netlist, library):
    """The memoized STA view must equal an uncached full sweep.

    A plain-dict ``net_delays`` is never memoized, so ``net_delays={}`` runs
    the sweep from scratch with the same (zero) wire delays as the default
    view, which the netlist serves from its generation-keyed memo.
    """
    from repro.timing.arrival import compute_arrival_times

    kept = compute_arrival_times(netlist, library)
    assert compute_arrival_times(netlist, library) is kept
    full = compute_arrival_times(netlist, library, net_delays={})
    assert full is not kept
    assert kept.arrivals == full.arrivals
    assert kept.delay == full.delay
    assert kept.worst_output_net == full.worst_output_net
    return kept


class TestIncrementalTimingFuzz:
    """STA re-read after each in-place rewrite must equal the full sweep.

    One netlist is rewritten pass by pass and timed after every pass.  The
    view is served from the netlist's derived-view memo, so a pass that
    changes the netlist without bumping its generation counter would hand
    back the pre-rewrite timing.  The pass sequence is randomized per design
    so constant folding, strength reduction, cleanup, CSE and DCE are
    exercised in arbitrary interleavings.
    """

    @pytest.mark.parametrize("design_name", list_designs())
    def test_incremental_equals_full_after_random_pass_sequences(self, design_name):
        from repro.opt.cleanup import CleanupPass
        from repro.opt.constant_fold import ConstantFoldPass
        from repro.opt.cse import CommonSubexpressionPass
        from repro.opt.dce import DeadCellEliminationPass
        from repro.opt.strength import StrengthReductionPass
        from repro.tech.default_libs import generic_035

        library = generic_035()
        design = get_design(design_name)
        netlist = Flow(FlowConfig(method="fa_aot")).run(design).netlist

        passes = [
            ConstantFoldPass(),
            StrengthReductionPass(),
            CleanupPass(),
            CommonSubexpressionPass(),
            DeadCellEliminationPass(),
        ]
        rng = random.Random(zlib.crc32(design_name.encode()))
        timing = _assert_sta_view_is_fresh(netlist, library)
        for _ in range(8):
            generation = netlist.generation
            rng.choice(passes).run(netlist)
            after = _assert_sta_view_is_fresh(netlist, library)
            if netlist.generation != generation:
                assert after is not timing
            timing = after

    @pytest.mark.parametrize("target", ["nand2_basis", "aoi_rich", "lowpower_035"])
    @pytest.mark.parametrize("design_name", list_designs())
    def test_incremental_equals_full_through_technology_mapping(
        self, design_name, target
    ):
        # the mapping pass rewrites far more of the netlist per sweep than
        # any logic-cleanup pass, so it is the stress case for memo
        # invalidation; the unit library prices every cell type, so STA
        # stays well-defined on the half-mapped intermediate netlists
        from repro.map.mapper import TechnologyMappingPass
        from repro.opt.cleanup import CleanupPass
        from repro.opt.dce import DeadCellEliminationPass
        from repro.tech.default_libs import unit_library
        from repro.tech.target_libs import resolve_target_library

        library = unit_library()
        netlist = Flow(FlowConfig(method="fa_aot")).run(get_design(design_name)).netlist
        timing = _assert_sta_view_is_fresh(netlist, library)
        for rewrite_pass in (
            TechnologyMappingPass(resolve_target_library(target)),
            CleanupPass(),
            DeadCellEliminationPass(),
        ):
            generation = netlist.generation
            rewrite_pass.run(netlist)
            after = _assert_sta_view_is_fresh(netlist, library)
            if netlist.generation != generation:
                assert after is not timing
            timing = after
