"""Tests for the technology-mapping subsystem (`repro.map`)."""

import itertools
import json
import random
from pathlib import Path

import pytest

from repro.api import Flow, FlowConfig, STAGE_ORDER
from repro.cli import build_parser
from repro.designs.registry import list_designs
from repro.errors import MappingError
from repro.explore.spec import SweepPoint, SweepSpec
from repro.map import (
    MAP_OBJECTIVES,
    TARGET_NAMES,
    MapTemplate,
    TechnologyMappingPass,
    TemplateNode,
    basis_of,
    map_netlist,
    resolve_target_library,
    templates_for,
    verify_template,
)
from repro.map.templates import (
    TEMPLATES,
    compile_template,
    template_area,
    template_arrivals,
)
from repro.netlist.cells import (
    CellType,
    cell_input_ports,
    evaluate_cell,
)
from repro.netlist.core import Netlist
from repro.netlist.validate import validate_netlist
from repro.netlist.verilog import to_verilog
from repro.sim.program import cached_program
from repro.sim.stimulus import exhaustive_words
from repro.tech import generic_035
from repro.tech.target_libs import TARGET_LIBRARY_NAMES

CONCRETE_TARGETS = tuple(name for name in TARGET_NAMES if name != "generic")

#: MapReport records (plus per-pass rewrite counts) of -O2 mapped flows
MAP_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "map_reports.json").read_text()
)


def _synth(design="x2_plus_x_plus_y", **kwargs):
    return Flow(FlowConfig(analyses=("timing", "power", "stats"), **kwargs)).run(design)


# ---------------------------------------------------------------- templates


class TestTemplates:
    def test_every_registered_template_is_equivalent_to_its_source(self):
        for source, templates in TEMPLATES.items():
            for template in templates:
                verify_template(template)  # raises MappingError on drift

    def test_every_target_basis_is_universal(self):
        # every cell type outside a basis must have at least one applicable
        # template, or mapping a netlist using it would dead-end
        for name in CONCRETE_TARGETS:
            basis = basis_of(resolve_target_library(name))
            for cell_type in CellType:
                if cell_type in basis:
                    continue
                applicable = [
                    t for t in templates_for(cell_type) if t.gates() <= basis
                ]
                assert applicable, (name, cell_type)

    def test_registration_is_the_trust_boundary(self):
        from repro.map import register_template

        # duplicate names are rejected — a same-named template can never
        # shadow (or ride the verification of) an already-registered one
        with pytest.raises(MappingError, match="already registered"):
            register_template(
                MapTemplate(
                    name="fa.nand9",
                    source=CellType.HA,
                    nodes=(
                        TemplateNode("s", CellType.XOR2, ("a", "b")),
                        TemplateNode("co", CellType.AND2, ("a", "b")),
                    ),
                    outputs={"s": "s", "co": "co"},
                )
            )
        # broken templates are rejected at registration, not first use
        with pytest.raises(MappingError, match="not equivalent"):
            register_template(
                MapTemplate(
                    name="test.registered_broken",
                    source=CellType.AND2,
                    nodes=(TemplateNode("y", CellType.OR2, ("a", "b")),),
                    outputs={"y": "y"},
                )
            )
        assert all(
            t.name != "test.registered_broken"
            for t in templates_for(CellType.AND2)
        )

    def test_non_equivalent_template_is_rejected(self):
        broken = MapTemplate(
            name="test.broken_and",
            source=CellType.AND2,
            nodes=(TemplateNode("y", CellType.OR2, ("a", "b")),),
            outputs={"y": "y"},
        )
        with pytest.raises(MappingError, match="not equivalent"):
            verify_template(broken)

    def test_structurally_broken_templates_are_rejected(self):
        unknown_ref = MapTemplate(
            name="test.unknown_ref",
            source=CellType.NOT,
            nodes=(TemplateNode("y", CellType.NOT, ("zz",)),),
            outputs={"y": "y"},
        )
        with pytest.raises(MappingError, match="unknown ref"):
            verify_template(unknown_ref)
        bad_arity = MapTemplate(
            name="test.bad_arity",
            source=CellType.NOT,
            nodes=(TemplateNode("y", CellType.NAND2, ("a",)),),
            outputs={"y": "y"},
        )
        with pytest.raises(MappingError, match="binds 1 inputs"):
            verify_template(bad_arity)
        missing_output = MapTemplate(
            name="test.missing_output",
            source=CellType.HA,
            nodes=(TemplateNode("s", CellType.XOR2, ("a", "b")),),
            outputs={"s": "s"},
        )
        with pytest.raises(MappingError, match="no ref for output"):
            verify_template(missing_output)

    def test_cost_model_walks_the_declared_dag(self):
        library = resolve_target_library("nand2_basis")
        (template,) = [
            t for t in templates_for(CellType.XOR2) if t.name == "xor2.nand4"
        ]
        assert template_area(template, library) == 4 * library.area(CellType.NAND2)
        arrivals = template_arrivals(template, library, {"a": 0.0, "b": 1.0})
        # critical path: b(1.0) -> n1 -> n3 -> y, three NAND levels
        nand = library.delay(CellType.NAND2, "a", "y")
        assert arrivals["y"] == pytest.approx(1.0 + 3 * nand)


def _node_walk(netlist, template, cell):
    """Materialize ``template`` by walking its nodes and resolving refs by name."""
    nets = {"0": netlist.const(0), "1": netlist.const(1)}
    for port in cell_input_ports(template.source):
        nets[port] = cell.inputs[port]
    for node in template.nodes:
        ports = cell_input_ports(node.gate)
        bindings = {port: nets[ref] for port, ref in zip(ports, node.ins)}
        nets[node.node] = netlist.add_cell(node.gate, bindings).outputs["y"]
    return {port: nets[ref] for port, ref in template.outputs.items()}


def _structure(netlist):
    """Cells with their bindings in dict order, and each net's readers in order.

    Dict order matters downstream: the placer numbers nets in the order
    their first pin appears when it walks each cell's ports.
    """
    cells = [
        (
            cell.name,
            cell.cell_type,
            [(port, net.name) for port, net in cell.inputs.items()],
            [(port, net.name) for port, net in cell.outputs.items()],
        )
        for cell in netlist.cells.values()
    ]
    loads = [(net.name, [(c.name, port) for c, port in net.loads]) for net in netlist.nets.values()]
    return cells, loads


def _applicable(library):
    basis = basis_of(library)
    return [
        template
        for templates in TEMPLATES.values()
        for template in templates
        if template.gates() <= basis
    ]


class TestCompiledTemplates:
    """The slot tables the covering pass runs on agree with the node list."""

    @pytest.mark.parametrize("target", CONCRETE_TARGETS)
    def test_arc_tables_match_template_arrivals(self, target):
        library = resolve_target_library(target)
        rng = random.Random(f"arcs-{target}")
        templates = _applicable(library)
        assert templates
        for template in templates:
            compiled = compile_template(template, library)
            ports = cell_input_ports(template.source)
            for trial in range(200):
                if trial % 2:
                    # quarter-step arrivals: ties between paths are common
                    profile = tuple(rng.randrange(12) * 0.25 for _ in ports)
                else:
                    profile = tuple(rng.uniform(0.0, 5.0) for _ in ports)
                assert compiled.arrivals(profile) == template_arrivals(
                    template, library, dict(zip(ports, profile))
                ), (template.name, profile)
            assert compiled.area == template_area(template, library)

    @pytest.mark.parametrize("target", CONCRETE_TARGETS)
    def test_binding_plan_builds_what_the_node_walk_builds(self, target):
        from repro.netlist.serialize import netlist_to_dict

        library = resolve_target_library(target)
        for template in _applicable(library):
            built = []
            for materialize in (
                compile_template(template, library).materialize,
                lambda netlist, cell: _node_walk(netlist, template, cell),
            ):
                netlist = Netlist("one_cell")
                ports = cell_input_ports(template.source)
                cell = netlist.add_cell(
                    template.source, {port: netlist.add_input(port) for port in ports}
                )
                outputs = materialize(netlist, cell)
                built.append(
                    (
                        {port: net.name for port, net in outputs.items()},
                        netlist_to_dict(netlist),
                        _structure(netlist),
                    )
                )
            assert built[0] == built[1], template.name

    def test_a_template_is_verified_when_compiled(self):
        broken = MapTemplate(
            name="test.compiled_broken",
            source=CellType.AND2,
            nodes=(TemplateNode("y", CellType.OR2, ("a", "b")),),
            outputs={"y": "y"},
        )
        with pytest.raises(MappingError, match="not equivalent"):
            compile_template(broken, resolve_target_library("aoi_rich"))


# ------------------------------------------------------------------ mapping


class TestMapNetlist:
    @pytest.mark.parametrize("target", CONCRETE_TARGETS)
    @pytest.mark.parametrize("objective", MAP_OBJECTIVES)
    def test_maps_to_basis_and_stays_equivalent(self, target, objective):
        result = _synth()
        report = map_netlist(
            result.netlist,
            target=target,
            objective=objective,
            source_library=generic_035(),
            validate=True,
        )
        basis = basis_of(resolve_target_library(target))
        assert all(c.cell_type in basis for c in result.netlist.cells.values())
        assert report.equivalence_ok is True
        assert report.cells_mapped > 0
        assert sum(report.template_counts.values()) == report.cells_mapped
        assert report.after.num_cells == result.netlist.num_cells()
        assert report.delay_after > 0
        validate_netlist(result.netlist)

    def test_objectives_steer_template_selection(self):
        # the guaranteed invariant: the same cells are covered under every
        # objective, and area mode picks the per-cell cheapest templates, so
        # its summed template area can never exceed delay mode's (what the
        # *netlist* areas do afterwards depends on cleanup/CSE interactions)
        by_name = {t.name: t for ts in TEMPLATES.values() for t in ts}

        def chosen_area(report, library):
            return sum(
                template_area(by_name[name], library) * count
                for name, count in report.template_counts.items()
            )

        for target in ("aoi_rich", "lowpower_035"):
            library = resolve_target_library(target)
            reports = {
                objective: _synth(
                    target_lib=target, map_objective=objective
                ).map_report
                for objective in ("area", "delay")
            }
            assert (
                chosen_area(reports["area"], library)
                <= chosen_area(reports["delay"], library) + 1e-9
            )
            # end-to-end regression: on these designs/libraries the delay
            # objective also wins the final mapped critical path
            assert (
                reports["delay"].delay_after
                <= reports["area"].delay_after + 1e-9
            )

    def test_generic_target_is_rejected_by_map_netlist(self):
        result = _synth("x2")
        with pytest.raises(MappingError, match="unmapped"):
            map_netlist(result.netlist, target="generic")

    def test_unknown_objective_is_rejected(self):
        with pytest.raises(MappingError, match="unknown map objective"):
            TechnologyMappingPass(resolve_target_library("nand2_basis"), "fastest")

    def test_report_round_trips_to_json(self):
        import json

        result = _synth("x2", target_lib="nand2_basis")
        payload = json.dumps(result.map_report.to_dict())
        data = json.loads(payload)
        assert data["target_lib"] == "nand2_basis"
        assert data["cells_mapped"] > 0
        assert data["equivalence_ok"] is True

    @pytest.mark.parametrize(
        "target, objective",
        [("nand2_basis", "delay")] + [(t, "balanced") for t in CONCRETE_TARGETS],
    )
    def test_every_registry_design_maps_basis_pure_and_equivalent(self, target, objective):
        # every registry design maps onto every target basis, bit-equivalent
        # to the unmapped netlist (checked inside the map stage) and
        # basis-pure
        basis = basis_of(resolve_target_library(target))
        for name in list_designs():
            result = Flow(
                FlowConfig(
                    target_lib=target,
                    map_objective=objective,
                    analyses=("stats",),
                )
            ).run(name)
            assert all(
                cell.cell_type in basis for cell in result.netlist.cells.values()
            ), name
            assert result.map_report.equivalence_ok is True, name
            equivalence = result.map_report.opt_report.equivalence
            assert equivalence is not None and equivalence.equivalent, name


# ----------------------------------------------------------- flow integration


class TestFlowIntegration:
    def test_map_stage_is_registered_between_optimize_and_analyze(self):
        assert STAGE_ORDER.index("optimize") < STAGE_ORDER.index("map")
        assert STAGE_ORDER.index("map") < STAGE_ORDER.index("analyze")

    def test_default_flow_keeps_generic_netlist(self):
        result = _synth("x2")
        assert result.map_report is None
        assert result.library_name == "generic_035"
        assert result.netlist.cells_of_type(CellType.HA)

    def test_mapped_flow_analyzes_against_target_library(self):
        result = _synth("x2", target_lib="aoi_rich", map_objective="delay")
        assert result.library_name == "aoi_rich"
        assert result.map_report is not None
        assert result.fa_count == 0 and result.ha_count == 0
        assert result.delay_ns > 0
        assert result.total_energy > 0
        assert result.stats.area == pytest.approx(result.map_report.after.area)
        assert "map" in result.stage_times
        assert result.stage_artifacts["map"] is result.map_report
        assert any("mapped to aoi_rich" in note for note in result.notes)

    def test_flow_result_dict_carries_the_map_summary(self):
        mapped = _synth("x2", target_lib="lowpower_035").to_dict()
        assert mapped["map_report"]["target_lib"] == "lowpower_035"
        assert mapped["config"]["target_lib"] == "lowpower_035"
        unmapped = _synth("x2").to_dict()
        assert unmapped["map_report"] is None

    def test_report_to_dict_has_no_wall_time(self):
        # records must be deterministic bytes, as PlaceReport's already are
        result = _synth("x2", target_lib="aoi_rich")
        assert "elapsed_s" not in result.map_report.to_dict()
        assert result.map_report.elapsed_s > 0
        again = _synth("x2", target_lib="aoi_rich")
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )

    def test_confirming_sweep_prices_nothing(self, monkeypatch):
        # once every cell is in the basis the fixpoint's second tech-map
        # sweep returns 0 without walking the netlist for arrivals
        priced = []
        original = TechnologyMappingPass._input_arrival

        def counting(self, net, arrivals):
            priced.append(net.name)
            return original(self, net, arrivals)

        monkeypatch.setattr(TechnologyMappingPass, "_input_arrival", counting)
        netlist = _synth("x2", target_lib="generic").netlist
        mapping = TechnologyMappingPass(resolve_target_library("aoi_rich"))
        assert mapping.run(netlist) > 0
        priced.clear()
        assert mapping.run(netlist) == 0
        assert priced == []

    @pytest.mark.parametrize("key", sorted(MAP_GOLDEN))
    def test_map_report_matches_golden(self, key):
        # the reports and per-pass rewrite counts of the mapper before the
        # confirming sweep returned early, byte for byte
        design, target, objective = key.split("/")
        report = _synth(
            design, opt_level=2, target_lib=target, map_objective=objective
        ).map_report
        record = report.to_dict()
        record["passes"] = [
            [p.pass_name, p.iteration, p.rewrites, p.cells_before, p.cells_after]
            for p in report.opt_report.passes
        ]
        assert json.loads(json.dumps(record)) == MAP_GOLDEN[key]

    def test_mapped_verilog_uses_only_basis_constructs(self):
        result = _synth("x2", target_lib="aoi_rich")
        text = to_verilog(result.netlist, module_name="x2_mapped")
        assert "REPRO_FA" not in text and "REPRO_HA" not in text

    def test_synth_cli_accepts_mapping_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "synth", "--design", "x2", "--target-lib", "nand2_basis",
                "--map-objective", "delay", "--map-validate",
            ]
        )
        assert args.target_lib == "nand2_basis"
        assert args.map_objective == "delay"
        assert args.map_validate is True

    def test_explore_cli_accepts_mapping_axes(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "explore", "--designs", "x2", "--target-libs", "generic",
                "nand2_basis", "--map-objectives", "area", "delay",
            ]
        )
        assert args.target_libs == ["generic", "nand2_basis"]
        assert args.map_objectives == ["area", "delay"]


# ------------------------------------------------------------ config / sweep


class TestConfigAndSweep:
    def test_canonical_resets_objective_for_generic_target(self):
        config = FlowConfig(target_lib="generic", map_objective="delay")
        assert config.canonical().map_objective == "balanced"
        mapped = FlowConfig(target_lib="nand2_basis", map_objective="delay")
        assert mapped.canonical().map_objective == "delay"

    def test_cache_key_distinguishes_targets_and_objectives(self):
        keys = {
            FlowConfig(target_lib=target, map_objective=objective).cache_key()
            for target in CONCRETE_TARGETS
            for objective in MAP_OBJECTIVES
        }
        assert len(keys) == len(CONCRETE_TARGETS) * len(MAP_OBJECTIVES)
        # ... while the objective cannot fragment the generic-target cache
        assert (
            FlowConfig(target_lib="generic", map_objective="area").cache_key()
            == FlowConfig().cache_key()
        )

    def test_map_validate_is_not_cache_relevant(self):
        assert (
            FlowConfig(map_validate=True).cache_key() == FlowConfig().cache_key()
        )

    def test_unknown_target_and_objective_are_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            FlowConfig(target_lib="tsmc7")
        with pytest.raises(ConfigError):
            FlowConfig(map_objective="fastest")

    def test_sweep_expands_the_mapping_axes(self):
        spec = SweepSpec(
            designs=("x2",),
            methods=("fa_aot",),
            target_libs=("generic", "nand2_basis"),
            map_objectives=("area", "delay"),
        )
        points = spec.expand()
        # generic canonicalizes both objectives onto one point: 1 + 2
        assert len(points) == 3
        labels = {point.label() for point in points}
        assert "x2/fa_aot/cla" in labels
        assert "x2/fa_aot/cla/nand2_basis:area" in labels
        assert "x2/fa_aot/cla/nand2_basis:delay" in labels

    def test_point_round_trips_the_mapping_fields(self):
        point = SweepPoint("x2", FlowConfig(target_lib="aoi_rich", map_objective="area"))
        data = point.to_dict()
        rebuilt = SweepPoint(data.pop("design"), FlowConfig.from_dict(data))
        assert rebuilt == point
        assert rebuilt.config.target_lib == "aoi_rich"


# ---------------------------------------------------- new cell types, libs


class TestNewCellTypes:
    NEW_TYPES = (CellType.OAI21, CellType.AOI22, CellType.XOR3, CellType.MAJ3)

    @pytest.mark.parametrize("cell_type", list(CellType))
    def test_packed_evaluator_matches_reference_semantics(self, cell_type):
        ports = cell_input_ports(cell_type)
        netlist = Netlist("probe")
        nets = {port: netlist.add_input(port) for port in ports}
        cell = netlist.add_cell(cell_type, nets)
        for out_net in cell.outputs.values():
            netlist.set_output(out_net)
        validate_netlist(netlist)
        count = 1 << len(ports)
        words = exhaustive_words(ports, 0, count)
        program = cached_program(netlist)
        slots = program.run_packed(words, (1 << count) - 1)
        for index in range(count):
            vector = {port: (words[port] >> index) & 1 for port in ports}
            expected = evaluate_cell(cell_type, vector)
            for port, net in cell.outputs.items():
                assert (slots[program.slot_of[net.name]] >> index) & 1 == expected[port]

    @pytest.mark.parametrize("cell_type", NEW_TYPES)
    def test_probability_model_matches_truth_table_at_half(self, cell_type):
        # with independent p=0.5 inputs the exact output probability is the
        # fraction of ones in the truth table
        from repro.power.probability import propagate_probabilities

        ports = cell_input_ports(cell_type)
        netlist = Netlist("prob")
        nets = {port: netlist.add_input(port) for port in ports}
        cell = netlist.add_cell(cell_type, nets)
        netlist.set_output(cell.outputs["y"])
        ones = sum(
            evaluate_cell(cell_type, dict(zip(ports, bits)))["y"]
            for bits in itertools.product((0, 1), repeat=len(ports))
        )
        result = propagate_probabilities(netlist)
        assert result.probability_of(cell.outputs["y"]) == pytest.approx(
            ones / (1 << len(ports))
        )

    @pytest.mark.parametrize("cell_type", NEW_TYPES)
    def test_verilog_emits_helper_modules(self, cell_type):
        ports = cell_input_ports(cell_type)
        netlist = Netlist("v")
        nets = {port: netlist.add_input(port) for port in ports}
        cell = netlist.add_cell(cell_type, nets)
        netlist.set_output(cell.outputs["y"])
        text = to_verilog(netlist)
        assert f"REPRO_{cell_type.value}" in text

    @pytest.mark.parametrize("cell_type", NEW_TYPES)
    def test_serialize_round_trips_new_cell_types(self, cell_type):
        from repro.netlist.serialize import netlist_from_dict, netlist_to_dict

        ports = cell_input_ports(cell_type)
        netlist = Netlist("rt")
        nets = {port: netlist.add_input(port) for port in ports}
        cell = netlist.add_cell(cell_type, nets)
        netlist.set_output(cell.outputs["y"])
        snapshot = netlist_to_dict(netlist)
        rebuilt = netlist_from_dict(snapshot)
        validate_netlist(rebuilt)
        assert netlist_to_dict(rebuilt) == snapshot

    def test_target_libraries_characterize_their_whole_basis(self):
        for name in TARGET_LIBRARY_NAMES:
            library = resolve_target_library(name)
            assert CellType.BUF in basis_of(library)  # anchor cell
            for cell_type in library.cell_types():
                assert library.area(cell_type) > 0
                assert library.worst_delay(cell_type, "y") > 0
                assert library.energy(cell_type, "y") > 0

    def test_unknown_target_library_name(self):
        from repro.errors import LibraryError

        with pytest.raises(LibraryError, match="unknown target library"):
            resolve_target_library("sky130")
