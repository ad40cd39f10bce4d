"""Tests for static timing analysis and critical-path extraction."""

import pytest

from repro.adders.factory import build_final_adder
from repro.api import Flow, FlowConfig
from repro.bitmatrix.builder import build_addend_matrix
from repro.core.delay_model import FADelayModel
from repro.core.fa_aot import fa_aot
from repro.designs.registry import list_designs
from repro.errors import NetlistError
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.tech.default_libs import generic_035, resolve_library
from repro.tech.library import CellSpec, TechLibrary
from repro.timing.arrival import compute_arrival_times
from repro.timing.critical_path import extract_critical_path
from repro.timing.report import timing_report


def _chain_netlist():
    """a -> NOT -> AND(b) -> XOR(c) chain with known delays."""
    netlist = Netlist("chain")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    inv = netlist.add_cell(CellType.NOT, {"a": a})
    gate = netlist.add_cell(CellType.AND2, {"a": inv.outputs["y"], "b": b})
    xor = netlist.add_cell(CellType.XOR2, {"a": gate.outputs["y"], "b": c})
    netlist.set_output(xor.outputs["y"])
    return netlist, xor.outputs["y"]


class TestArrivalPropagation:
    def test_chain_delay(self, unit_lib):
        netlist, out = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        # three unit-delay gates in a chain
        assert timing.arrival_of(out) == pytest.approx(3.0)
        assert timing.delay == pytest.approx(3.0)

    def test_explicit_input_arrivals(self, unit_lib):
        netlist, out = _chain_netlist()
        netlist.annotate(netlist.nets["c"], arrival=10.0)
        timing = compute_arrival_times(netlist, unit_lib)
        assert timing.arrival_of(out) == pytest.approx(11.0)
        assert timing.arrival_of("c") == 10.0

    def test_attribute_arrivals_used(self, unit_lib):
        netlist, out = _chain_netlist()
        assert compute_arrival_times(netlist, unit_lib).arrival_of(out) == 3.0
        # annotating after a sweep is a mutation: the next sweep reads it
        netlist.annotate(netlist.nets["a"], arrival=5.0)
        timing = compute_arrival_times(netlist, unit_lib)
        assert timing.arrival_of(out) == pytest.approx(8.0)

    def test_outputs_never_earlier_than_inputs(self, library, x2_design):
        build = build_addend_matrix(
            x2_design.expression, x2_design.signals, x2_design.output_width, library=library
        )
        result = fa_aot(build.netlist, build.matrix)
        rows = [[a.net if a else None for a in row] for row in result.rows]
        bus = build_final_adder(build.netlist, rows[0], rows[1], x2_design.output_width)
        build.netlist.set_output_bus(bus)
        timing = compute_arrival_times(build.netlist, library)
        worst_input = max(timing.arrivals[n.name] for n in build.netlist.primary_inputs)
        assert timing.delay >= worst_input

    def test_arrival_missing_net_raises(self, unit_lib):
        netlist, _ = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        with pytest.raises(NetlistError):
            timing.arrival_of("missing_net")

    def test_negative_input_arrivals_propagate(self, unit_lib):
        # regression: the worst-arc fold used to start at 0.0, silently
        # clamping early-mode (negative) arrivals to zero at the first gate
        netlist, out = _chain_netlist()
        for net in netlist.primary_inputs:
            netlist.annotate(net, arrival=-5.0)
        timing = compute_arrival_times(netlist, unit_lib)
        assert timing.arrival_of(out) == pytest.approx(-2.0)
        for net in netlist.primary_inputs:
            netlist.annotate(net, arrival=-4.0)
        mixed = compute_arrival_times(netlist, unit_lib)
        assert mixed.arrival_of(out) == pytest.approx(-1.0)

    def test_floating_cell_input_raises_naming_net_and_cell(self, unit_lib):
        # regression: a cell input with no arrival source used to default to
        # time 0.0 via arrivals.get(..., 0.0), masking a broken netlist
        netlist = Netlist("floating")
        a = netlist.add_input("a")
        loose = netlist.add_net("loose")
        netlist.add_cell(CellType.AND2, {"a": a, "b": loose}, name="reader")
        with pytest.raises(NetlistError, match=r"'loose'.*'reader'.*undriven"):
            compute_arrival_times(netlist, unit_lib)


def _o0_flow(design, method, library=None):
    config = FlowConfig(
        method=method,
        opt_level=0,
        library="generic_035",
        analyses=("timing", "power"),
    )
    return Flow(config).run(design, library=library)


def _annotated_nets(netlist):
    """The nets a reducer annotated (primary inputs carry the signal spec)."""
    return (
        net
        for net in netlist.nets.values()
        if "arrival" in net.attributes and not net.is_primary_input
    )


def _signoff_disagreements(result):
    """One ``net: ...`` line per annotated arrival or probability that differs
    from sign-off STA or probability propagation."""
    lines = []
    for net in _annotated_nets(result.netlist):
        for key, signoff in (
            ("arrival", result.timing.arrival_of(net)),
            ("probability", result.probabilities.probability_of(net)),
        ):
            if net.attributes[key] != signoff:
                lines.append(
                    f"{net.name}: annotated {key} {net.attributes[key]!r}, "
                    f"sign-off {signoff!r}"
                )
    return lines


class TestAllocationModelAgreement:
    def test_sta_matches_allocation_arrivals_for_fa_tree(self, unit_lib):
        """On an FA/HA-only structure the STA and the Ds/Dc allocation model agree."""
        expression = parse_expression("x + y + z + w")
        signals = {
            name: SignalSpec(name, 3, arrival=[0.0, 1.0, 2.0]) for name in ("x", "y", "z", "w")
        }
        build = build_addend_matrix(expression, signals, 5, library=unit_lib)
        result = fa_aot(
            build.netlist, build.matrix, FADelayModel.from_library(unit_lib)
        )
        timing = compute_arrival_times(build.netlist, unit_lib)
        for addend in result.final_addends():
            assert timing.arrivals[addend.net.name] == pytest.approx(addend.arrival)

    @pytest.mark.parametrize("design", list_designs())
    def test_reducer_annotations_equal_signoff_at_o0(self, design):
        """At -O0 on ``generic_035``, every arrival and probability the reducer
        annotated is exactly what sign-off STA and propagation compute."""
        for method in ("fa_aot", "fa_alp", "wallace", "csa_opt"):
            result = _o0_flow(design, method)
            assert any(_annotated_nets(result.netlist)), method
            assert _signoff_disagreements(result) == [], method

    def test_per_pin_fa_arcs_break_the_agreement(self):
        """Slower ``a``/``b`` than ``cin`` arcs leave the Ds/Dc model (the
        worst arc) unchanged but make sign-off earlier on cin-critical FAs:
        the comparison must report that, naming an FA output net."""
        base = generic_035()
        fa = base.spec(CellType.FA)
        cells = {t: base.spec(t) for t in CellType if base.has_cell(t)}
        cells[CellType.FA] = CellSpec(
            cell_type=CellType.FA,
            area=fa.area,
            delays={**fa.delays, ("cin", "s"): 0.30, ("cin", "co"): 0.20},
            output_energy=dict(fa.output_energy),
        )
        library = TechLibrary("generic_035_per_pin_fa", cells)
        parameters = library.fa_delay_model()
        assert (parameters.sum_delay, parameters.carry_delay) == (0.42, 0.28)
        result = _o0_flow("x3", "fa_aot", library=library)
        disagreements = _signoff_disagreements(result)
        assert disagreements
        first = disagreements[0].split(":")[0]
        driver, _port = result.netlist.nets[first].driver
        assert driver.cell_type is CellType.FA, disagreements[0]


class TestCriticalPath:
    def test_path_is_connected_and_ends_at_worst_output(self, unit_lib):
        netlist, out = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        path = extract_critical_path(netlist, unit_lib, timing)
        assert path[-1].net_name == out.name
        assert path[0].cell_name is None  # starts at a primary input
        arrivals = [step.arrival for step in path]
        assert arrivals == sorted(arrivals)

    def test_path_length_matches_depth(self, unit_lib):
        netlist, _ = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        path = extract_critical_path(netlist, unit_lib, timing)
        assert len(path) == 4  # input + three gates

    def test_explicit_target(self, unit_lib):
        netlist, _ = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        path = extract_critical_path(netlist, unit_lib, timing, target="a")
        assert len(path) == 1

    def test_unknown_target_rejected(self, unit_lib):
        netlist, _ = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        with pytest.raises(NetlistError):
            extract_critical_path(netlist, unit_lib, timing, target="missing")

    def test_report_renders(self, unit_lib):
        netlist, _ = _chain_netlist()
        timing = compute_arrival_times(netlist, unit_lib)
        text = timing_report(netlist, unit_lib, timing)
        assert "design delay" in text
        assert "critical path" in text


@pytest.mark.parametrize("place", [False, True])
@pytest.mark.parametrize("design", list_designs())
def test_critical_path_hops_match_wire_aware_arrivals(design, place):
    """Every hop is an exact arc, wire delay included, ending at the design delay."""
    result = Flow(FlowConfig(place=place)).run(design)
    library = resolve_library(result.library_name)
    timing = result.timing
    assert bool(timing.net_delays) == place
    path = extract_critical_path(result.netlist, library, timing)
    assert path[0].cell_name is None
    assert path[-1].arrival == timing.delay
    for previous, step in zip(path, path[1:]):
        cell, out_port = result.netlist.nets[step.net_name].driver
        assert cell.inputs[step.through_port].name == previous.net_name
        arc = library.delay(cell.cell_type, step.through_port, out_port)
        wire = timing.net_delays.get(step.net_name, 0.0)
        assert previous.arrival + arc + wire == step.arrival
