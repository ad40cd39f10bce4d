"""Tests for the technology library model."""

import pytest

from repro.choices import LIBRARY_NAMES, TARGET_LIBRARY_NAMES
from repro.errors import LibraryError, NetlistError
from repro.netlist.cells import CellType, cell_input_ports, cell_output_ports
from repro.netlist.core import Netlist
from repro.tech.default_libs import generic_035, resolve_library, scaled_library, unit_library
from repro.tech.library import CellSpec, TechLibrary
from repro.tech.target_libs import resolve_target_library
from repro.timing.arrival import compute_arrival_times


def _every_library():
    return [resolve_library(name) for name in LIBRARY_NAMES] + [
        resolve_target_library(name) for name in TARGET_LIBRARY_NAMES
    ]


def _error_text(call):
    with pytest.raises(LibraryError) as info:
        call()
    return str(info.value)


class TestDefaultLibraries:
    def test_generic_has_all_cells(self):
        library = generic_035()
        for cell_type in CellType:
            assert library.has_cell(cell_type)
            assert library.area(cell_type) > 0

    def test_fa_sum_slower_than_carry(self):
        library = generic_035()
        assert library.worst_delay(CellType.FA, "s") > library.worst_delay(CellType.FA, "co")

    def test_fa_delay_model_extraction(self):
        parameters = generic_035().fa_delay_model()
        assert parameters.sum_delay > parameters.carry_delay > 0
        assert parameters.ha_sum_delay > 0

    def test_fa_power_model_extraction(self):
        parameters = generic_035().fa_power_model()
        assert parameters.sum_energy > 0
        assert parameters.carry_energy > 0

    def test_unit_library_matches_paper_example(self):
        library = unit_library()
        assert library.worst_delay(CellType.FA, "s") == 2.0
        assert library.worst_delay(CellType.FA, "co") == 1.0
        assert library.energy(CellType.FA, "s") == 1.0
        assert library.energy(CellType.FA, "co") == 1.0

    def test_scaled_library_overrides_fa_only(self):
        base = generic_035()
        scaled = scaled_library(1.0, 0.5, base=base)
        assert scaled.worst_delay(CellType.FA, "s") == 1.0
        assert scaled.worst_delay(CellType.FA, "co") == 0.5
        assert scaled.area(CellType.AND2) == base.area(CellType.AND2)
        assert scaled.delay(CellType.XOR2, "a", "y") == base.delay(CellType.XOR2, "a", "y")


class TestLibraryAccess:
    def test_missing_cell_raises(self):
        library = TechLibrary("tiny", {})
        with pytest.raises(LibraryError):
            library.area(CellType.FA)

    def test_missing_energy_raises(self):
        spec = CellSpec(CellType.NOT, area=1.0, delays={("a", "y"): 0.1}, output_energy={})
        library = TechLibrary("tiny", {CellType.NOT: spec})
        with pytest.raises(LibraryError):
            library.energy(CellType.NOT, "y")

    def test_missing_arc_falls_back_to_worst(self):
        spec = CellSpec(
            CellType.FA,
            area=1.0,
            delays={("a", "s"): 0.5, ("b", "s"): 0.7, ("a", "co"): 0.2},
            output_energy={"s": 1.0, "co": 1.0},
        )
        library = TechLibrary("partial", {CellType.FA: spec})
        # arc (cin, s) is unspecified: falls back to the worst arc into s
        assert library.delay(CellType.FA, "cin", "s") == 0.7

    def test_no_arcs_into_output_raises(self):
        spec = CellSpec(CellType.HA, area=1.0, delays={("a", "s"): 0.3}, output_energy={"s": 1, "co": 1})
        library = TechLibrary("partial", {CellType.HA: spec})
        with pytest.raises(LibraryError):
            library.delay(CellType.HA, "a", "co")

    def test_bad_arc_ports_rejected(self):
        with pytest.raises(LibraryError):
            CellSpec(
                CellType.NOT, area=1.0, delays={("z", "y"): 0.1}, output_energy={"y": 1.0}
            ).validate()

    def test_bad_energy_port_rejected(self):
        with pytest.raises(LibraryError):
            CellSpec(
                CellType.NOT, area=1.0, delays={("a", "y"): 0.1}, output_energy={"q": 1.0}
            ).validate()

    def test_property1_precondition_holds_for_default_library(self):
        from repro.core.power_model import FAPowerModel

        assert FAPowerModel.from_library(generic_035()).satisfies_property1_precondition()


class TestPerCellTypeTables:
    """``output_arcs`` / ``output_energies`` are ``delay`` / ``energy`` tabulated."""

    @pytest.mark.parametrize("library", _every_library(), ids=lambda lib: lib.name)
    def test_tables_equal_the_per_arc_lookups(self, library):
        for cell_type in library.cell_types():
            arcs = library.output_arcs(cell_type)
            assert [out for out, _ in arcs] == list(cell_output_ports(cell_type))
            for out_port, row in arcs:
                assert [port for port, _ in row] == list(cell_input_ports(cell_type))
                for in_port, delay in row:
                    assert delay == library.delay(cell_type, in_port, out_port)
                assert max(d for _, d in row) == library.worst_delay(cell_type, out_port)
            assert library.output_energies(cell_type) == tuple(
                (port, library.energy(cell_type, port))
                for port in cell_output_ports(cell_type)
            )
            assert library.cell_areas()[cell_type] == library.area(cell_type)
        assert set(library.cell_areas()) == set(library.cell_types())

    def test_tables_are_memoized(self):
        library = generic_035()
        assert library.output_arcs(CellType.FA) is library.output_arcs(CellType.FA)
        assert library.output_energies(CellType.FA) is library.output_energies(CellType.FA)
        assert library.cell_areas() is library.cell_areas()

    def test_missing_arc_takes_the_worst_arc_fallback(self):
        spec = CellSpec(
            CellType.FA,
            area=1.0,
            delays={("a", "s"): 0.5, ("b", "s"): 0.7, ("a", "co"): 0.2},
            output_energy={"s": 1.0, "co": 1.0},
        )
        library = TechLibrary("partial", {CellType.FA: spec})
        assert library.output_arcs(CellType.FA) == (
            ("s", (("a", 0.5), ("b", 0.7), ("cin", 0.7))),
            ("co", (("a", 0.2), ("b", 0.2), ("cin", 0.2))),
        )

    def test_no_arc_into_an_output_raises_the_delay_error(self):
        spec = CellSpec(
            CellType.HA, area=1.0, delays={("a", "s"): 0.3}, output_energy={"s": 1, "co": 1}
        )
        library = TechLibrary("partial", {CellType.HA: spec})
        expected = _error_text(lambda: library.delay(CellType.HA, "a", "co"))
        assert _error_text(lambda: library.output_arcs(CellType.HA)) == expected

    def test_missing_cell_or_energy_raises_the_lookup_error(self):
        spec = CellSpec(CellType.NOT, area=1.0, delays={("a", "y"): 0.1}, output_energy={})
        library = TechLibrary("tiny", {CellType.NOT: spec})
        assert _error_text(lambda: library.output_energies(CellType.NOT)) == _error_text(
            lambda: library.energy(CellType.NOT, "y")
        )
        assert _error_text(lambda: library.output_arcs(CellType.FA)) == _error_text(
            lambda: library.delay(CellType.FA, "a", "s")
        )
        assert _error_text(lambda: library.output_energies(CellType.FA)) == _error_text(
            lambda: library.energy(CellType.FA, "s")
        )


class TestStaErrorOrder:
    """A cell that reads an undriven net *and* lacks an arc."""

    def _netlist(self, undriven_port):
        netlist = Netlist("order")
        a = netlist.add_input("a")
        floating = netlist.add_net("floating")
        inputs = {"a": a, "b": a}
        inputs[undriven_port] = floating
        netlist.add_cell(CellType.AND2, inputs, name="g")
        return netlist

    def test_library_gap_is_reported_before_the_undriven_input(self):
        spec = CellSpec(CellType.AND2, area=1.0, delays={}, output_energy={"y": 1.0})
        library = TechLibrary("gappy", {CellType.AND2: spec})
        for port in ("a", "b"):
            with pytest.raises(LibraryError, match="no delay arc a->y"):
                compute_arrival_times(self._netlist(port), library)

    def test_undriven_input_is_reported_when_the_library_is_complete(self):
        with pytest.raises(NetlistError, match="'floating' read by input 'b'"):
            compute_arrival_times(self._netlist("b"), generic_035())
