"""Tests for the full-matrix compressor-tree builder."""

import re

import pytest

from repro.api import Flow, FlowConfig
from repro.api.config import MATRIX_METHODS
from repro.bitmatrix.builder import build_addend_matrix
from repro.core.delay_model import FADelayModel
from repro.core.fa_alp import fa_alp
from repro.core.fa_aot import fa_aot
from repro.core.fa_random import fa_random
from repro.core.policies import EarliestArrivalPolicy
from repro.core.tree_builder import CompressorTreeBuilder
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType
from repro.power.probability import propagate_probabilities
from repro.power.switching import compressor_tree_switching_energy


def _build(expression_text, widths, output_width, **signal_kwargs):
    expression = parse_expression(expression_text)
    signals = {
        name: SignalSpec(name, width, **signal_kwargs.get(name, {}))
        for name, width in widths.items()
    }
    return build_addend_matrix(expression, signals, output_width)


class TestCompressionInvariants:
    def test_every_column_reduced(self):
        build = _build("x*y + x + y + 9", {"x": 4, "y": 4}, 9)
        result = fa_aot(build.netlist, build.matrix)
        assert all(height <= 2 for height in [sum(a is not None for a in pair) for pair in zip(*result.rows)])
        assert result.width == 9

    def test_input_matrix_not_mutated(self):
        build = _build("x*y", {"x": 3, "y": 3}, 6)
        heights_before = build.matrix.heights()
        fa_aot(build.netlist, build.matrix)
        assert build.matrix.heights() == heights_before

    def test_cell_counts_match_netlist(self):
        build = _build("x*y + y*z", {"x": 3, "y": 3, "z": 3}, 7)
        result = fa_alp(build.netlist, build.matrix)
        assert result.fa_count == len(build.netlist.cells_of_type(CellType.FA))
        assert result.ha_count == len(build.netlist.cells_of_type(CellType.HA))
        assert result.fa_count == len(result.fa_cells)
        assert result.ha_count == len(result.ha_cells)

    def test_rows_are_column_consistent(self):
        build = _build("x*x + 3*x", {"x": 4}, 8)
        result = fa_aot(build.netlist, build.matrix)
        for row in result.rows:
            for column, addend in enumerate(row):
                if addend is not None:
                    assert addend.column == column

    def test_tree_energy_positive_and_reported(self):
        build = _build("x*y + z", {"x": 3, "y": 3, "z": 3}, 7)
        result = fa_random(build.netlist, build.matrix, seed=5)
        assert result.tree_switching_energy > 0
        assert "FAs=" in result.summary()

    def test_max_final_arrival_matches_rows(self):
        build = _build("x + y + z", {"x": 4, "y": 4, "z": 4}, 5)
        result = fa_aot(build.netlist, build.matrix, FADelayModel(2.0, 1.0))
        arrivals = [a.arrival for a in result.final_addends()]
        assert result.max_final_arrival == pytest.approx(max(arrivals))
        per_column = [[a.arrival for a in pair if a is not None] for pair in zip(*result.rows)]
        assert max(max(v) for v in per_column if v) == pytest.approx(
            result.max_final_arrival
        )

    def test_fa_random_reproducible(self):
        first = _build("x*y + z", {"x": 3, "y": 3, "z": 3}, 7)
        second = _build("x*y + z", {"x": 3, "y": 3, "z": 3}, 7)
        result_a = fa_random(first.netlist, first.matrix, seed=11)
        result_b = fa_random(second.netlist, second.matrix, seed=11)
        assert result_a.fa_count == result_b.fa_count
        assert result_a.tree_switching_energy == pytest.approx(result_b.tree_switching_energy)

    def test_builder_direct_use(self):
        build = _build("x + y", {"x": 3, "y": 3}, 4)
        builder = CompressorTreeBuilder(build.netlist, build.matrix)
        result = builder.run(EarliestArrivalPolicy())
        assert result.policy_name == "earliest_arrival"
        assert all(h <= 2 for h in [sum(a is not None for a in pair) for pair in zip(*result.rows)])

    def test_empty_matrix(self):
        build = _build("0", {}, 4)
        result = fa_aot(build.netlist, build.matrix)
        assert result.fa_count == 0
        assert [sum(a is not None for a in pair) for pair in zip(*result.rows)] == [0, 0, 0, 0]
        assert result.max_final_arrival == 0.0


class TestColumnInteraction:
    def test_interaction_no_worse_than_isolation(self):
        build_interaction = _build(
            "x + y + z + w",
            {"x": 4, "y": 4, "z": 4, "w": 4},
            6,
            x={"arrival": [3.0, 3.0, 3.0, 3.0]},
            y={"arrival": [0.5, 1.0, 1.5, 2.0]},
        )
        build_isolation = _build(
            "x + y + z + w",
            {"x": 4, "y": 4, "z": 4, "w": 4},
            6,
            x={"arrival": [3.0, 3.0, 3.0, 3.0]},
            y={"arrival": [0.5, 1.0, 1.5, 2.0]},
        )
        model = FADelayModel(2.0, 1.0)
        interaction = fa_aot(build_interaction.netlist, build_interaction.matrix, model)
        isolation = fa_aot(
            build_isolation.netlist, build_isolation.matrix, model, column_interaction=False
        )
        assert interaction.max_final_arrival <= isolation.max_final_arrival + 1e-9


DROPPED = re.compile(r"(\d+) carries beyond column \d+ were dropped")


class TestEveryReducerAccountsForItsTree:
    """One FA/HA step serves every matrix method, so every method reports
    the carries it drops and charges every cell's energy to its tree."""

    @pytest.mark.parametrize("design", ["iir", "kalman", "serial_adapter"])
    @pytest.mark.parametrize("method", MATRIX_METHODS)
    def test_dropped_carries_noted_and_tree_energy_summed(self, method, design):
        result = Flow(FlowConfig(method=method, opt_level=0)).run(design)
        compression, netlist = result.compression, result.netlist
        unread = sum(
            1
            for cell in compression.fa_cells + compression.ha_cells
            if not cell.outputs["co"].loads
            and not netlist.is_primary_output(cell.outputs["co"])
        )
        noted = [int(match.group(1)) for match in map(DROPPED.match, result.notes) if match]
        assert noted == ([unread] if unread else [])

        expected = compressor_tree_switching_energy(
            compression.fa_cells + compression.ha_cells,
            propagate_probabilities(netlist),
            result.power_model,
        )
        assert compression.tree_switching_energy == pytest.approx(expected, rel=1e-9)
