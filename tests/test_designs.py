"""Tests for the benchmark design registry."""

import pytest

from repro.designs.base import DatapathDesign
from repro.designs.registry import (
    TABLE1_DESIGN_NAMES,
    TABLE2_DESIGN_NAMES,
    get_design,
    list_designs,
    with_random_probabilities,
)
from repro.errors import DesignError
from repro.expr.ast import Var
from repro.expr.signals import SignalSpec


class TestRegistry:
    def test_all_designs_instantiate(self):
        for name in list_designs():
            design = get_design(name)
            assert design.name == name
            assert design.output_width > 0
            assert design.variables()
            assert sum(design.signals[v].width for v in design.variables()) > 0
            assert design.summary()

    def test_table_lists_are_registered(self):
        assert set(TABLE1_DESIGN_NAMES) <= set(list_designs())
        assert set(TABLE2_DESIGN_NAMES) <= set(list_designs())
        assert len(TABLE1_DESIGN_NAMES) == 10
        assert len(TABLE2_DESIGN_NAMES) == 5
        assert set(TABLE2_DESIGN_NAMES) <= set(TABLE1_DESIGN_NAMES)

    def test_unknown_design_rejected(self):
        with pytest.raises(DesignError):
            get_design("does_not_exist")

    def test_each_call_returns_fresh_instance(self):
        assert get_design("x2") is not get_design("x2")

    def test_paper_widths(self):
        assert get_design("x2").signals["x"].width == 3
        assert get_design("x3").signals["x"].width == 4
        assert get_design("x2_plus_x_plus_y").signals["x"].max_arrival() == pytest.approx(0.7)
        assert get_design("square_of_sum").signals["y"].max_arrival() == pytest.approx(1.0)
        assert get_design("iir").output_width == 16
        assert get_design("kalman").output_width == 32
        assert get_design("idct").output_width == 32
        assert get_design("complex").output_width == 32
        assert get_design("serial_adapter").output_width == 16

    def test_design_expressions_evaluate(self):
        design = get_design("mixed_products")
        value = design.expression.evaluate({"x": 3, "y": 5, "z": 2})
        assert value == 3 + 5 - 2 + 15 - 10 + 10

    def test_serial_adapter_semantics(self):
        design = get_design("serial_adapter")
        env = {"a1": 10, "a2": 20, "a3": 5, "g1": 2, "g2": 3}
        assert design.expression.evaluate(env) == 10 + 20 + 5 - 2 * 10 - 3 * 20


class TestRandomProbabilities:
    def test_reproducible_and_in_range(self):
        first = with_random_probabilities(get_design("iir"), seed=42)
        second = with_random_probabilities(get_design("iir"), seed=42)
        third = with_random_probabilities(get_design("iir"), seed=43)
        for name, spec in first.signals.items():
            assert spec.probability_profile() == second.signals[name].probability_profile()
            assert all(0.05 <= p <= 0.95 for p in spec.probability_profile())
        assert any(
            first.signals[n].probability_profile() != third.signals[n].probability_profile()
            for n in first.signals
        )

    def test_arrivals_preserved(self):
        base = get_design("x2_plus_x_plus_y")
        randomized = with_random_probabilities(base, seed=1)
        assert randomized.signals["x"].max_arrival() == base.signals["x"].max_arrival()


class TestDatapathDesign:
    def test_missing_signal_rejected(self):
        x, y = Var("x"), Var("y")
        with pytest.raises(DesignError):
            DatapathDesign(
                name="broken",
                title="broken",
                expression=x + y,
                signals={"x": SignalSpec("x", 2)},
                output_width=4,
            )

    def test_bad_width_rejected(self):
        x = Var("x")
        with pytest.raises(DesignError):
            DatapathDesign(
                name="broken",
                title="broken",
                expression=x,
                signals={"x": SignalSpec("x", 2)},
                output_width=0,
            )

    def test_with_signals_copy(self):
        design = get_design("x2")
        modified = design.with_signals({"x": SignalSpec("x", 3, arrival=9.0)})
        assert modified.signals["x"].max_arrival() == 9.0
        assert design.signals["x"].max_arrival() == 0.0
        assert modified.name == design.name
