"""Tests for SignalSpec."""

import pytest

from repro.errors import DesignError
from repro.expr.signals import SignalSpec


class TestBroadcasting:
    def test_scalar_arrival_broadcasts(self):
        spec = SignalSpec("x", 4, arrival=0.7)
        assert [spec.arrival_of(bit) for bit in range(4)] == [0.7, 0.7, 0.7, 0.7]
        assert spec.arrival_of(3) == 0.7
        assert spec.max_arrival() == 0.7

    def test_scalar_probability_broadcasts(self):
        spec = SignalSpec("x", 3, probability=0.25)
        assert spec.probability_profile() == [0.25, 0.25, 0.25]

    def test_per_bit_profiles(self):
        spec = SignalSpec("x", 3, arrival=[0.1, 0.2, 0.3], probability=[0.9, 0.5, 0.1])
        assert spec.arrival_of(2) == 0.3
        assert spec.probability_of(0) == 0.9
        assert spec.max_arrival() == 0.3


class TestValidation:
    def test_wrong_profile_length_rejected(self):
        with pytest.raises(DesignError):
            SignalSpec("x", 3, arrival=[0.1, 0.2])

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(DesignError):
            SignalSpec("x", 2, probability=1.5)

    def test_negative_arrival_rejected(self):
        with pytest.raises(DesignError):
            SignalSpec("x", 2, arrival=-1.0)

    def test_zero_width_rejected(self):
        with pytest.raises(DesignError):
            SignalSpec("x", 0)

    def test_bit_index_out_of_range(self):
        spec = SignalSpec("x", 2)
        with pytest.raises(DesignError):
            spec.arrival_of(2)
        with pytest.raises(DesignError):
            spec.probability_of(-1)
