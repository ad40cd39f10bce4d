"""Error-path coverage: bad configs, corrupted caches, broken netlists.

The happy paths are covered per-module; this file walks the failure
surfaces the verification subsystem leans on — every invalid
:class:`FlowConfig` shape must raise :class:`ConfigError`, every corrupted
cache entry must degrade to a miss (never an exception), and
:func:`validate_netlist` must reject each class of hand-broken netlist.
"""

import json

import pytest

from repro.api.config import FlowConfig, config_field, config_fields
from repro.errors import ConfigError, NetlistError
from repro.explore.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.explore.spec import SweepPoint
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.netlist.validate import validate_netlist


class TestInvalidFlowConfigs:
    def test_every_choice_field_rejects_bogus_values(self):
        for spec in config_fields():
            if spec.choices is None:
                continue
            bogus = 99 if spec.kind in ("int", "optional_int") else "bogus"
            value = (bogus,) if spec.kind == "names" else bogus
            with pytest.raises(ConfigError, match=spec.name):
                FlowConfig(**{spec.name: value})

    @pytest.mark.parametrize(
        "field_name,bad_value",
        [
            ("method", 3),
            ("opt_level", "two"),
            ("opt_level", True),  # bools are not opt levels
            ("use_csd_coefficients", "yes"),
            ("seed", 1.5),
            ("analyses", ("timing", 7)),
        ],
    )
    def test_type_violations(self, field_name, bad_value):
        with pytest.raises(ConfigError):
            FlowConfig(**{field_name: bad_value})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="typo_knob"):
            FlowConfig.from_dict({"method": "fa_aot", "typo_knob": 1})

    def test_unknown_field_lookup(self):
        with pytest.raises(ConfigError, match="no_such_field"):
            config_field("no_such_field")

    def test_flow_rejects_unknown_design(self):
        from repro.api.flow import Flow
        from repro.errors import DesignError

        with pytest.raises(DesignError, match="unknown design"):
            Flow(FlowConfig()).run("no_such_design")

    def test_sweep_spec_surfaces_config_errors(self):
        from repro.errors import ExplorationError

        with pytest.raises(ExplorationError):
            SweepSpec = __import__(
                "repro.explore.spec", fromlist=["SweepSpec"]
            ).SweepSpec
            SweepSpec(designs=("x2",), methods=("bogus",)).expand()


class TestCorruptedCacheEntries:
    """Every malformed on-disk entry must read as a miss, never raise."""

    @pytest.fixture()
    def point(self):
        return SweepPoint("x2")

    @pytest.fixture()
    def cache(self, tmp_path):
        return ResultCache(tmp_path)

    def _entry_path(self, cache, point):
        return cache.directory / f"{point.digest()}.json"

    def test_truncated_json_is_a_miss(self, cache, point):
        cache.put(point, {"cell_count": 1})
        path = self._entry_path(cache, point)
        path.write_text(path.read_text()[:20], encoding="utf-8")
        assert cache.get(point) is None

    def test_old_schema_version_is_a_miss(self, cache, point):
        cache.put(point, {"cell_count": 1})
        path = self._entry_path(cache, point)
        entry = json.loads(path.read_text())
        entry["schema_version"] = CACHE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(point) is None

    def test_key_collision_is_a_miss(self, cache, point):
        # an entry whose stored key disagrees with the requested point
        # (digest collision or hand-edited file) must not be served
        cache.put(point, {"cell_count": 1})
        path = self._entry_path(cache, point)
        entry = json.loads(path.read_text())
        entry["key"] = entry["key"].replace("x2", "x3")
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(point) is None

    def test_non_dict_metrics_is_a_miss(self, cache, point):
        cache.put(point, {"cell_count": 1})
        path = self._entry_path(cache, point)
        entry = json.loads(path.read_text())
        entry["metrics"] = [1, 2, 3]
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(point) is None

    def test_non_dict_entry_is_a_miss(self, cache, point):
        self._entry_path(cache, point).write_text('"just a string"', encoding="utf-8")
        assert cache.get(point) is None

    def test_rewrite_after_corruption_recovers(self, cache, point):
        self._entry_path(cache, point).write_text("garbage", encoding="utf-8")
        assert cache.get(point) is None
        cache.put(point, {"cell_count": 5})
        assert cache.get(point) == {"cell_count": 5}


def _two_gate_netlist():
    netlist = Netlist("broken_lab")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    g1 = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
    g2 = netlist.add_cell(CellType.OR2, {"a": a, "b": g1.outputs["y"]})
    netlist.set_output(g2.outputs["y"])
    return netlist


class TestHandBrokenNetlists:
    def test_multiply_driven_net(self):
        netlist = _two_gate_netlist()
        g1, g2 = netlist.cells.values()
        g2.outputs["y"] = g1.outputs["y"]  # both cells now claim one net
        with pytest.raises(NetlistError, match="multiply-driven"):
            validate_netlist(netlist)

    def test_floating_net_with_reader(self):
        netlist = _two_gate_netlist()
        ghost = netlist.add_net("ghost")
        g2 = netlist.cells["or2_2"]
        # rebind an input to a net nothing drives
        old = g2.inputs["a"]
        old.loads.remove((g2, "a"))
        g2.inputs["a"] = ghost
        ghost.loads.append((g2, "a"))
        with pytest.raises(NetlistError, match="floating"):
            validate_netlist(netlist)

    def test_combinational_cycle(self):
        netlist = _two_gate_netlist()
        g1 = netlist.cells["and2_1"]
        g2 = netlist.cells["or2_2"]
        # feed g2's output back into g1: a -> g1 -> g2 -> g1 cycle
        old = g1.inputs["a"]
        old.loads.remove((g1, "a"))
        back = g2.outputs["y"]
        g1.inputs["a"] = back
        back.loads.append((g1, "a"))
        with pytest.raises(NetlistError, match="cycle"):
            validate_netlist(netlist)

    def test_unbound_input_port(self):
        netlist = _two_gate_netlist()
        g1 = netlist.cells["and2_1"]
        del g1.inputs["b"]
        with pytest.raises(NetlistError, match="unbound"):
            validate_netlist(netlist)

    def test_driven_primary_input(self):
        netlist = _two_gate_netlist()
        g1 = netlist.cells["and2_1"]
        g1.outputs["y"].is_primary_input = True
        with pytest.raises(NetlistError, match="primary input"):
            validate_netlist(netlist)


class TestUnknownCellTypes:
    """The structural layers derive port sets from the cell table; anything
    the table does not know must fail as a NetlistError, never a bare
    ValueError/KeyError."""

    def test_snapshot_with_unknown_cell_type_is_rejected(self):
        from repro.netlist.serialize import netlist_from_dict, netlist_to_dict

        netlist = _two_gate_netlist()
        snapshot = netlist_to_dict(netlist)
        snapshot["cells"][0]["type"] = "FROBNICATOR3"
        with pytest.raises(NetlistError, match="unknown cell type 'FROBNICATOR3'"):
            netlist_from_dict(snapshot)

    def test_snapshot_type_error_names_the_cell(self):
        from repro.netlist.serialize import netlist_from_dict, netlist_to_dict

        netlist = _two_gate_netlist()
        snapshot = netlist_to_dict(netlist)
        broken_name = snapshot["cells"][1]["name"]
        snapshot["cells"][1]["type"] = "NAND9"
        with pytest.raises(NetlistError, match=broken_name):
            netlist_from_dict(snapshot)

    def test_evaluate_cell_rejects_missing_and_non_binary_inputs(self):
        from repro.netlist.cells import CellType, evaluate_cell

        with pytest.raises(NetlistError, match="missing value"):
            evaluate_cell(CellType.AOI22, {"a": 1, "b": 0, "c": 1})
        with pytest.raises(NetlistError, match="non-binary"):
            evaluate_cell(CellType.MAJ3, {"a": 2, "b": 0, "c": 1})


class TestPlacementErrorPaths:
    def _netlist(self):
        from repro.api.config import FlowConfig
        from repro.api.flow import Flow

        return Flow(FlowConfig(analyses=("stats",))).run("x2").netlist

    def test_too_small_fabric_raises_place_error(self):
        from repro.errors import DesignError, PlaceError
        from repro.place import FabricGrid, greedy_initial_placement

        netlist = self._netlist()
        with pytest.raises(PlaceError, match="too small"):
            greedy_initial_placement(netlist, FabricGrid(rows=3, cols=4))
        assert issubclass(PlaceError, DesignError)

    def test_flow_surfaces_too_small_fabric(self):
        from repro.api.config import FlowConfig
        from repro.api.flow import Flow
        from repro.errors import PlaceError

        config = FlowConfig(place=True, fabric_rows=2, fabric_cols=5)
        with pytest.raises(PlaceError, match="too small"):
            Flow(config).run("x2")

    def test_degenerate_place_knobs_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="fabric_rows"):
            FlowConfig(fabric_rows=0)
        with pytest.raises(ConfigError, match="fabric_cols"):
            FlowConfig(fabric_cols=-2)
        with pytest.raises(ConfigError, match="place_iters"):
            FlowConfig(place_iters=-5)

    def test_hand_corrupted_placements_are_rejected(self):
        from repro.errors import PlaceError
        from repro.place import (
            Placement,
            auto_size,
            check_placement,
            greedy_initial_placement,
            validate_placement,
        )

        netlist = self._netlist()
        good = greedy_initial_placement(netlist, auto_size(netlist))
        assert validate_placement(netlist, good) == []

        victims = sorted(good.origins)[:2]
        overlap = dict(good.origins)
        overlap[victims[1]] = overlap[victims[0]]
        unplaced = dict(good.origins)
        del unplaced[victims[0]]
        out_of_bounds = dict(good.origins)
        out_of_bounds[victims[0]] = (good.fabric.rows + 1, good.fabric.cols + 1)
        for origins in (overlap, unplaced, out_of_bounds):
            broken = Placement(fabric=good.fabric, origins=origins)
            assert validate_placement(netlist, broken) != []
            with pytest.raises(PlaceError, match="finding"):
                check_placement(netlist, broken)
