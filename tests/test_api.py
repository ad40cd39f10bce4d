"""Tests for the unified FlowConfig schema and the staged Flow API."""

import json
import pickle

import pytest

from repro.api import (
    DEFAULT_ANALYSES,
    STAGE_ORDER,
    Flow,
    FlowConfig,
    analysis_names,
    config_field,
    config_fields,
    register_analysis,
    register_stage,
    unregister_analysis,
)
from repro.designs.registry import get_design, list_designs
from repro.errors import ConfigError, DesignError
from repro.explore.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.explore.spec import SweepPoint, SweepSpec
from repro.utils.metrics import improvement_pct


class TestFlowConfigSchema:
    def test_roundtrip_identity(self):
        config = FlowConfig(
            method="fa_alp",
            final_adder="ripple",
            use_csd_coefficients=True,
            opt_level=2,
            seed=7,
            analyses=("timing", "stats"),
        )
        assert FlowConfig.from_dict(config.to_dict()) == config

    def test_roundtrip_through_json(self):
        config = FlowConfig(analyses=("timing",), opt_level=1)
        rebuilt = FlowConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_cache_key_stable_across_field_reordering(self):
        config = FlowConfig(method="wallace", opt_level=2)
        data = config.to_dict()
        reordered = dict(reversed(list(data.items())))
        assert FlowConfig.from_dict(reordered).cache_key() == config.cache_key()

    def test_cache_key_ignores_non_cache_fields_and_dont_cares(self):
        base = FlowConfig(method="fa_aot")
        assert FlowConfig(method="fa_aot", opt_validate=True).cache_key() == base.cache_key()
        # the seed is a don't-care for deterministic methods
        assert FlowConfig(method="fa_aot", seed=99).cache_key() == base.cache_key()
        assert FlowConfig(method="fa_random", seed=99).cache_key() != base.cache_key()
        # analyses order does not change the identity
        assert (
            FlowConfig(analyses=("stats", "power", "timing")).cache_key()
            == base.cache_key()
        )

    def test_conventional_resets_matrix_axes(self):
        config = FlowConfig(
            method="conventional",
            multiplication_style="booth",
            use_csd_coefficients=True,
            fold_square_products=True,
        ).canonical()
        assert config.multiplication_style == "and_array"
        assert not config.use_csd_coefficients and not config.fold_square_products
        # and matrix methods reset the conventional-only multiplier style
        matrix = FlowConfig(method="fa_aot", multiplier_style="array").canonical()
        assert matrix.multiplier_style == config_field("multiplier_style").default

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            FlowConfig.from_dict({"method": "fa_aot", "bogus_knob": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "magic"},
            {"final_adder": "magic"},
            {"library": "magic"},
            {"opt_level": 9},
            {"opt_level": "2"},
            {"analyses": ("timing", "voltage")},
            {"use_csd_coefficients": "yes"},
            {"seed": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FlowConfig(**kwargs)

    def test_duplicate_analyses_deduplicated_on_construction(self):
        config = FlowConfig(analyses=("power", "power", "timing"))
        assert config.analyses == ("power", "timing")
        assert config == FlowConfig(analyses=("power", "timing"))
        result = Flow(config).run("x2")
        assert result.analyses == ("power", "timing")

    def test_config_error_is_a_design_error(self):
        # callers that catch DesignError for a bad knob keep working
        assert issubclass(ConfigError, DesignError)
        with pytest.raises(DesignError):
            FlowConfig(method="magic")
        with pytest.raises(DesignError):
            FlowConfig.from_dict({"bogus_knob": True})

    def test_field_metadata_is_complete(self):
        specs = {spec.name: spec for spec in config_fields()}
        # the schema covers every flow knob
        for name in (
            "method", "final_adder", "library", "seed", "multiplier_style",
            "use_csd_coefficients", "multiplication_style",
            "fold_square_products", "opt_level", "opt_validate",
        ):
            assert name in specs
        assert all(spec.help for spec in specs.values())
        assert specs["opt_validate"].cache_relevant is False
        assert "timing" in specs["analyses"].choices


class TestStagedFlow:
    def test_run_accepts_registry_names(self):
        result = Flow().run("x2")
        assert result.design_name == "x2"
        assert result.delay_ns > 0

    def test_stage_times_recorded(self):
        config = FlowConfig(opt_level=2, target_lib="aoi_rich", place=True)
        result = Flow(config).run("x2")
        for name in STAGE_ORDER:
            assert name in result.stage_times
        assert "analyze:power" in result.stage_times
        # each stage output is stored once, read back by its accessor
        artifacts = result.stage_artifacts
        assert result.matrix_build is artifacts["frontend"]
        assert result.compression is artifacts["reduce"]
        assert result.opt_report is artifacts["optimize"]
        assert result.pre_opt_stats is artifacts["optimize"].before
        assert result.map_report is artifacts["map"]
        assert result.library is artifacts["map"].library
        assert result.place_report is artifacts["place"].report
        for name in ("timing", "power", "probabilities", "stats"):
            assert getattr(result, name) is artifacts[name]
        assert result.max_final_arrival == artifacts["reduce"].max_final_arrival

    @pytest.mark.parametrize("analyses", [DEFAULT_ANALYSES, ("timing",), ()])
    def test_record_ignores_later_netlist_edits(self, analyses):
        """The fuzz self-test mutates ``result.netlist`` after the run."""
        result = Flow(FlowConfig(analyses=analyses)).run("x2")
        record = json.dumps(result.to_dict())
        cells = result.netlist.num_cells()
        cell = next(
            cell
            for cell in result.netlist.cells.values()
            if not any(net.loads for net in cell.outputs.values())
        )
        result.netlist.remove_cell(cell, keep_output_nets=True)
        assert result.netlist.num_cells() == cells - 1
        assert json.dumps(result.to_dict()) == record

    def test_register_stage_only_replaces_a_pipeline_step(self):
        with pytest.raises(ConfigError, match="unknown flow stage"):
            register_stage("signoff")

    def test_timing_only_skips_power_and_stats(self):
        result = Flow(FlowConfig(analyses=("timing",))).run("x2")
        assert result.delay_ns > 0 and result.timing is not None
        assert result.power is None and result.probabilities is None
        assert result.stats is None
        assert result.area is None and result.total_energy is None
        assert result.cell_count == result.netlist.num_cells()
        assert "analyze:power" not in result.stage_times
        record = result.to_dict()
        assert record["delay_ns"] > 0 and record["area"] is None
        assert record["analyses"] == ["timing"]
        assert record["config"]["analyses"] == ["timing"]

    def test_no_analyses_builds_netlist_only(self):
        result = Flow(FlowConfig(analyses=())).run("x2")
        assert result.timing is None and result.delay_ns is None
        assert result.netlist.num_cells() > 0
        assert "n/a" in result.summary()

    def test_custom_analysis_registration(self):
        @register_analysis("cell_histogram")
        def cell_histogram(result):
            histogram = {}
            for cell in result.netlist.cells.values():
                histogram[cell.cell_type.name] = histogram.get(cell.cell_type.name, 0) + 1
            return histogram

        try:
            assert "cell_histogram" in analysis_names()
            assert "cell_histogram" in config_field("analyses").choices
            result = Flow(FlowConfig(analyses=("timing", "cell_histogram"))).run("x2")
            histogram = result.stage_artifacts["cell_histogram"]
            assert sum(histogram.values()) == result.netlist.num_cells()
            # registered analyses are immediately valid in sweep specs too
            points = SweepSpec(
                designs=("x2",), analyses=("timing", "cell_histogram")
            ).expand()
            assert points[0].config.analyses == ("timing", "cell_histogram")
        finally:
            unregister_analysis("cell_histogram")
        with pytest.raises(ConfigError):
            FlowConfig(analyses=("cell_histogram",))

    def test_custom_library_object_wins_over_config_name(self, unit_lib):
        result = Flow(FlowConfig()).run("x2", library=unit_lib)
        assert result.library_name == "unit"

    def test_unseeded_random_probabilities_differ_from_seeded(self):
        # seed=None is a distinct (deterministic) draw, not an alias of the
        # default seed — its cache identity differs, so must its result
        assert (
            FlowConfig(random_probabilities=True, seed=None).cache_key()
            != FlowConfig(random_probabilities=True).cache_key()
        )
        unseeded = Flow(FlowConfig(method="fa_alp", random_probabilities=True, seed=None)).run("x2")
        seeded = Flow(FlowConfig(method="fa_alp", random_probabilities=True)).run("x2")
        assert unseeded.tree_energy != seeded.tree_energy

    def test_unseeded_fa_random_is_one_draw(self):
        # seed=None has one cache identity, so every run must give one result
        config = FlowConfig(method="fa_random", seed=None)
        records = {
            json.dumps(Flow(config).run("iir").to_dict(), sort_keys=True) for _ in range(3)
        }
        assert len(records) == 1

    def test_random_probabilities_protocol_matches_legacy(self):
        from repro.designs.registry import with_random_probabilities

        design = with_random_probabilities(get_design("x2"), seed=5)
        legacy = Flow(FlowConfig(method="fa_alp")).run(design)
        via_config = Flow(
            FlowConfig(method="fa_alp", random_probabilities=True, seed=5)
        ).run("x2")
        assert legacy.tree_energy == via_config.tree_energy


class TestSchemaDrivenSweep:
    def test_point_fields_cover_every_knob(self):
        assert list(SweepPoint("x2").to_dict()) == ["design"] + [
            s.name for s in config_fields()
        ]

    def test_non_cache_knobs_reach_the_flow_but_not_the_key(self):
        # --opt-validate must survive the SweepPoint boundary...
        point = SweepPoint("x2", FlowConfig(opt_level=1, opt_validate=True))
        assert point.to_dict()["opt_validate"] is True
        assert point.config.opt_validate is True
        assert SweepSpec(
            designs=("x2",), opt_validate=True
        ).expand()[0].config.opt_validate is True
        # ...without fragmenting the result cache
        assert point.key() == SweepPoint("x2", FlowConfig(opt_level=1)).key()

    def test_point_config_roundtrip(self):
        # points cross the worker-process boundary pickled
        point = SweepPoint("iir", FlowConfig(method="fa_random", seed=3, opt_level=1))
        again = pickle.loads(pickle.dumps(point))
        assert again == point
        assert hash(again) == hash(point)
        assert again.key() == point.key()

    def test_new_axes_are_sweepable(self):
        spec = SweepSpec(
            designs=("x2",),
            methods=("fa_aot",),
            fold_square_options=(False, True),
        )
        points = spec.expand()
        assert [p.config.fold_square_products for p in points] == [False, True]
        assert points[0].key() != points[1].key()

    def test_analyses_in_cache_identity(self):
        full = SweepPoint("x2")
        fast = SweepPoint("x2", FlowConfig(analyses=("timing",)))
        assert full.key() != fast.key()
        data = json.loads(json.dumps(fast.to_dict()))
        assert SweepPoint(data.pop("design"), FlowConfig.from_dict(data)) == fast

    def test_timing_only_sweep_records(self, tmp_path):
        from repro.explore.engine import run_sweep

        designs = tuple(list_designs())
        spec = SweepSpec(designs=designs, methods=("fa_aot",), analyses=("timing",))
        sweep = run_sweep(spec, cache=tmp_path)
        assert sweep.ok
        full = run_sweep(SweepSpec(designs=designs, methods=("fa_aot",)))
        assert full.ok
        # skipping analyses never changes the netlist, so delays are equal
        delays = [(r["design_name"], r["delay_ns"]) for r in sweep.records]
        assert delays == [(r["design_name"], r["delay_ns"]) for r in full.records]
        assert all(r["delay_ns"] > 0 and r["total_energy"] is None for r in sweep.records)
        assert all(r["total_energy"] is not None for r in full.records)
        # cached round-trip preserves the records exactly
        again = run_sweep(spec, cache=tmp_path)
        assert again.cache_hits == len(designs) and again.records == sweep.records

    def test_old_schema_cache_entries_are_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint("x2")
        # a v2-era entry at the exact path of this point must be a miss
        cache._path(point).write_text(
            json.dumps(
                {
                    "schema_version": CACHE_SCHEMA_VERSION - 1,
                    "key": point.key(),
                    "point": point.to_dict(),
                    "metrics": {"delay_ns": 1.0},
                }
            ),
            encoding="utf-8",
        )
        assert cache.get(point) is None
        assert cache.misses == 1


class TestComparisonGuards:
    def test_zero_reference_returns_nan_not_raise(self):
        import math

        assert math.isnan(improvement_pct(0.0, 1.0))
        assert math.isnan(improvement_pct(0, 0))

    def test_none_reference_returns_nan(self):
        import math

        # metrics of a skipped analysis
        assert math.isnan(improvement_pct(None, 1.0))
        assert math.isnan(improvement_pct(1.0, None))

    def test_normal_improvement_unchanged(self):
        assert improvement_pct(2.0, 1.0) == pytest.approx(50.0)
        assert improvement_pct(2.0, 3.0) == pytest.approx(-50.0)

    def test_timing_only_summary_renders_na(self):
        result = Flow(FlowConfig(analyses=("timing",))).run("x2")
        assert result.delay_ns > 0
        assert result.area is None and result.tree_energy is None
        assert "n/a" in result.summary()


class TestGeneratedCli:
    def test_version_flag_reports_package_version(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_synth_flags_generated_from_schema(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        text = capsys.readouterr().out
        for spec in config_fields():
            if spec.flag is not None:
                # every schema flag appears on the synth subcommand
                assert spec.flag in text

    def test_synth_analyses_flag(self, capsys):
        from repro.cli import main

        assert main(["synth", "--design", "x2", "--analyses", "timing"]) == 0
        out = capsys.readouterr().out
        assert "delay=" in out and "n/a" in out

    def test_synth_new_knob_flags(self, capsys):
        from repro.cli import main

        code = main(
            ["synth", "--design", "x2", "--multiplication-style", "booth", "--csd"]
        )
        assert code == 0

    def test_explore_analyses_scalar(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main(
            [
                "explore", "--designs", "x2", "--methods", "fa_aot",
                "--analyses", "timing", "--json", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        record = data["points"][0]["metrics"]
        assert record["total_energy"] is None
        assert record["config"]["analyses"] == ["timing"]

    def test_compare_default_methods_preserved(self, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(["compare", "--design", "x2"])
        assert list(args.methods) == ["conventional", "csa_opt", "fa_aot"]


class TestDefaultAnalyses:
    def test_default_is_full_analysis(self):
        assert tuple(DEFAULT_ANALYSES) == ("timing", "power", "stats")
        assert tuple(FlowConfig().analyses) == tuple(DEFAULT_ANALYSES)
