"""Tests for the design-space exploration subsystem (repro.explore)."""

import json

import pytest

from repro.api import FlowConfig
from repro.cli import main
from repro.errors import ExplorationError
from repro.explore.analysis import (
    best_per_design,
    improvement_matrix,
    pareto_front,
    pareto_front_by_design,
)
from repro.explore.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.explore.engine import execute_point, run_sweep
from repro.explore.spec import SweepPoint, SweepSpec, table1_spec, table2_spec
from repro.designs.registry import get_design
from repro.report.tables import table1_report, table2_report


def _record(design="d", method="m", delay=1.0, area=1.0, energy=1.0):
    """Hand-built metric record with the FlowResult.to_dict shape."""
    return {
        "design_name": design,
        "method": method,
        "final_adder": "cla",
        "library_name": "generic_035",
        "output_width": 8,
        "delay_ns": delay,
        "area": area,
        "total_energy": energy,
        "tree_energy": energy,
        "cell_count": 10,
        "fa_count": 4,
        "ha_count": 1,
        "max_final_arrival": delay,
        "opt_level": 0,
        "pre_opt_cell_count": None,
        "opt_cells_removed": None,
        "place_hpwl": None,
        "cts_skew_ns": None,
        "notes": [],
    }


class TestSweepSpec:
    def test_grid_expansion_size_and_order(self):
        spec = SweepSpec(
            designs=["x2", "x3"],
            methods=["fa_aot", "wallace"],
            final_adders=["cla", "ripple"],
        )
        points = spec.expand()
        assert len(points) == 8
        # designs are the outermost axis
        assert [p.design for p in points[:4]] == ["x2"] * 4
        assert points[0] == SweepPoint("x2", FlowConfig(method="fa_aot", final_adder="cla"))

    def test_constraint_filtering(self):
        spec = SweepSpec(
            designs=["x2", "x3"],
            methods=["fa_aot", "wallace"],
            constraints=[lambda p: p.config.method == "fa_aot"],
        )
        points = spec.expand()
        assert len(points) == 2
        assert all(p.config.method == "fa_aot" for p in points)

    def test_conventional_points_deduplicated_across_matrix_axes(self):
        # 'conventional' ignores multiplication style and CSD, so the grid
        # must not schedule it once per style/CSD combination
        spec = SweepSpec(
            designs=["x2"],
            methods=["conventional", "fa_aot"],
            multiplication_styles=["and_array", "booth"],
            csd_options=[False, True],
        )
        points = spec.expand()
        conventional = [p for p in points if p.config.method == "conventional"]
        matrix = [p for p in points if p.config.method == "fa_aot"]
        assert len(conventional) == 1
        assert len(matrix) == 4

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ExplorationError):
            SweepSpec(designs=["nope"]).expand()
        with pytest.raises(ExplorationError):
            SweepSpec(designs=["x2"], methods=["bogus"]).expand()
        with pytest.raises(ExplorationError):
            SweepSpec(designs=[]).expand()

    def test_point_roundtrip_and_key_stability(self):
        point = SweepPoint("iir", FlowConfig(method="fa_alp", seed=7))
        data = point.to_dict()
        rebuilt = SweepPoint(data.pop("design"), FlowConfig.from_dict(data))
        assert rebuilt == point
        assert rebuilt.key() == point.key()
        assert point.digest() != SweepPoint("iir", FlowConfig(method="fa_aot")).digest()

    def test_seed_reset_for_deterministic_methods(self):
        # fa_aot ignores the seed, so a multi-seed grid must not schedule
        # (or cache) the same deterministic synthesis three times
        spec = SweepSpec(designs=["x2"], methods=["fa_aot", "fa_random"], seeds=[1, 2, 3])
        points = spec.expand()
        assert len([p for p in points if p.config.method == "fa_aot"]) == 1
        assert len([p for p in points if p.config.method == "fa_random"]) == 3
        # but the seed is kept when the random-probability protocol uses it
        randp = SweepSpec(
            designs=["x2"], methods=["fa_aot"], random_probabilities=True, seeds=[1, 2]
        ).expand()
        assert sorted(p.config.seed for p in randp) == [1, 2]

    def test_table_presets(self):
        t1 = table1_spec(["x2"]).expand()
        assert [p.config.method for p in t1] == ["conventional", "csa_opt", "fa_aot"]
        t2 = table2_spec(["x2"], seed=5).expand()
        assert [p.config.method for p in t2] == ["fa_random", "fa_alp"]
        assert all(p.config.random_probabilities and p.config.seed == 5 for p in t2)


class TestCacheIdentity:
    """Literal cache identities: on-disk caches are keyed by :meth:`digest`
    and checked against :meth:`key`, so a change here orphans every
    existing cache entry (bump ``CACHE_SCHEMA_VERSION`` if intended)."""

    def test_default_point_key_and_digest(self):
        point = SweepPoint("x2")
        assert point.key() == (
            '{"analyses":["timing","power","stats"],"design":"x2",'
            '"fabric_cols":null,"fabric_rows":null,"final_adder":"cla",'
            '"fold_square_products":false,"library":"generic_035",'
            '"map_objective":"balanced","method":"fa_aot",'
            '"multiplication_style":"and_array","multiplier_style":"wallace_cpa",'
            '"opt_level":0,"place":false,"place_iters":2000,"place_seed":1,'
            '"random_probabilities":false,"seed":2000,"target_lib":"generic",'
            '"use_csd_coefficients":false}'
        )
        assert point.digest() == "ebadba026f1f76db43c183e56fe882a7"

    def test_mapped_random_point_digest_and_label(self):
        point = SweepPoint(
            "iir",
            FlowConfig(
                method="fa_random",
                seed=7,
                opt_level=2,
                target_lib="nand2_basis",
                map_objective="delay",
            ),
        )
        assert point.digest() == "32f117c54668ad6ac46ed044ba6e6bad"
        assert point.label() == "iir/fa_random/cla/O2/nand2_basis:delay"

    def test_every_label_part(self):
        point = SweepPoint(
            "x3",
            FlowConfig(
                method="fa_alp",
                library="unit",
                multiplication_style="booth",
                use_csd_coefficients=True,
                fold_square_products=True,
                random_probabilities=True,
                seed=3,
                place=True,
                fabric_rows=4,
                place_seed=2,
                place_iters=100,
                analyses=("timing",),
            ),
        )
        assert point.label() == (
            "x3/fa_alp/cla/unit/booth/csd/foldsq/randp3/place4xauto:s2:i100/a:timing"
        )
        assert point.digest() == "50f777c77e776f67588db4288e84fe95"
        conventional = SweepPoint("x2", FlowConfig(method="conventional", multiplier_style="array"))
        assert conventional.label() == "x2/conventional/cla/array"
        assert conventional.digest() == "778c8adf583aca3030a21a26ec2d61aa"


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint("x2")
        assert cache.get(point) is None
        metrics = _record("x2", "fa_aot")
        cache.put(point, metrics)
        assert cache.get(point) == metrics
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_entry_is_one_sorted_json_document(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint("x2")
        metrics = _record("x2", "fa_aot")
        path = cache.put(point, metrics, telemetry={"wall_s": 0.5})
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": point.key(),
            "point": point.to_dict(),
            "metrics": metrics,
            "telemetry": {"wall_s": 0.5},
        }
        assert path.read_bytes() == json.dumps(entry, sort_keys=True).encode("utf-8")

    def test_corrupt_and_mismatched_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint("x2")
        cache._path(point).write_text("not json", encoding="utf-8")
        assert cache.get(point) is None
        cache._path(point).write_text(
            json.dumps({"schema_version": -1, "key": point.key(), "metrics": {}}),
            encoding="utf-8",
        )
        assert cache.get(point) is None


class TestEngine:
    def test_serial_sweep_produces_records(self):
        sweep = run_sweep(SweepSpec(designs=["x2"], methods=["fa_aot", "wallace"]))
        assert sweep.ok
        assert len(sweep.records) == 2
        assert {r["method"] for r in sweep.records} == {"fa_aot", "wallace"}
        assert all(r["delay_ns"] > 0 for r in sweep.records)

    def test_per_point_error_capture(self):
        # bypass expand() validation to inject a failing point
        good = SweepPoint("x2", FlowConfig(method="fa_aot"))
        bad = SweepPoint("does_not_exist", FlowConfig(method="fa_aot"))
        sweep = run_sweep([good, bad])
        assert not sweep.ok
        assert len(sweep.outcomes) == 2
        assert sweep.outcomes[0].ok
        assert "DesignError" in sweep.outcomes[1].error
        assert len(sweep.records) == 1

    def test_parallel_matches_serial(self):
        spec = SweepSpec(designs=["x2"], methods=["fa_aot", "wallace", "dadda"])
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert parallel.ok
        assert serial.records == parallel.records

    def test_cache_hits_on_second_run(self, tmp_path):
        spec = SweepSpec(designs=["x2"], methods=["fa_aot", "wallace"])
        first = run_sweep(spec, cache=tmp_path)
        assert first.cache_hits == 0 and first.cache_misses == 2
        second = run_sweep(spec, cache=tmp_path)
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert [o.cached for o in second.outcomes] == [True, True]
        assert first.records == second.records

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(
            SweepSpec(designs=["x2"], methods=["fa_aot", "wallace"]),
            progress=lambda outcome, done, total: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_execute_point_matches_flow_metrics(self):
        from repro.api import Flow

        point = SweepPoint("x2", FlowConfig(method="fa_aot"))
        direct = Flow(FlowConfig(method="fa_aot")).run(get_design("x2"))
        assert execute_point(point).to_dict() == direct.to_dict()


class TestAnalysis:
    def test_pareto_front_hand_built(self):
        a = _record("d1", "a", delay=1.0, area=5.0, energy=5.0)
        b = _record("d1", "b", delay=5.0, area=1.0, energy=5.0)
        c = _record("d1", "c", delay=2.0, area=2.0, energy=2.0)
        dominated = _record("d1", "x", delay=3.0, area=3.0, energy=3.0)
        front = pareto_front([a, b, dominated, c])
        assert front == [a, b, c]

    def test_pareto_keeps_ties(self):
        a = _record("d1", "a", delay=1.0, area=1.0, energy=1.0)
        twin = _record("d1", "b", delay=1.0, area=1.0, energy=1.0)
        assert pareto_front([a, twin]) == [a, twin]

    def test_pareto_front_by_design_isolates_designs(self):
        # a small design's points must not dominate a big design's points
        small = _record("small", "a", delay=1.0, area=1.0, energy=1.0)
        big = _record("big", "a", delay=9.0, area=9.0, energy=9.0)
        big_worse = _record("big", "b", delay=10.0, area=10.0, energy=10.0)
        fronts = pareto_front_by_design([small, big, big_worse])
        assert fronts["small"] == [small]
        assert fronts["big"] == [big]

    def test_best_per_design(self):
        records = [
            _record("d1", "a", delay=2.0),
            _record("d1", "b", delay=1.0),
            _record("d2", "a", delay=3.0),
        ]
        best = best_per_design(records, "delay_ns")
        assert best["d1"]["method"] == "b"
        assert best["d2"]["method"] == "a"

    def test_improvement_matrix(self):
        records = [
            _record("d1", "ref", delay=4.0),
            _record("d1", "fast", delay=3.0),
            _record("d2", "fast", delay=1.0),  # no reference -> skipped
        ]
        matrix = improvement_matrix(records, "ref", "delay_ns")
        assert matrix["d1"]["fast"] == pytest.approx(25.0)
        assert "d2" not in matrix

    def test_improvement_matrix_zero_reference_is_nan(self):
        # a zero reference has no meaningful percentage: NaN, never 0.0 %
        import math

        records = [
            _record("d", "ref", delay=0.0),
            _record("d", "new", delay=0.0),
        ]
        matrix = improvement_matrix(records, "ref", "delay_ns")
        assert math.isnan(matrix["d"]["ref"])
        assert math.isnan(matrix["d"]["new"])


class TestTableReports:
    def test_table1_reads_live_and_sweep_records_alike(self):
        # records of fresh flow runs and of a sweep render the same Table 1
        from repro.api import Flow, FlowConfig

        designs = [get_design("x2")]
        live = table1_report(
            [
                Flow(FlowConfig(method=method)).run("x2").to_dict()
                for method in ("conventional", "csa_opt", "fa_aot")
            ],
            designs,
        )
        sweep = run_sweep(table1_spec(["x2"]))
        assert table1_report(sweep.records, designs) == live

    def test_table1_duplicate_designs_render_two_rows(self):
        # `table1 --designs x2 x2` must render two full rows, like the
        # legacy per-design loop did
        designs = [get_design("x2"), get_design("x2")]
        sweep = run_sweep(table1_spec(["x2"]))
        text = table1_report(sweep.records, designs)
        rows = [line for line in text.splitlines() if line.startswith("X^2")]
        assert len(rows) == 2 and rows[0] == rows[1]
        assert "Table 1" in text

    def test_table2_report_smoke(self):
        sweep = run_sweep(table2_spec(["x2"]))
        text = table2_report(sweep.records, [get_design("x2")])
        assert "Table 2" in text


class TestExploreCli:
    def test_explore_json_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "explore",
                "--designs", "x2",
                "--methods", "fa_aot", "wallace",
                "--json", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.explore.sweep"
        assert len(data["points"]) == 2
        assert all(record["ok"] for record in data["points"])
        assert data["points"][0]["metrics"]["delay_ns"] > 0

    def test_explore_csv_and_pareto(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "explore",
                "--designs", "x2",
                "--methods", "fa_aot", "wallace",
                "--csv", str(out),
                "--pareto",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 points
        assert lines[0].startswith("design,method,")
        assert "Pareto front" in capsys.readouterr().out

    def test_explore_cache_reuse(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "explore",
            "--designs", "x2",
            "--methods", "fa_aot",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_explore_jobs_parallel(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "explore",
                "--designs", "x2",
                "--methods", "fa_aot", "wallace", "dadda",
                "--jobs", "2",
                "--json", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 3

    def test_table1_cli_unchanged_by_engine(self, capsys):
        assert main(["table1", "--designs", "x2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_synth_json_flag(self, tmp_path, capsys):
        out = tmp_path / "synth.json"
        assert main(["synth", "--design", "x2", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["design_name"] == "x2" and data["method"] == "fa_aot"

    def test_compare_json_flag_stdout(self, capsys):
        assert main(
            ["compare", "--design", "x2", "--methods", "fa_aot", "--json", "-"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["design"] == "x2"
        assert payload["results"][0]["method"] == "fa_aot"


class TestOptAxis:
    def test_opt_levels_expand_and_label(self):
        spec = SweepSpec(designs=("x2",), methods=("fa_aot",), opt_levels=(0, 2))
        points = spec.expand()
        assert [p.config.opt_level for p in points] == [0, 2]
        assert points[0].label() == "x2/fa_aot/cla"
        assert points[1].label().endswith("/O2")

    def test_opt_level_distinguishes_cache_keys(self):
        base = SweepPoint("x2")
        optimized = SweepPoint("x2", FlowConfig(opt_level=2))
        assert base.key() != optimized.key()
        assert base.digest() != optimized.digest()
        assert optimized.to_dict()["opt_level"] == 2

    def test_unknown_opt_level_rejected(self):
        spec = SweepSpec(designs=("x2",), opt_levels=(9,))
        with pytest.raises(ExplorationError):
            spec.expand()

    def test_sweep_runs_optimized_points(self, tmp_path):
        spec = SweepSpec(designs=("x2",), methods=("fa_aot",), opt_levels=(0, 2))
        sweep = run_sweep(spec, cache=tmp_path / "cache")
        assert sweep.ok
        plain, optimized = sweep.records
        assert plain["opt_level"] == 0 and optimized["opt_level"] == 2
        assert optimized["cell_count"] < plain["cell_count"]
        assert optimized["opt_cells_removed"] > 0
        # cached re-run round-trips the opt metrics
        again = run_sweep(spec, cache=tmp_path / "cache")
        assert again.cache_hits == 2
        assert again.records == sweep.records
