"""Tests for the verification subsystem (repro.verify)."""

import json

import pytest

from repro.api.config import FlowConfig, config_fields
from repro.api.flow import Flow
from repro.cli import main
from repro.errors import VerificationError
from repro.explore.engine import parallel_map
from repro.explore.spec import SweepPoint
from repro.netlist.validate import validate_netlist
from repro.opt.manager import PassManager
from repro.sim.equivalence import check_equivalence
from repro.verify import (
    BrokenAndToOrPass,
    BrokenDropCarryPass,
    VerifyReport,
    bless_golden,
    case_seed,
    check_point,
    check_property,
    compare_to_golden,
    default_domain,
    golden_points,
    load_golden,
    property_names,
    run_fuzz,
    run_golden,
    run_metamorphic,
    run_self_test,
    run_verify,
    sample_points,
    write_report,
)

SMALL = ("x2", "x2_plus_x_plus_y")


class TestSampling:
    def test_reproducible_from_seed(self):
        a = sample_points(6, seed=11)
        b = sample_points(6, seed=11)
        assert a == b
        assert sample_points(6, seed=12) != a

    def test_points_are_valid_configs(self):
        for point in sample_points(20, seed=0):
            config = FlowConfig.from_dict(point.config.to_dict())  # re-validates
            assert config == point.config
            assert config.opt_validate is True

    def test_distinct_canonical_cases(self):
        points = sample_points(20, seed=3)
        keys = {point.canonical().key() for point in points}
        assert len(keys) == len(points)

    def test_design_restriction(self):
        points = sample_points(10, seed=0, designs=("x2",))
        assert {point.design for point in points} == {"x2"}

    def test_domain_restriction(self):
        domain = default_domain()
        domain["method"] = ("fa_aot",)
        domain["opt_level"] = (0,)
        for point in sample_points(10, seed=0, domain=domain):
            assert point.config.method == "fa_aot"
            assert point.config.opt_level == 0

    def test_domain_covers_every_unpinned_schema_field(self):
        domain = default_domain()
        for spec in config_fields():
            if spec.name in ("analyses", "opt_validate", "map_validate"):
                assert spec.name not in domain
            else:
                assert spec.name in domain

    def test_domain_includes_mapping_axes(self):
        # the mapping knobs must be fuzzed: every target library and every
        # objective is a sampling candidate straight from the schema
        domain = default_domain()
        assert set(domain["target_lib"]) == {
            "generic", "nand2_basis", "aoi_rich", "lowpower_035"
        }
        assert set(domain["map_objective"]) == {"area", "delay", "balanced"}

    def test_small_domain_caps_case_count(self):
        domain = default_domain()
        for name in domain:
            domain[name] = domain[name][:1] if domain[name] else (7,)
        points = sample_points(10, seed=0, designs=("x2",), domain=domain)
        assert len(points) == 1  # only one distinct case exists


class TestFuzzCase:
    def test_passing_case_record_shape(self):
        point = SweepPoint("x2")
        record = check_point(point)
        assert record["ok"] is True
        assert record["error"] is None
        assert record["equivalence"]["equivalent"] is True
        assert record["equivalence"]["vectors_checked"] > 0
        assert record["validate_warnings"] is not None
        assert record["stimulus_seed"] == case_seed(point)

    def test_case_is_deterministic(self):
        point = sample_points(1, seed=5, designs=SMALL)[0]
        a, b = check_point(point), check_point(point)
        a.pop("elapsed_s"), b.pop("elapsed_s")
        assert a == b

    def test_crash_is_captured_not_raised(self):
        # a hand-built point with an unknown design must produce an error
        # record, mirroring the sweep engine's per-point capture
        record = check_point(SweepPoint("nonexistent"))
        assert record["ok"] is False
        assert "nonexistent" in record["error"]

    def test_run_fuzz_parallel_matches_serial(self):
        points = sample_points(3, seed=2, designs=SMALL)
        serial, _ = run_fuzz(points, jobs=1)
        parallel, _ = run_fuzz(points, jobs=2)
        for a, b in zip(serial, parallel):
            a = {k: v for k, v in a.items() if k != "elapsed_s"}
            b = {k: v for k, v in b.items() if k != "elapsed_s"}
            assert a == b


class TestMutationDetection:
    """The subsystem's self-test: a planted bug must be caught."""

    def test_broken_pass_flagged_via_pass_manager(self):
        # inject the broken rewrite through the ordinary PassManager API
        # (equivalence safety net off) and let the differential check judge
        result = Flow(FlowConfig(analyses=("stats",))).run("x2_plus_x_plus_y")
        design_point = SweepPoint("x2_plus_x_plus_y")
        PassManager(
            [BrokenAndToOrPass()], max_iterations=1, check_equivalence=False
        ).run(result.netlist)
        # the mutation preserves structural invariants...
        validate_netlist(result.netlist)
        # ...but must break functional equivalence
        from repro.designs.registry import get_design

        design = get_design("x2_plus_x_plus_y")
        report = check_equivalence(
            result.netlist,
            result.output_bus,
            design.expression,
            design.signals,
            output_width=result.output_width,
            seed=case_seed(design_point),
        )
        assert not report.equivalent
        assert report.mismatches

    def test_pass_manager_safety_net_also_catches_it(self):
        from repro.errors import OptimizationError

        result = Flow(FlowConfig(analyses=("stats",))).run("x2")
        with pytest.raises(OptimizationError, match="equivalence broken"):
            PassManager([BrokenAndToOrPass()], max_iterations=1).run(result.netlist)

    @pytest.mark.parametrize(
        "mutation", [BrokenAndToOrPass(), BrokenDropCarryPass()], ids=lambda m: m.name
    )
    def test_fuzzer_flags_every_mutated_case(self, mutation):
        record = run_self_test(seed=0, n=3, mutation=mutation)
        assert record["ok"], record
        assert record["flagged"] == record["cases"] == 3

    def test_fuzz_records_carry_the_mismatch(self):
        # generic target only: the planted AND2 mutation needs the
        # pre-mapping primitives (run_self_test pins the same axis)
        domain = default_domain()
        domain["target_lib"] = ("generic",)
        points = sample_points(2, seed=0, designs=SMALL, domain=domain)
        records, _ = run_fuzz(points, mutation=BrokenAndToOrPass())
        for record in records:
            assert record["ok"] is False
            assert record["equivalence"]["equivalent"] is False
            assert record["equivalence"]["mismatches"]


class TestMetamorphic:
    def test_all_properties_pass_on_default_case(self):
        point = SweepPoint("x2_plus_x_plus_y")
        for name in property_names():
            record = check_property(name, point)
            assert record["ok"], record
            assert not record["skipped"]

    def test_fold_square_skipped_for_conventional(self):
        point = SweepPoint("x2", FlowConfig(method="conventional"))
        record = check_property("fold_square_invariant", point)
        assert record["ok"] and record["skipped"]

    def test_unknown_property_is_an_error_record(self):
        point = SweepPoint("x2")
        record = check_property("no_such_property", point)
        assert record["ok"] is False
        assert "unknown metamorphic property" in record["error"]

    def test_run_metamorphic_covers_properties_point_major(self):
        points = sample_points(2, seed=1, designs=SMALL)
        records, _ = run_metamorphic(points)
        assert len(records) == 2 * len(property_names())
        assert [r["property"] for r in records[: len(property_names())]] == list(
            property_names()
        )

    def test_violation_is_captured(self):
        from repro.verify import metamorphic as meta

        @meta.metamorphic_property("always_broken_test_property")
        def _broken(design, config):
            raise VerificationError("synthetic violation")

        try:
            point = SweepPoint("x2")
            record = check_property("always_broken_test_property", point)
            assert record["ok"] is False
            assert record["error"] == "synthetic violation"
        finally:
            del meta.METAMORPHIC_PROPERTIES["always_broken_test_property"]


@pytest.fixture(scope="module")
def golden_entries():
    """The golden-set metrics, synthesized once for the whole module."""
    from repro.verify import run_golden_points

    entries, used_fallback = run_golden_points()
    assert used_fallback is False
    return entries


class TestGolden:
    def test_bless_then_compare_is_stable(self, tmp_path, golden_entries):
        path = bless_golden(golden_entries, tmp_path / "metrics.json")
        golden = load_golden(path)
        assert golden is not None
        assert len(golden["entries"]) == len(golden_points())
        assert compare_to_golden(golden_entries, golden) == []

    def test_blessed_bytes_are_deterministic(self, tmp_path, golden_entries):
        a = bless_golden(golden_entries, tmp_path / "a.json").read_bytes()
        b = bless_golden(golden_entries, tmp_path / "b.json").read_bytes()
        assert a == b

    def test_missing_snapshot_reported(self, tmp_path):
        record = run_golden(tmp_path / "nope.json")
        assert record["ok"] is False
        assert "--bless" in record["drift"][0]

    def test_count_drift_detected(self, tmp_path, golden_entries):
        entries = json.loads(json.dumps(golden_entries))
        label = next(iter(entries))
        entries[label]["cell_count"] += 1
        golden = load_golden(bless_golden(entries, tmp_path / "metrics.json"))
        drift = compare_to_golden(golden_entries, golden)
        assert any("cell_count changed" in line for line in drift)

    def test_tolerance_band(self, tmp_path, golden_entries):
        entries = json.loads(json.dumps(golden_entries))
        label = next(iter(entries))
        # 1% drift sits inside the default 2% band...
        entries[label]["delay_ns"] *= 1.01
        golden = load_golden(bless_golden(entries, tmp_path / "metrics.json"))
        assert compare_to_golden(golden_entries, golden) == []
        # ...6% does not
        entries[label]["delay_ns"] *= 1.05
        golden = load_golden(bless_golden(entries, tmp_path / "metrics.json"))
        drift = compare_to_golden(golden_entries, golden)
        assert any("drifted beyond" in line for line in drift)

    def test_missing_and_extra_entries_are_drift(self, tmp_path, golden_entries):
        entries = json.loads(json.dumps(golden_entries))
        label = next(iter(entries))
        entries["phantom/config"] = entries.pop(label)
        golden = load_golden(bless_golden(entries, tmp_path / "metrics.json"))
        messages = "\n".join(compare_to_golden(golden_entries, golden))
        assert "missing from the snapshot" in messages
        assert "pinned in the snapshot but not produced" in messages

    def test_committed_snapshot_matches_current_code(self, golden_entries):
        # the snapshot in tests/golden/metrics must describe today's flow —
        # this is the tier-1 guard that metric drift cannot land unblessed
        import pathlib

        golden = load_golden(
            pathlib.Path(__file__).parent / "golden" / "metrics" / "metrics.json"
        )
        assert golden is not None, "no committed golden snapshot; bless one"
        drift = compare_to_golden(golden_entries, golden)
        assert drift == [], "\n".join(drift)


class TestRunnerAndReport:
    def test_smoke_run_passes_and_serializes(self, tmp_path):
        report = run_verify(smoke=True, seed=0, golden_path=None)
        assert isinstance(report, VerifyReport)
        assert report.ok, report.render()
        assert len(report.fuzz) == 6
        assert len(report.metamorphic) == 2 * len(property_names())
        path = write_report(report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.verify.report"
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["golden_checked"] is None

    def test_failures_drive_the_verdict(self):
        report = run_verify(
            smoke=True, seed=0, golden_path=None, mutation=BrokenAndToOrPass()
        )
        assert not report.ok
        assert report.fuzz_failures
        assert "FUZZ FAILED" in report.render()

    def test_progress_callback_sees_phases(self):
        phases = set()
        run_verify(
            designs=("x2",),
            n=2,
            seed=0,
            golden_path=None,
            metamorphic_points=1,
            progress=lambda phase, record, done, total: phases.add(phase),
        )
        assert phases == {"fuzz", "metamorphic"}


class TestVerifyCli:
    def test_smoke_cli_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "verify.json"
        code = main(
            [
                "verify", "--smoke", "--seed", "0", "--no-golden",
                "--json", str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        payload = json.loads(target.read_text())
        assert payload["summary"]["fuzz_failed"] == 0

    def test_cli_self_test(self, capsys):
        assert main(["verify", "--self-test", "--seed", "0"]) == 0
        assert "self-test PASS" in capsys.readouterr().out

    def test_cli_domain_restriction(self, capsys):
        code = main(
            [
                "verify", "--designs", "x2", "--n", "2", "--seed", "0",
                "--no-golden", "--methods", "fa_aot", "--opt-levels", "0",
            ]
        )
        assert code == 0

    def test_cli_rejects_bless_with_no_golden(self):
        with pytest.raises(SystemExit, match="contradict"):
            main(["verify", "--smoke", "--bless", "--no-golden"])

    def test_cli_self_test_threads_n_and_designs(self, capsys):
        code = main(
            [
                "verify", "--self-test", "--seed", "0", "--n", "2",
                "--designs", "x2", "--methods", "fa_aot",
            ]
        )
        assert code == 0
        assert "2/2 case(s)" in capsys.readouterr().out

    def test_default_golden_path_is_cwd_independent(self, tmp_path, monkeypatch):
        from repro.verify import DEFAULT_GOLDEN_PATH

        monkeypatch.chdir(tmp_path)
        assert load_golden(DEFAULT_GOLDEN_PATH) is not None

    def test_cli_bless_and_recheck(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            ["verify", "--smoke", "--seed", "0", "--bless", "--golden", str(path)]
        ) == 0
        assert "blessed" in capsys.readouterr().out
        assert main(
            ["verify", "--smoke", "--seed", "0", "--golden", str(path)]
        ) == 0


class TestParallelMap:
    def test_orders_results_and_reports_progress(self):
        seen = []
        results, fallback = parallel_map(
            _square,
            [3, 1, 2],
            jobs=1,
            progress=lambda i, r, d, t: seen.append((i, r, d, t)),
        )
        assert results == [9, 1, 4]
        assert fallback is False
        assert seen == [(3, 9, 1, 3), (1, 1, 2, 3), (2, 4, 3, 3)]

    def test_parallel_matches_serial(self):
        serial, _ = parallel_map(_square, list(range(6)), jobs=1)
        parallel, _ = parallel_map(_square, list(range(6)), jobs=3)
        assert serial == parallel

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == ([], False)


def _square(value):
    return value * value


# ---------------------------------------------------------------- nightly


@pytest.mark.fuzz
class TestNightlyFuzz:
    """Deep fuzz sweeps — nightly tier (`pytest -m fuzz`)."""

    def test_fuzz_every_registered_design(self):
        report = run_verify(n=48, seed=0, jobs=2, golden_path=None)
        assert report.ok, report.render()

    def test_second_seed(self):
        report = run_verify(n=24, seed=1, jobs=2, golden_path=None)
        assert report.ok, report.render()


@pytest.mark.slow
class TestNightlyExhaustive:
    """Exhaustive-equivalence soak — nightly tier (`pytest -m slow`)."""

    def test_metamorphic_across_all_methods(self):
        domain = default_domain()
        for method in domain["method"]:
            point = SweepPoint("x2_plus_x_plus_y", FlowConfig(method=method))
            for name in property_names():
                record = check_property(name, point)
                assert record["ok"], record

    def test_fuzz_with_wide_exhaustive_limit(self):
        points = sample_points(6, seed=4, designs=("x2", "x3", "x2_plus_x_plus_y"))
        for point in points:
            record = check_point(
                point, exhaustive_width_limit=18, random_vector_count=512
            )
            assert record["ok"], record
