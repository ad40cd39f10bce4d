"""Golden-file tests for the machine-readable artifacts.

The explore sweep JSON/CSV and the verify report are consumed by scripts
and CI assertions, so their *byte shape* — field ordering included — is
part of the contract, mirroring the existing Verilog golden test.  Wall
times are the only nondeterministic fields; they are normalized to zero
before comparison.

Regenerating after an intentional format change::

    REPRO_BLESS=1 PYTHONPATH=src python -m pytest tests/test_golden_artifacts.py
"""

import csv
import io
import json
import os
import pathlib

from repro.explore.engine import run_sweep
from repro.explore.io import sweep_to_json_obj, write_csv
from repro.explore.spec import SweepSpec
from repro.verify import run_verify

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "artifacts"


def assert_matches_golden(name: str, content: str) -> None:
    """Byte-compare ``content`` against the committed golden file.

    With ``REPRO_BLESS=1`` in the environment the golden file is rewritten
    instead (the blessing workflow documented in TESTING.md).
    """
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_BLESS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    assert path.exists(), (
        f"missing golden file {path}; regenerate with "
        f"REPRO_BLESS=1 python -m pytest {__file__}"
    )
    assert content == path.read_text(encoding="utf-8"), (
        f"artifact drifted from {path}; if the change is intentional, "
        f"regenerate with REPRO_BLESS=1"
    )


def _golden_sweep():
    """A tiny fixed sweep: two methods on the smallest design, serial."""
    spec = SweepSpec(designs=("x2",), methods=("fa_aot", "wallace"))
    return run_sweep(spec, jobs=1)


class TestExploreArtifacts:
    def test_json_artifact_bytes(self):
        obj = sweep_to_json_obj(_golden_sweep())
        obj["summary"]["elapsed_s"] = 0.0
        for point in obj["points"]:
            point["elapsed_s"] = 0.0
        # exactly the serialization write_json uses
        content = json.dumps(obj, indent=2, sort_keys=False) + "\n"
        assert_matches_golden("explore_sweep.json", content)

    def test_csv_artifact_bytes(self, tmp_path):
        path = write_csv(_golden_sweep(), tmp_path / "sweep.csv")
        assert_matches_golden("explore_sweep.csv", path.read_text(encoding="utf-8"))

    def test_csv_header_tracks_the_config_schema(self, tmp_path):
        from repro.api.config import config_fields

        path = write_csv(_golden_sweep(), tmp_path / "sweep.csv")
        header = next(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
        for name in ["design"] + [spec.name for spec in config_fields()]:
            assert name in header


class TestVerifyReportArtifact:
    def test_report_bytes(self):
        report = run_verify(
            designs=("x2",), n=2, seed=0, golden_path=None, metamorphic_points=1
        )
        assert report.ok, report.render()
        obj = report.to_json_obj()
        obj["summary"]["elapsed_s"] = 0.0
        for record in obj["fuzz"] + obj["metamorphic"]:
            record["elapsed_s"] = 0.0
        content = json.dumps(obj, indent=2, sort_keys=False) + "\n"
        assert_matches_golden("verify_report.json", content)

    def test_golden_metrics_snapshot_bytes_are_canonical(self, tmp_path):
        # the committed metric snapshot must stay in blessed form: loading
        # and re-serializing it reproduces the identical bytes
        from repro.verify.golden import bless_golden, load_golden

        path = pathlib.Path(__file__).parent / "golden" / "metrics" / "metrics.json"
        golden = load_golden(path)
        assert golden is not None
        reblessed = bless_golden(
            golden["entries"], tmp_path / "metrics.check", golden["tolerance"]["rel"]
        )
        assert reblessed.read_bytes() == path.read_bytes()
