"""The benchmark tracer's contract with the package.

`perfbench/tracing.py` wraps package functions by name and leaves out the
metrics of every bucket whose functions are all gone. A rename or deletion
in `src/` then silently drops metrics from a traced benchmark run; these
tests fail instead. The tracer module is loaded from its file, read-only.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import carriersim.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_a_live_function(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        _, absent = tracing.layer_values(tracer, 0.0, 0.0)
    assert absent == []
    # the one target already gone shares its bucket with live functions
    assert set(tracer.missing) <= {"abm.write_point_report"}


def test_traced_pipeline_reaches_each_stage_layer(tracing, tmp_path):
    """The CLI stages call the traced functions through the module globals
    that the tracer patches, so each stage's layers count calls."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_capacity": 2, "n_coverage": 1,
                                "n_days": 2, "reports_per_cell_hour": 4}))
    data, models = tmp_path / "data", tmp_path / "models"
    stages = [
        ["generate", "--spec", spec, "--out", data],
        ["train", "--data", data, "--out", models],
        ["simulate", "--data", data, "--models", models,
         "--out", tmp_path / "sim"],
        ["benchmark", "--data", data, "--models", models,
         "--out", tmp_path / "bench"],
        ["compare", "--abm", tmp_path / "sim", "--benchmark",
         tmp_path / "bench", "--truth", data / "truth.csv",
         "--out", tmp_path / "eval"],
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for args in stages:
            r = CliRunner().invoke(
                carriersim.cli.main,
                ["--seed", "3", "--runs", "2", "--max-steps", "40"]
                + [str(a) for a in args])
            assert r.exit_code == 0, r.output
    for bucket in ("datamodel.parse", "datamodel.traffic_fit",
                   "rules.handover", "abm.run", "abm.day", "abm.baseline",
                   "ratemodel.fit", "ratemodel.save", "ratemodel.load",
                   "energymodel.fit", "energymodel.predict",
                   "harness.generate", "harness.replay", "harness.compare",
                   "harness.truth_io"):
        assert tracer.calls.get(bucket, 0) > 0, bucket
    # 24 radio-hours per radio unit in each of simulate and benchmark
    assert tracer.calls["energymodel.predict"] >= 2 * 24 * 3
