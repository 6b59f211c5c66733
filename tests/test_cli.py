import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from carriersim.cli import main


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def copy_dir(src, dst):
    dst.mkdir()
    for p in Path(src).iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
            if p.is_file()}


SPEC = {"n_capacity": 3, "n_coverage": 2, "n_days": 3,
        "reports_per_cell_hour": 6}


ENERGY_DAMAGE = ["half the file", "a missing key", "w1 a row short",
                 "w1 and its layer shape a row short", "a NaN weight",
                 "an infinite y_max", "a NaN lo", "an infinite hi"]


def damage_energy_checkpoint(text, damage):
    """The energy_model.json text with one of ENERGY_DAMAGE done to it."""
    if damage == "half the file":
        return text[:len(text) // 2]
    payload = json.loads(text)
    if damage == "a missing key":
        del payload["schema"]["tx_modes"]
    elif damage.startswith("w1"):
        payload["weights"][0].pop()
        if "layer shape" in damage:     # the shapes agree, the schema not
            payload["layer_shapes"][0][0] -= 1
    elif damage == "a NaN weight":
        payload["weights"][2][0][0] = float("nan")
    elif damage == "an infinite y_max":
        payload["y_max"] = float("inf")
    elif damage == "a NaN lo":
        payload["schema"]["lo"][0] = float("nan")
    else:
        payload["schema"]["hi"][-1] = float("-inf")
    return json.dumps(payload)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated scenario with trained models, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    data = root / "data"
    models = root / "models"
    r = run_cli("--seed", 5, "--runs", 6, "--max-steps", 100,
                "generate", "--spec", spec_path, "--out", data)
    assert r.exit_code == 0, r.output
    r = run_cli("--seed", 5, "train", "--data", data, "--out", models)
    assert r.exit_code == 0, r.output
    return root


class TestGenerate:
    def test_missing_spec_file_fails(self, tmp_path):
        r = run_cli("generate", "--spec", tmp_path / "absent.json",
                    "--out", tmp_path / "o")
        assert r.exit_code != 0

    def test_invalid_spec_fails_nonzero(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_coverage": 0}))
        r = run_cli("generate", "--spec", spec, "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert "error" in r.output

    def test_zero_reports_per_cell_hour_fails_with_a_message(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_capacity": 2, "n_coverage": 1,
                                    "n_days": 1, "reports_per_cell_hour": 0}))
        r = run_cli("generate", "--spec", spec, "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert "error: need at least one measurement report" in r.output

    def test_unknown_spec_field_fails(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"bogus": 1}))
        r = run_cli("generate", "--spec", spec, "--out", tmp_path / "o")
        assert r.exit_code == 1

    @pytest.mark.parametrize("text, named", [
        ('{"n_capacity": 2', "spec.json: not valid JSON"),
        ("[2, 1]", "spec.json: not a JSON object"),
        ('{"n_capacity": "two"}', "spec.json: n_capacity"),
        ('{"n_capacity": true, "n_coverage": 1, "n_days": 1}',
         "spec.json: n_capacity"),
        ('{"n_capacity": 2, "n_coverage": 1, "n_days": 1.0}',
         "spec.json: n_days"),
        ('{"n_capacity": 2, "n_coverage": 1, "n_days": 1, '
         '"reports_per_cell_hour": "4"}', "spec.json: reports_per_cell_hour"),
        ('{"n_capacity": 2, "n_coverage": 1, "n_days": 1, '
         '"traffic_noise": false}', "spec.json: traffic_noise"),
        ('{"n_capacity": 2, "n_coverage": 1, "n_days": 1, '
         '"entry_ue": "12"}', "spec.json: entry_ue"),
        ('{"n_capacity": 2, "n_coverage": 1, "n_days": 1, '
         '"a4_threshold_dbm": NaN}', "spec.json: a4_threshold_dbm"),
        ('{"n_capacity": 2, "n_coverage": 1, "n_days": 1, '
         '"energy_noise_wh": 1e400}', "spec.json: energy_noise_wh"),
    ])
    def test_bad_spec_file_fails_cleanly(self, tmp_path, text, named):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        r = run_cli("generate", "--no-truth", "--spec", spec,
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output and named in r.output
        assert not (tmp_path / "o").exists()

    def test_same_seed_identical_output_dirs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_capacity": 2, "n_coverage": 1,
                                    "n_days": 1, "reports_per_cell_hour": 4}))
        for name in ("a", "b"):
            r = run_cli("--seed", 11, "--runs", 3, "--max-steps", 60,
                        "generate", "--spec", spec, "--out", tmp_path / name)
            assert r.exit_code == 0, r.output
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


class TestTrain:
    def test_models_written(self, pipeline):
        models = pipeline / "models"
        assert (models / "energy_model.json").exists()
        assert (models / "rate_model.json").exists()
        metrics = json.loads((models / "train_metrics.json").read_text())
        assert metrics["energy_test_mae_wh"] is not None

    def test_corrupt_kpi_file_fails(self, pipeline, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in (pipeline / "data").iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        kpi = broken / "kpi.csv"
        lines = kpi.read_text().splitlines()
        lines[1] = lines[1].replace(",", ";bad;", 1)
        kpi.write_text("\n".join(lines))
        r = run_cli("train", "--data", broken, "--out", tmp_path / "m")
        assert r.exit_code == 1

    def test_seeded_training_identical_checkpoints(self, pipeline, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            r = run_cli("--seed", 5, "train", "--data", pipeline / "data",
                        "--out", out)
            assert r.exit_code == 0, r.output
        assert dir_bytes(out1) == dir_bytes(out2)


class TestSimulate:
    def test_default_run_succeeds(self, pipeline, tmp_path):
        r = run_cli("--seed", 5, "--runs", 4, "--max-steps", 80, "simulate",
                    "--data", pipeline / "data",
                    "--models", pipeline / "models", "--out", tmp_path / "o")
        assert r.exit_code == 0, r.output
        for name in ("abm_outputs.csv", "abm_runs.csv", "predictions.csv"):
            assert (tmp_path / "o" / name).exists()

    def test_threshold_override_changes_eligibility(self, pipeline, tmp_path):
        from carriersim.abm import read_mean_report

        base = tmp_path / "base"
        r = run_cli("--seed", 5, "--runs", 4, "--max-steps", 80, "simulate",
                    "--data", pipeline / "data",
                    "--models", pipeline / "models", "--out", base)
        assert r.exit_code == 0, r.output
        overrides = tmp_path / "ov.json"
        overrides.write_text(json.dumps({"thresholds": {
            cap: {"entry_ue": 0.0, "entry_dl_prb": 0.0, "entry_ul_prb": 0.0}
            for cap in ("cap001", "cap002", "cap003")}}))
        frozen = tmp_path / "frozen"
        r = run_cli("--seed", 5, "--runs", 4, "--max-steps", 80, "simulate",
                    "--data", pipeline / "data",
                    "--models", pipeline / "models", "--out", frozen,
                    "--overrides", overrides)
        assert r.exit_code == 0, r.output
        base_cs = read_mean_report(base / "abm_outputs.csv")["cs_minutes"]
        frozen_cs = read_mean_report(frozen / "abm_outputs.csv")["cs_minutes"]
        assert sum(base_cs.values()) > 0.0
        assert sum(frozen_cs.values()) == 0.0

    def test_unknown_cell_override_fails(self, pipeline, tmp_path):
        overrides = tmp_path / "ov.json"
        overrides.write_text(json.dumps({"thresholds": {
            "nope": {"entry_ue": 1.0}}}))
        r = run_cli("--seed", 5, "simulate", "--data", pipeline / "data",
                    "--models", pipeline / "models", "--out", tmp_path / "o",
                    "--overrides", overrides)
        assert r.exit_code == 1

    @pytest.mark.parametrize("text, message", [
        ('{"thresholds": []}', "'thresholds' must map cell ids"),
        ('{"a4": "cap001"}', "'a4' must map cell ids"),
        ("[1]", "overrides must be an object"),
        ("[]", "overrides must be an object"),
        ('{"threshold": {"cap001": {"entry_ue": 1.0}}}',
         "unknown override section(s) 'threshold'"),
        ('{"thresholds": ', "not valid JSON"),
        (b"\xff\xfe{}", "not valid JSON"),       # bytes that are not UTF-8
    ])
    def test_malformed_override_file_fails_cleanly(self, pipeline, tmp_path,
                                                   text, message):
        overrides = tmp_path / "ov.json"
        overrides.write_bytes(text if isinstance(text, bytes)
                              else text.encode())
        for command in ("simulate", "benchmark"):
            r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, command,
                        "--data", pipeline / "data",
                        "--models", pipeline / "models",
                        "--out", tmp_path / command, "--overrides", overrides)
            assert r.exit_code == 1
            assert isinstance(r.exception, SystemExit)
            assert "error:" in r.output and message in r.output

    def test_models_of_another_network_fail_cleanly(self, pipeline,
                                                    tmp_path):
        """Models trained on one capacity cell know one of the pipeline's
        three capacity radio types: predicting ends in `error:` before any
        output file is written."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_capacity": 1, "n_coverage": 1,
                                    "n_days": 2, "reports_per_cell_hour": 4}))
        r = run_cli("--seed", 5, "generate", "--no-truth", "--spec", spec,
                    "--out", tmp_path / "data")
        assert r.exit_code == 0, r.output
        r = run_cli("--seed", 5, "train", "--data", tmp_path / "data",
                    "--out", tmp_path / "models")
        assert r.exit_code == 0, r.output
        for command in ("simulate", "benchmark"):
            r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, command,
                        "--data", pipeline / "data",
                        "--models", tmp_path / "models",
                        "--out", tmp_path / command)
            assert r.exit_code == 1
            assert isinstance(r.exception, SystemExit)
            assert "error: radio type 'aau-n35-" in r.output
            assert not (tmp_path / command).exists()

    def test_non_numeric_a4_override_fails_cleanly(self, pipeline, tmp_path):
        overrides = tmp_path / "ov.json"
        overrides.write_text(json.dumps({"a4": {
            "cap001": {"threshold_dbm": "abc"}}}))
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, "simulate",
                    "--data", pipeline / "data",
                    "--models", pipeline / "models", "--out", tmp_path / "o",
                    "--overrides", overrides)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output
        assert "'threshold_dbm'" in r.output and "'cap001'" in r.output

    def test_malformed_mr_timestamp_fails_cleanly(self, pipeline, tmp_path):
        data = copy_dir(pipeline / "data", tmp_path / "data")
        lines = (data / "mr.csv").read_text().splitlines()
        stamp = lines[1].split(",", 1)[0]
        lines[1] = lines[1].replace(stamp, stamp[:11] + "7" + stamp[13:], 1)
        (data / "mr.csv").write_text("\n".join(lines) + "\n")
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, "simulate",
                    "--data", data, "--models", pipeline / "models",
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)   # not an escaped error
        assert "error:" in r.output and "mr.csv, row 1" in r.output
        assert "Traceback" not in r.output

    def test_non_integer_n_trx_fails_cleanly(self, pipeline, tmp_path):
        data = copy_dir(pipeline / "data", tmp_path / "data")
        lines = (data / "engineering.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "x"  # n_trx
        lines[2] = ",".join(fields)
        (data / "engineering.csv").write_text("\n".join(lines) + "\n")
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, "simulate",
                    "--data", data, "--models", pipeline / "models",
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)   # not an escaped error
        assert "error:" in r.output and "engineering.csv, row 2" in r.output
        assert "Traceback" not in r.output

    def test_old_rate_bundle_fails_cleanly(self, pipeline, tmp_path):
        models = copy_dir(pipeline / "models", tmp_path / "models")
        (models / "rate_model.json").write_text(json.dumps(
            {"version": 1, "cutoff": 0.1, "bin_edges": [], "avg": {},
             "ce": {}}))
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, "simulate",
                    "--data", pipeline / "data", "--models", models,
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output and "retrain" in r.output

    def test_corrupt_rate_bundle_fails_cleanly(self, pipeline, tmp_path):
        models = copy_dir(pipeline / "models", tmp_path / "models")
        payload = json.loads((models / "rate_model.json").read_text())

        def truncate_first_string(node):
            """Cut 4 characters off the first string in key order."""
            for key in sorted(node) if isinstance(node, dict) \
                    else range(len(node)):
                if isinstance(node[key], str):
                    node[key] = node[key][:-4]
                    return True
                if isinstance(node[key], (dict, list)) and \
                        truncate_first_string(node[key]):
                    return True
            return False

        assert truncate_first_string(payload)
        (models / "rate_model.json").write_text(json.dumps(payload))
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, "simulate",
                    "--data", pipeline / "data", "--models", models,
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output and "rate_model.json" in r.output

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    @pytest.mark.parametrize("damage", ENERGY_DAMAGE)
    def test_damaged_energy_checkpoint_fails_cleanly(self, pipeline, tmp_path,
                                                     command, damage):
        models = copy_dir(pipeline / "models", tmp_path / "models")
        path = models / "energy_model.json"
        path.write_text(damage_energy_checkpoint(path.read_text(), damage))
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, command,
                    "--data", pipeline / "data", "--models", models,
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output and "energy_model.json" in r.output
        assert not (tmp_path / "o").exists()

    def test_same_seed_byte_identical_outputs(self, pipeline, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            r = run_cli("--seed", 9, "--runs", 3, "--max-steps", 60,
                        "simulate", "--data", pipeline / "data",
                        "--models", pipeline / "models", "--out", out)
            assert r.exit_code == 0, r.output
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]


class TestBenchmarkCommand:
    def test_outputs_written_and_deterministic(self, pipeline, tmp_path):
        outs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            r = run_cli("--seed", 5, "benchmark", "--data", pipeline / "data",
                        "--models", pipeline / "models", "--out", out)
            assert r.exit_code == 0, r.output
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]
        assert "benchmark_outputs.csv" in outs[0]

    def test_parses_dataset_once(self, pipeline, tmp_path, monkeypatch):
        import carriersim.cli as cli

        calls = []
        parse_datasets = cli.parse_datasets

        def counting(*args, **kwargs):
            calls.append(args)
            return parse_datasets(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_datasets", counting)
        r = run_cli("--seed", 5, "benchmark", "--data", pipeline / "data",
                    "--models", pipeline / "models", "--out", tmp_path / "b")
        assert r.exit_code == 0, r.output
        assert len(calls) == 1


@pytest.fixture(scope="module")
def estimates(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("estimates")
    abm, bench = root / "abm", root / "bench"
    r = run_cli("--seed", 5, "--runs", 4, "--max-steps", 80, "simulate",
                "--data", pipeline / "data",
                "--models", pipeline / "models", "--out", abm)
    assert r.exit_code == 0, r.output
    r = run_cli("--seed", 5, "benchmark", "--data", pipeline / "data",
                "--models", pipeline / "models", "--out", bench)
    assert r.exit_code == 0, r.output
    return abm, bench


class TestCellWithoutKpiRows:
    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_fails_cleanly(self, pipeline, tmp_path, command):
        data = copy_dir(pipeline / "data", tmp_path / "data")
        lines = (data / "kpi.csv").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("cap002,")]
        assert len(kept) < len(lines)
        (data / "kpi.csv").write_text("\n".join(kept) + "\n")
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, command,
                    "--data", data, "--models", pipeline / "models",
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)   # not an escaped error
        assert "error:" in r.output and "'cap002'" in r.output


class TestUnknownIds:
    @pytest.mark.parametrize("name, bad_id, kind, command", [
        ("kpi_biased.csv", "ghost", "cell", "train"),
        ("kpi_biased.csv", "ghost", "cell", "benchmark"),
        ("energy_biased.csv", "ru-ghost", "radio unit", "train"),
        ("kpi.csv", "ghost", "cell", "simulate"),
        ("energy.csv", "ru-ghost", "radio unit", "train"),
    ])
    def test_fail_cleanly_naming_file_and_row(self, pipeline, tmp_path,
                                              name, bad_id, kind, command):
        data = copy_dir(pipeline / "data", tmp_path / "data")
        lines = (data / name).read_text().splitlines()
        lines[5] = bad_id + "," + lines[5].split(",", 1)[1]
        (data / name).write_text("\n".join(lines) + "\n")
        args = ["--out", tmp_path / "o"]
        if command != "train":
            args += ["--models", pipeline / "models"]
        r = run_cli("--seed", 5, "--runs", 2, "--max-steps", 40, command,
                    "--data", data, *args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)   # not an escaped error
        assert (f"error: {data / name}, row 5: references unknown {kind} "
                f"'{bad_id}'") in r.output


class TestCompareCommand:
    def test_report_written(self, pipeline, estimates, tmp_path):
        abm, bench = estimates
        r = run_cli("compare", "--abm", abm, "--benchmark", bench,
                    "--truth", pipeline / "data" / "truth.csv",
                    "--out", tmp_path / "report")
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert set(report) >= {"cs_minutes", "dl_load", "energy_wh",
                               "rate_mbps"}

    def test_identical_estimators_zero_gain(self, pipeline, estimates,
                                            tmp_path):
        abm, _ = estimates
        fake_bench = tmp_path / "fake_bench"
        fake_bench.mkdir()
        for p in Path(abm).iterdir():
            name = ("benchmark_outputs.csv" if p.name == "abm_outputs.csv"
                    else p.name)
            (fake_bench / name).write_bytes(p.read_bytes())
        r = run_cli("compare", "--abm", abm, "--benchmark", fake_bench,
                    "--truth", pipeline / "data" / "truth.csv",
                    "--out", tmp_path / "report")
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        for kpi, ev in report.items():
            if ev["accuracy_gain_mae"] is not None:
                assert ev["accuracy_gain_mae"] == pytest.approx(0.0)

    def test_reports_dropped_keys_and_skipped_kpis(self, pipeline, estimates,
                                                   tmp_path):
        abm, bench = estimates
        partial = copy_dir(bench, tmp_path / "partial")
        lines = (partial / "predictions.csv").read_text().splitlines()
        kept = [l for l in lines
                if not (l.startswith("rate_mbps,") and ",3," in l)
                and not l.startswith("energy_wh,")]
        truth = (pipeline / "data" / "truth.csv").read_text().splitlines()
        dropped = sum(l.startswith("rate_mbps,") and ",3," in l
                      for l in truth)
        assert dropped > 0
        (partial / "predictions.csv").write_text("\n".join(kept) + "\n")
        r = run_cli("compare", "--abm", abm, "--benchmark", partial,
                    "--truth", pipeline / "data" / "truth.csv",
                    "--out", tmp_path / "report")
        assert r.exit_code == 0, r.output
        lines = r.output.splitlines()
        assert "  energy_wh: skipped, not predicted by benchmark" in lines
        rate = [l for l in lines if l.startswith("  rate_mbps: kept")]
        assert len(rate) == 1
        assert f"dropped 0 absent from abm, {dropped} absent from " \
               "benchmark" in rate[0]
        full = [l for l in lines if l.startswith("  cs_minutes: kept")]
        assert full and full[0].endswith(
            "dropped 0 absent from abm, 0 absent from benchmark")
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert "energy_wh" not in report

    @pytest.mark.parametrize("name", ["truth.csv", "predictions.csv",
                                      "abm_outputs.csv"])
    @pytest.mark.parametrize("case", ["missing column", "nan", "short row",
                                      "non-integer hour", "repeated key"])
    def test_malformed_report_file_fails_cleanly(self, pipeline, estimates,
                                                 tmp_path, name, case):
        abm = copy_dir(estimates[0], tmp_path / "abm")
        truth = tmp_path / "truth.csv"
        truth.write_bytes((pipeline / "data" / "truth.csv").read_bytes())
        path = truth if name == "truth.csv" else abm / name
        rows = [line.split(",") for line in path.read_text().splitlines()]
        header = rows[0]
        if case == "missing column":
            header[header.index("hour")] = "hr"
        elif case == "nan":
            value = "value" if "value" in header else "ue_mean"
            rows[3][header.index(value)] = "nan"
        elif case == "short row":
            rows[3].pop()
        elif case == "non-integer hour":
            rows[3][header.index("hour")] = "3.5"
        else:
            rows[3] = rows[2]
        path.write_text("\n".join(map(",".join, rows)) + "\n")
        message = {
            "missing column": ": missing column(s) hour",
            "nan": ", row 3: non-finite value 'nan'",
            "short row": f", row 3: {len(header) - 1} fields, the header has "
                         f"{len(header)}",
            "non-integer hour":
                ", row 3: invalid literal for int() with base 10: '3.5'",
            "repeated key": ", row 3: repeats an earlier row's ",
        }[case]
        r = run_cli("compare", "--abm", abm, "--benchmark", estimates[1],
                    "--truth", truth, "--out", tmp_path / "report")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)   # not an escaped error
        assert f"error: {path}{message}" in r.output
        assert not (tmp_path / "report").exists()

    def test_mismatched_cells_fail(self, pipeline, estimates, tmp_path):
        abm, bench = estimates
        truth = tmp_path / "truth.csv"
        truth.write_text("kpi,entity,hour,value\ncs_minutes,zz,1,0.0\n")
        r = run_cli("compare", "--abm", abm, "--benchmark", bench,
                    "--truth", truth, "--out", tmp_path / "report")
        assert r.exit_code == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_capacity": 2, "n_coverage": 1,
                                    "n_days": 1, "reports_per_cell_hour": 4}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 11, "runs": 3,
                                      "max_steps": 60}))
        r = run_cli("--config", config, "generate", "--spec", spec,
                    "--out", tmp_path / "via_config")
        assert r.exit_code == 0, r.output
        r = run_cli("--seed", 11, "--runs", 3, "--max-steps", 60, "generate",
                    "--spec", spec, "--out", tmp_path / "via_flags")
        assert r.exit_code == 0, r.output
        assert dir_bytes(tmp_path / "via_config") == \
            dir_bytes(tmp_path / "via_flags")

    @pytest.mark.parametrize("config, flags, named", [
        ('{"runs": 3', [], "config.json"),
        ("[3, 60]", [], "config.json"),
        ('{"runs": "ten"}', [], "config.json: runs"),
        ('{"max_steps": true}', [], "config.json: max_steps"),
        ('{"seed": 1.5}', [], "config.json: seed"),
        ('{"runs": 0}', [], "config.json: runs"),
        ('{"max_steps": -4}', [], "config.json: max_steps"),
        ('{"seed": -1}', [], "config.json: seed"),
        ('{"runs": 3}', ["--runs", 0], "--runs"),
        (None, ["--max-steps", 0], "--max-steps"),
        (None, ["--seed", -2], "--seed"),
    ])
    def test_bad_settings_fail_cleanly(self, tmp_path, config, flags, named):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_capacity": 2, "n_coverage": 1,
                                    "n_days": 1, "reports_per_cell_hour": 4}))
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            flags = ["--config", tmp_path / "config.json", *flags]
        r = run_cli(*flags, "generate", "--spec", spec,
                    "--out", tmp_path / "o")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output and named in r.output
        assert not (tmp_path / "o").exists()

    def test_env_var_points_at_config(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_capacity": 2, "n_coverage": 1,
                                    "n_days": 1, "reports_per_cell_hour": 4}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 11, "runs": 3,
                                      "max_steps": 60}))
        monkeypatch.setenv("CARRIERSIM_CONFIG", str(config))
        r = run_cli("generate", "--spec", spec, "--out", tmp_path / "env_out")
        assert r.exit_code == 0, r.output
