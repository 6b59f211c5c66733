"""Pinned sha256 of the ABM and baseline arrays on the what-if network, and
of the scenario generator's files.

The network is the one perfbench's whatif workload queries: 2 capacity cells,
1 coverage cell, 3 days, scenario seed 7, traffic fitted from its KPI file.
It has one coverage cell, so its reports never draw extra neighbours, and
its steps never weigh more than 2 candidates or split a shutdown over more
than one target. A 30 + 20-cell, 1-day network (scenario seed 3) pins the
ABM's large-network paths: 8 or more candidates weighed at once, UEs split
over several targets, and starting configurations rolled in. Criterion
11's 375 + 282-cell network (scenario seed 404, its true traffic) pins a day
at operator scale, where a pick weighs a median of 94 candidates (5th to
95th percentile: 10 to 213). The generator is pinned on a 6 + 3-cell, 2-day
spec (seed 11), whose reports do draw extra neighbours, on a sparse, noisy
3 + 2-cell spec whose cell-hours reach the zero-UE branch of both KPI
campaigns, and on a 40 + 30-cell, 1-day spec (seed 404) whose files span
several of the CSV writers' chunks. The report files of the what-if
network's pinned day and baseline are pinned too: the hourly reports, the
truth tables of the day's runs, and compare's report.json and profiles.csv
of both estimators' means against them. The CLI's model outputs are pinned
on whatif's spec and on the default ScenarioSpec (seed 7, the stages as
perfbench's whatif workload runs them): train's rate and energy model
files and held-out metrics, and simulate's predictions.csv, with and
without an overrides file.
A change to the ABM, the baseline or the generator that is meant to keep the
outputs must keep these digests; a change that is meant to move them updates
them and says why.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from carriersim import (AbmConfig, ScenarioSpec, build_handover_model_for_hours,
                        fit_traffic_model, generate_scenario, parse_datasets,
                        run_benchmark, simulate_day)
from carriersim.abm import mean_tables, write_hourly_report
from carriersim.datamodel import _CHUNK, parse_kpis, parse_mrs, write_kpis
from carriersim.cli import main
from carriersim.harness import (compare, truth_tables_from_outputs,
                                write_eval_report, write_truth)

SIMULATE_DAY_SHA256 = (
    "b0f7a6bdf54016584514b275600c707fdec6c896610bab9cfd7a4435849d7c12")
RUN_BENCHMARK_SHA256 = (
    "8abcf5150ba2c789fcbfdf87c6e2960acb11a8a7fce09c40024a2e8c80e7b83d")
# the what-if network's report files: write_hourly_report of the pinned
# simulate_day and run_benchmark, write_truth of truth_tables_from_outputs on
# the day, and write_eval_report of compare's scores against that truth
REPORT_SHA256 = {
    "abm_outputs.csv":
        "929dd867ce1ac57c0d75f7599ee5d4fec7ec26bbbdb5d3fa268a261e7a4441c7",
    "benchmark_outputs.csv":
        "b83f9f09b7d24074adcae73d5f10636266b1d2aed5b8c7831eaf0e255f710f4b",
    "truth.csv":
        "293a26ee3b27afd75c28d77f5114afe94bd51d5524faace502f332f950623e0b",
    "report.json":
        "cf49c62a4ac372519ffdce7544058f9848da743a735a7ffc5d282362fd7af46b",
    "profiles.csv":
        "bd3b4f1c80e4cbc2e367fa9891a05fff03b8e92609f18c1514f20630d25722c5",
}
# the 30 + 20-cell network: simulate_day at R=5 (seed 5), and run_benchmark
LARGE_SIMULATE_DAY_SHA256 = (
    "b86d98aeeb38dee25b26cb3413a69d5e66d9e6cb35a7a1c556c641286ca7dab4")
LARGE_RUN_BENCHMARK_SHA256 = (
    "9c7d95a4af1a69c191f2202d71c65f07b620b7531454927e3edc1d4f32a8a6f3")
# criterion 11's network: simulate_day at R=2 (seed 1)
OPERATOR_SIMULATE_DAY_SHA256 = (
    "cd169d2f581231829560c1809968a108b734f0c0ba4d5571ce68469b3b7a5100")
# generate_scenario(ScenarioSpec(6, 3, 2), seed=11): each file it writes, and
# the handover table built from its reports (sorted items, repr'd)
GENERATOR_SHA256 = {
    "energy.csv":
        "583679bc64294a817334f81815dbdc9e978116d386dd4751a533c61e5829c219",
    "energy_biased.csv":
        "ab96c2714b7653b50d44fbfbe19560c635a9f2a07d297a8f87b041c7c92e0cbe",
    "engineering.csv":
        "3a42a7e83cd882a749781ceadf8856ac732821a5657262ed00ca8aaf431cf5eb",
    "kpi.csv":
        "bf1c796568b385514d5ac00f4fd324e0c52204104b945b9373462c9b51d218f6",
    "kpi_biased.csv":
        "e32abc18eb64cf923450e1da61da427a8c76480704c5d57933ec68ab7de686d0",
    "mr.csv":
        "3c44406dc03696028bebb086a26c1169ca4c73ef1b329234d688d6698f79bf6e",
    "scenario.json":
        "06f4461d137d77ce0191923c52914b2db312ed03857469c3f60298a733e2b213",
}
# generate_scenario(ScenarioSpec(3, 2, 2, peak_capacity_ues=1.0,
# traffic_noise=1.5), seed=11): each file it writes
SPARSE_GENERATOR_SHA256 = {
    "energy.csv":
        "d6b8e47b3af2ef1c545b3957f5b812bda56078e02885422d1b3a7a27897e0763",
    "energy_biased.csv":
        "29d58ec40ac31bb2306ce5345654f9455c6fb9ce64a7abba72daaa393cc005c9",
    "engineering.csv":
        "a1a1dee4e99c8fa2cfc67ced7316f1f3cc285317f9783ab6c7241c31c794d4c8",
    "kpi.csv":
        "d835e9df6bb3e588c635cf8db9038e1cbe9d33fa0da615fbab9e94ff579154d8",
    "kpi_biased.csv":
        "5c9aa4b43f17b3b867e0a085fb76ff1641caff31105b9175a368a51a1e9cf223",
    "mr.csv":
        "719e4ec2e98e57273741578f9e79a196f6b9fc34917f9457ac49781c75f02500",
    "scenario.json":
        "c1c3b804eb4c9506a13dab8ed5421aded255c4705aa3c93eb8226cf9562dab6b",
}
HANDOVER_TABLE_SHA256 = (
    "a234385b6acc15018706c9895f496d4cc9ab7a8cabfb3320fd16705f731fd588")
# generate_scenario(ScenarioSpec(40, 30, 1, reports_per_cell_hour=4),
# seed=404): each file it writes. Its 1,680 KPI rows per kpi*.csv and 3,840
# reports cross the writers' chunk boundary (the specs above write fewer
# rows than a chunk per file).
CHUNKED_GENERATOR_SHA256 = {
    "energy.csv":
        "5ac4263d0d3ed5af82f176713ca2829ac38c25a67ccc71ce20065260a963daea",
    "energy_biased.csv":
        "10d5d2791b7565bb4e5ac13f625b2e83ee647ce4d8139e4bf54bcd391c59ff21",
    "engineering.csv":
        "c6bf2872dc499d1eb471f4e5baf1bc8733201e71963b020dacacb4879c0a05f2",
    "kpi.csv":
        "2110496bc119050bb539977ac3ef1eff4f05683c0d942504370bfd9338f58fdf",
    "kpi_biased.csv":
        "47d59acde2099a3cc2d28382fb278cc72f0a3d1a821da1e1b403c6c6cb03f950",
    "mr.csv":
        "76a99f19281271ac2b375229fbac7048ecadb12214a739fd9b0ca64a6ae8da5d",
    "scenario.json":
        "2ee21ee0f7d19672df0667709561fb73a3a78850ff6e76de6a94cc01d503cb47",
}

# `generate --runs 2`, `train`, then `simulate --runs 20 --max-steps 400`
# without (q0) and with (q1) CLI_OVERRIDES, all at --seed 7
CLI_SPECS = {"whatif": {"n_capacity": 2, "n_coverage": 1, "n_days": 3},
             "default": {}}
CLI_OVERRIDES = {"thresholds": {"cap001": {"entry_dl_prb": 104.0,
                                           "leave_dl_prb": 78.0}},
                 "a4": {"cap001": {"threshold_dbm": -97.5}}}
CLI_SHA256 = {
    ("whatif", "models/rate_model.json"):
        "4ab9fe8c7921d7d590fa6f930e1ee54ffc68eb13eb8382a6a7ac1dbe3be9895e",
    ("whatif", "models/energy_model.json"):
        "bf31d47f14cc4c548fbe04012ac2c703f2d9372d72292c375221c49bd0837fc2",
    ("whatif", "models/train_metrics.json"):
        "d6115b06e047e9f60064da7f77205cd70710f394a4aa8bbfbd5b87f4f688e697",
    ("whatif", "q0/predictions.csv"):
        "99d2f9369127d8dd46993b7caa87078fb9a4a4ffb4ecdc86dcd38cf304c94c95",
    ("whatif", "q1/predictions.csv"):
        "7a6969596b0328c026401674bef6bfbbdb92a8bf1e49f385806857d07a027b04",
    ("default", "models/rate_model.json"):
        "3ea3eda2e856510ec4e74048ef219bea1ea1c057c621545c0164ff015f10fb77",
    ("default", "models/energy_model.json"):
        "66bce060d456d07bc66fa2d5b4dbbff049facfd235bb3aade24b1da77685a60e",
    ("default", "models/train_metrics.json"):
        "ac9e0b5f87c0a8dc87cb1706076da3492365bf7420c7064be35c965f144b820d",
    ("default", "q0/predictions.csv"):
        "e9cda4a12907df49dcd6782c1a5fef210b6b8c39d431a743efc89a9ea71aacd4",
    ("default", "q1/predictions.csv"):
        "3c8980883ce29c6452ccd176509b14d8188a6580de238dbcad46da7140c3f98f",
}


def _digest(outputs, names):
    h = hashlib.sha256()
    for out in outputs:
        for name in names:
            h.update(getattr(out, name).tobytes())
    return h.hexdigest()


def _fitted_network(data, spec, seed):
    """(traffic fitted from the parsed KPI file, config, handover model)."""
    generate_scenario(spec, data, seed=seed)
    cfg, kpis, _, mrs = parse_datasets(data)
    return fit_traffic_model(kpis), cfg, build_handover_model_for_hours(cfg,
                                                                        mrs)


@pytest.fixture(scope="module")
def whatif_network(tmp_path_factory):
    return _fitted_network(tmp_path_factory.mktemp("whatif"),
                           ScenarioSpec(n_capacity=2, n_coverage=1, n_days=3),
                           seed=7)


@pytest.fixture(scope="module")
def large_network(tmp_path_factory):
    return _fitted_network(tmp_path_factory.mktemp("large"),
                           ScenarioSpec(30, 20, 1), seed=3)


@pytest.fixture(scope="module")
def operator_network(tmp_path_factory):
    scenario = generate_scenario(
        ScenarioSpec(375, 282, 1, reports_per_cell_hour=4),
        tmp_path_factory.mktemp("operator"), seed=404)
    return (scenario.traffic, scenario.cfg,
            build_handover_model_for_hours(scenario.cfg, scenario.mrs))


def test_simulate_day_arrays_are_pinned(whatif_network):
    outputs = simulate_day(*whatif_network,
                           AbmConfig(runs=20, max_steps=400, seed=7))
    assert _digest(outputs, ("ues", "dl_prbs", "ul_prbs", "cs_minutes")) \
        == SIMULATE_DAY_SHA256


def test_run_benchmark_arrays_are_pinned(whatif_network):
    outputs = run_benchmark(*whatif_network)
    assert _digest(outputs, ("ues", "dl_prbs", "cs_minutes")) \
        == RUN_BENCHMARK_SHA256


def test_simulate_day_arrays_are_pinned_on_a_large_network(large_network):
    outputs = simulate_day(*large_network,
                           AbmConfig(runs=5, max_steps=400, seed=5))
    assert _digest(outputs, ("ues", "dl_prbs", "ul_prbs", "cs_minutes")) \
        == LARGE_SIMULATE_DAY_SHA256


def test_simulate_day_arrays_are_pinned_at_operator_scale(operator_network):
    outputs = simulate_day(*operator_network,
                           AbmConfig(runs=2, max_steps=400, seed=1))
    assert _digest(outputs, ("ues", "dl_prbs", "ul_prbs", "cs_minutes")) \
        == OPERATOR_SIMULATE_DAY_SHA256


def test_run_benchmark_arrays_are_pinned_on_a_large_network(large_network):
    outputs = run_benchmark(*large_network)
    assert _digest(outputs, ("ues", "dl_prbs", "cs_minutes")) \
        == LARGE_RUN_BENCHMARK_SHA256


def test_generator_files_and_handover_table_are_pinned(tmp_path):
    scenario = generate_scenario(ScenarioSpec(6, 3, 2), tmp_path, seed=11)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == GENERATOR_SHA256
    table = build_handover_model_for_hours(scenario.cfg, scenario.mrs)
    items = sorted((key, sorted(pmf.items()))
                   for key, pmf in table.probabilities.items())
    assert hashlib.sha256(repr(items).encode()).hexdigest() \
        == HANDOVER_TABLE_SHA256


def test_sparse_generator_files_are_pinned(tmp_path):
    generate_scenario(ScenarioSpec(3, 2, 2, peak_capacity_ues=1.0,
                                   traffic_noise=1.5), tmp_path, seed=11)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == SPARSE_GENERATOR_SHA256
    # the pin covers the zero-UE rows: an unbiased cell-hour with no UEs
    # (which draws no rates) and a shut-down one in the biased campaign
    kpis = parse_kpis(tmp_path / "kpi.csv")
    assert ((kpis.column("rrc_ues") == 0.0)
            & (kpis.column("cs_minutes") == 0.0)).any()
    biased = parse_kpis(tmp_path / "kpi_biased.csv")
    assert (biased.column("cs_minutes") == 60.0).any()
    # every PRB count is written as a float, those clamped to the capacity
    # too, so the file survives a parse and write unchanged
    assert (kpis.column("dl_prbs_used") == 270.0).any()
    write_kpis(tmp_path / "rewritten.csv", kpis)
    assert (tmp_path / "rewritten.csv").read_bytes() \
        == (tmp_path / "kpi.csv").read_bytes()


def test_generator_files_across_a_chunk_boundary_are_pinned(tmp_path):
    generate_scenario(ScenarioSpec(40, 30, 1, reports_per_cell_hour=4),
                      tmp_path, seed=404)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == CHUNKED_GENERATOR_SHA256
    assert len(parse_kpis(tmp_path / "kpi.csv")) == 1680 > _CHUNK
    assert len(parse_mrs(tmp_path / "mr.csv")) == 3840 > 2 * _CHUNK


@pytest.fixture(scope="module")
def whatif_reports(whatif_network, tmp_path_factory):
    out = tmp_path_factory.mktemp("whatif_reports")
    scenario = generate_scenario(
        ScenarioSpec(n_capacity=2, n_coverage=1, n_days=3), out / "data",
        seed=7)
    cfg = whatif_network[1]
    outputs = simulate_day(*whatif_network,
                           AbmConfig(runs=20, max_steps=400, seed=7))
    bench = run_benchmark(*whatif_network)
    write_hourly_report(out / "abm_outputs.csv", outputs, cfg)
    write_hourly_report(out / "benchmark_outputs.csv", bench, cfg)
    truth = truth_tables_from_outputs(scenario, outputs)
    write_truth(out / "truth.csv", truth)
    abm, baseline = mean_tables(outputs, cfg), mean_tables(bench, cfg)
    write_eval_report(out, compare(abm, baseline, {
        kpi: table for kpi, table in truth.items() if kpi in abm}))
    return out


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_files_are_pinned(whatif_reports, name):
    assert hashlib.sha256((whatif_reports / name).read_bytes()).hexdigest() \
        == REPORT_SHA256[name]


@pytest.fixture(scope="module", params=sorted(CLI_SPECS))
def cli_outputs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    (out / "spec.json").write_text(json.dumps(CLI_SPECS[request.param]))
    (out / "overrides.json").write_text(json.dumps(CLI_OVERRIDES))
    query = ["--seed", 7, "--runs", 20, "--max-steps", 400, "simulate",
             "--data", out / "data", "--models", out / "models", "--out"]
    for args in (["--seed", 7, "--runs", 2, "generate", "--spec",
                  out / "spec.json", "--out", out / "data"],
                 ["--seed", 7, "train", "--data", out / "data", "--out",
                  out / "models"],
                 query + [out / "q0"],
                 query + [out / "q1", "--overrides", out / "overrides.json"]):
        r = CliRunner().invoke(main, [str(a) for a in args])
        assert r.exit_code == 0, r.output
    return request.param, out


@pytest.mark.parametrize("name", ["models/rate_model.json",
                                  "models/energy_model.json",
                                  "models/train_metrics.json",
                                  "q0/predictions.csv", "q1/predictions.csv"])
def test_cli_model_outputs_are_pinned(cli_outputs, name):
    spec, out = cli_outputs
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
        == CLI_SHA256[(spec, name)]
