"""Pinned sha256 of the ABM and baseline arrays on the what-if network, and
of the scenario generator's files.

The network is the one perfbench's whatif workload queries: 2 capacity cells,
1 coverage cell, 3 days, scenario seed 7, traffic fitted from its KPI file.
It has one coverage cell, so its reports never draw extra neighbours; the
generator is pinned on a 6 + 3-cell, 2-day spec (seed 11) that does, and on
a sparse, noisy 3 + 2-cell spec whose cell-hours reach the zero-UE branch of
both KPI campaigns.
A change to the ABM, the baseline or the generator that is meant to keep the
outputs must keep these digests; a change that is meant to move them updates
them and says why.
"""

import hashlib

import pytest

from carriersim import (AbmConfig, ScenarioSpec, build_handover_model_for_hours,
                        fit_traffic_model, generate_scenario, parse_datasets,
                        run_benchmark, simulate_day)
from carriersim.datamodel import parse_kpis, write_kpis

SIMULATE_DAY_SHA256 = (
    "b0f7a6bdf54016584514b275600c707fdec6c896610bab9cfd7a4435849d7c12")
RUN_BENCHMARK_SHA256 = (
    "8abcf5150ba2c789fcbfdf87c6e2960acb11a8a7fce09c40024a2e8c80e7b83d")
# generate_scenario(ScenarioSpec(6, 3, 2), seed=11): each file it writes, and
# the handover table built from its reports (sorted items, repr'd)
GENERATOR_SHA256 = {
    "energy.csv":
        "8bf37b488839773fbbf05864f0dee79259503b5ae94bddf6bea0be844dc4fbcb",
    "energy_biased.csv":
        "a840c76e21cc71ea602f4142cc0bc587d2ad8867784f8bb5c243aa01609952e5",
    "engineering.csv":
        "3a42a7e83cd882a749781ceadf8856ac732821a5657262ed00ca8aaf431cf5eb",
    "kpi.csv":
        "17f10bb14a34ac28a2e80ede5f3ea6e64398047ce54e3d0d6d0eb058d632ddf8",
    "kpi_biased.csv":
        "86a3c48e58f70d08460be6b27bf2bf80ec4968a36e39e308cd1352de4b390828",
    "mr.csv":
        "b5b308d1f98a3397be2c353c9e8a5d3e51de43c82795eac0b813c5efc89a200d",
    "scenario.json":
        "06f4461d137d77ce0191923c52914b2db312ed03857469c3f60298a733e2b213",
}
# generate_scenario(ScenarioSpec(3, 2, 2, peak_capacity_ues=1.0,
# traffic_noise=1.5), seed=11): each file it writes
SPARSE_GENERATOR_SHA256 = {
    "energy.csv":
        "558bc5145138c626bf9f775b0f2b2051d65e23a6293bd1de4899cc3902ade3e9",
    "energy_biased.csv":
        "0a8fd583a3a994bbf42c9a587c8005961538df5624e31a8a862eca39fc58a8df",
    "engineering.csv":
        "a1a1dee4e99c8fa2cfc67ced7316f1f3cc285317f9783ab6c7241c31c794d4c8",
    "kpi.csv":
        "76b95c0974a54b10870e00889939289d6b23c8e7d27dee30fed5fc18e00daf93",
    "kpi_biased.csv":
        "a3df098e08eb94729de8b0570295086c14a2fe5e1911138f8b7266f59a61a8a5",
    "mr.csv":
        "232cfb463794691f227682248fc955d5e49266f24651d8ce7bb4f821a094026d",
    "scenario.json":
        "c1c3b804eb4c9506a13dab8ed5421aded255c4705aa3c93eb8226cf9562dab6b",
}
HANDOVER_TABLE_SHA256 = (
    "4192adceedc9ee9cd4f6862acfcc694ff3b925c8de3fe04b2c88b7b63e6634c3")


def _digest(outputs, names):
    h = hashlib.sha256()
    for out in outputs:
        for name in names:
            h.update(getattr(out, name).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def whatif_network(tmp_path_factory):
    data = tmp_path_factory.mktemp("whatif")
    generate_scenario(ScenarioSpec(n_capacity=2, n_coverage=1, n_days=3),
                      data, seed=7)
    cfg, kpis, _, mrs = parse_datasets(data)
    return fit_traffic_model(kpis), cfg, build_handover_model_for_hours(cfg,
                                                                        mrs)


def test_simulate_day_arrays_are_pinned(whatif_network):
    outputs = simulate_day(*whatif_network,
                           AbmConfig(runs=20, max_steps=400, seed=7))
    assert _digest(outputs, ("ues", "dl_prbs", "ul_prbs", "cs_minutes")) \
        == SIMULATE_DAY_SHA256


def test_run_benchmark_arrays_are_pinned(whatif_network):
    outputs = run_benchmark(*whatif_network)
    assert _digest(outputs, ("ues", "dl_prbs", "cs_minutes")) \
        == RUN_BENCHMARK_SHA256


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
    assert any(r.rrc_ues == 0.0 and r.cs_minutes == 0.0 for r in kpis)
    biased = parse_kpis(tmp_path / "kpi_biased.csv")
    assert any(r.cs_minutes == 60.0 for r in biased)
    # every PRB count is written as a float, those clamped to the capacity
    # too, so the file survives a parse and write unchanged
    assert any(r.dl_prbs == 270.0 for r in kpis)
    write_kpis(tmp_path / "rewritten.csv", kpis)
    assert (tmp_path / "rewritten.csv").read_bytes() \
        == (tmp_path / "kpi.csv").read_bytes()
