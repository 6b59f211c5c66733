"""Pinned sha256 of the ABM and baseline arrays on the what-if network.

The network is the one perfbench's whatif workload queries: 2 capacity cells,
1 coverage cell, 3 days, scenario seed 7, traffic fitted from its KPI file.
A change to the ABM or the baseline that is meant to keep the outputs must
keep these digests; a change that is meant to move them updates them and
says why.
"""

import hashlib

import pytest

from carriersim import (AbmConfig, ScenarioSpec, build_handover_model_for_hours,
                        fit_traffic_model, generate_scenario, parse_datasets,
                        run_benchmark, simulate_day)

SIMULATE_DAY_SHA256 = (
    "b0f7a6bdf54016584514b275600c707fdec6c896610bab9cfd7a4435849d7c12")
RUN_BENCHMARK_SHA256 = (
    "8abcf5150ba2c789fcbfdf87c6e2960acb11a8a7fce09c40024a2e8c80e7b83d")


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
