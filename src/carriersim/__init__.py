"""Carriersim: carrier-shutdown energy and throughput modelling for cellular networks.

The package combines a stochastic agent-based simulation of cell (de)activation
with learned energy and rate submodels, and evaluates both against a
deterministic expert baseline on synthetic, oracle-backed scenarios.
"""

from .abm import (
    AbmConfig,
    HourlyOutputs,
    PointOutputs,
    run_benchmark,
    run_monte_carlo,
    simulate_day,
)
from .datamodel import (
    A4Params,
    Cell,
    CellKpiRecord,
    DatasetPaths,
    MeasurementReport,
    NetworkConfig,
    RadioEnergyRecord,
    RadioUnit,
    ShutdownThresholds,
    TrafficModel,
    apply_overrides,
    draw_inputs,
    fit_traffic_model,
    parse_datasets,
    write_datasets,
)
from .energymodel import (
    EnergyHyper,
    EnergyModel,
    fit_radio_energy_model,
    load_energy_model,
    predict_energy,
    save_energy_model,
    train_energy_model,
)
from .errors import SimulatorError
from .harness import (
    ScenarioSpec,
    SyntheticScenario,
    compare,
    generate_scenario,
    ground_truth_replay,
    mae_mape,
)
from .ratemodel import (
    RateHyper,
    RateModel,
    load_rate_model,
    predict_rate,
    predict_rates,
    save_rate_model,
    train_rate_model,
)
from .rules import (
    HandoverModel,
    a4_qualifies,
    build_handover_model,
    build_handover_model_for_hours,
    check_shutdown_entry,
    check_wakeup,
)

__version__ = "0.1.0"

__all__ = [
    "A4Params",
    "AbmConfig",
    "Cell",
    "CellKpiRecord",
    "DatasetPaths",
    "EnergyHyper",
    "EnergyModel",
    "HandoverModel",
    "HourlyOutputs",
    "MeasurementReport",
    "NetworkConfig",
    "PointOutputs",
    "RadioEnergyRecord",
    "RadioUnit",
    "RateHyper",
    "RateModel",
    "ScenarioSpec",
    "ShutdownThresholds",
    "SimulatorError",
    "SyntheticScenario",
    "TrafficModel",
    "a4_qualifies",
    "apply_overrides",
    "build_handover_model",
    "build_handover_model_for_hours",
    "check_shutdown_entry",
    "check_wakeup",
    "compare",
    "draw_inputs",
    "fit_radio_energy_model",
    "fit_traffic_model",
    "generate_scenario",
    "ground_truth_replay",
    "load_energy_model",
    "load_rate_model",
    "mae_mape",
    "parse_datasets",
    "predict_energy",
    "predict_rate",
    "predict_rates",
    "run_benchmark",
    "run_monte_carlo",
    "save_energy_model",
    "save_rate_model",
    "simulate_day",
    "train_energy_model",
    "train_rate_model",
    "write_datasets",
    "__version__",
]
