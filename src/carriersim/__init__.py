"""Carriersim: carrier-shutdown energy and throughput modelling for cellular networks.

The package combines a stochastic agent-based simulation of cell (de)activation
with learned energy and rate submodels, and evaluates both against a
deterministic expert baseline on synthetic, oracle-backed scenarios.
"""

from .abm import AbmConfig, HourlyOutputs, run_benchmark, simulate_day
from .datamodel import (TrafficModel, draw_inputs, fit_traffic_model,
                        parse_datasets)
from .errors import SimulatorError
from .harness import ScenarioSpec, generate_scenario
from .rules import build_handover_model_for_hours

__version__ = "0.1.0"

__all__ = [
    "AbmConfig",
    "HourlyOutputs",
    "ScenarioSpec",
    "SimulatorError",
    "TrafficModel",
    "build_handover_model_for_hours",
    "draw_inputs",
    "fit_traffic_model",
    "generate_scenario",
    "parse_datasets",
    "run_benchmark",
    "simulate_day",
    "__version__",
]
