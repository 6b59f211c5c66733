"""Command-line pipeline: generate | train | simulate | benchmark | compare.

Click wiring and file reads and writes only: each stage computes through
library calls, mostly `harness`'s pipeline stages. Global flags (--seed,
--runs, --max-steps) may also come from a JSON config file given with
--config or the CARRIERSIM_CONFIG environment variable; explicit flags win.
Every command is deterministic given its inputs and seed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import __version__
from .abm import (AbmConfig, read_mean_report, run_benchmark, simulate_day,
                  write_hourly_report, write_run_dump)
from .datamodel import check_ids, parse_datasets, parse_energy, parse_kpis
from .energymodel import load_energy_model, save_energy_model
from .errors import ConfigError, SimulatorError
from .harness import (ScenarioSpec, abm_predictions, align_to_truth,
                      baseline_predictions, compare, generate_scenario,
                      ground_truth_replay, prepare_network, read_truth,
                      train_models, write_eval_report, write_truth)
from .ratemodel import load_rate_model, save_rate_model

_DEFAULTS = {"seed": 0, "runs": 100, "max_steps": 400}


def _read_json(path):
    """The JSON value in `path`, else ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})")


def _json_object(path) -> dict:
    """The JSON object in `path`, else ConfigError naming the file."""
    value = _read_json(path)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return value


def _resolve_settings(ctx_params, config_path):
    """The global settings: each flag given, else the config file's value,
    else the default. A config file that is not a JSON object, a value that
    is not an integer, a negative seed and runs or steps below 1 raise
    ConfigError naming the file or flag."""
    settings, source = dict(_DEFAULTS), {}
    if config_path:
        config = _json_object(config_path)
        for key in _DEFAULTS.keys() & config.keys():
            settings[key], source[key] = config[key], f"{config_path}: {key}"
    for key in _DEFAULTS:
        if ctx_params.get(key) is not None:
            settings[key] = ctx_params[key]
            source[key] = "--" + key.replace("_", "-")
    for key, value in settings.items():
        least = 0 if key == "seed" else 1
        if type(value) is not int or value < least:
            raise ConfigError(f"{source[key]}: {value!r} is not an integer "
                              f"of at least {least}")
    return settings


def _read_spec(spec_path) -> ScenarioSpec:
    """The scenario spec in `spec_path`, defaults for the fields it omits.
    A file that is not a JSON object, an unknown field, an int field that is
    not an integer (a bool or float included) and a float field that is not
    a finite number raise ConfigError naming the file and field."""
    fields = _json_object(spec_path)
    kinds = {f.name: type(f.default) for f in dataclasses.fields(ScenarioSpec)}
    for key, value in fields.items():
        if key not in kinds:
            raise ConfigError(f"{spec_path}: unknown scenario field {key!r}")
        if kinds[key] is int:
            if type(value) is not int:
                raise ConfigError(f"{spec_path}: {key}: {value!r} is not an "
                                  "integer")
        elif type(value) not in (int, float) \
                or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{spec_path}: {key}: {value!r} is not a finite "
                              "number")
    return ScenarioSpec(**fields)


@click.group()
@click.version_option(__version__)
@click.option("--seed", type=int, default=None, help="Master RNG seed.")
@click.option("--runs", type=int, default=None,
              help="Monte Carlo runs per hour.")
@click.option("--max-steps", type=int, default=None,
              help="Step cap per Monte Carlo run.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              envvar="CARRIERSIM_CONFIG", default=None,
              help="JSON file with default settings (flags win).")
@click.pass_context
def main(ctx, seed, runs, max_steps, config):
    """Carrier-shutdown energy/throughput modelling pipeline."""
    try:
        ctx.obj = _resolve_settings(
            {"seed": seed, "runs": runs, "max_steps": max_steps}, config)
    except ConfigError as exc:
        _fail(exc)


def _fail(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True,
                                                     dir_okay=False),
              default=None, help="JSON file with scenario sizes/knobs.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--truth/--no-truth", default=True,
              help="Also write reference post-activation KPIs (truth.csv).")
@click.pass_obj
def generate(settings, spec_path, out, truth):
    """Generate a synthetic scenario with known ground-truth laws."""
    try:
        spec = _read_spec(spec_path) if spec_path else ScenarioSpec()
        scenario = generate_scenario(spec, out, seed=settings["seed"])
        if truth:
            tables = ground_truth_replay(scenario, AbmConfig(**settings))
            write_truth(Path(out) / "truth.csv", tables)
    except SimulatorError as exc:
        _fail(exc)
    click.echo(f"scenario written to {out}")


def _training_rows(cfg, data_dir, name, parse, rows):
    """The shutdown-active campaign's `name` file, its ids checked against
    `cfg`, when present; else the plain campaign's `rows`."""
    path = Path(data_dir) / name
    if path.exists():
        rows = parse(path)
        check_ids(cfg, rows, path)
    return rows


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True,
                                                       file_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.pass_obj
def train(settings, data, out):
    """Train the energy and rate models from a dataset directory."""
    try:
        cfg, kpis, energies, _ = parse_datasets(data)
        energy_model, rate_model, metrics = train_models(
            cfg, _training_rows(cfg, data, "kpi_biased.csv", parse_kpis, kpis),
            _training_rows(cfg, data, "energy_biased.csv", parse_energy,
                           energies),
            settings["seed"])
    except SimulatorError as exc:
        _fail(exc)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_energy_model(out_dir / "energy_model.json", energy_model)
    save_rate_model(out_dir / "rate_model.json", rate_model)
    (out_dir / "train_metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2), encoding="utf-8")
    click.echo(f"models written to {out}")
    for name, value in metrics.items():
        if value is not None:
            click.echo(f"  {name}: {value:.4f}")


def _prepare_network(data_dir, overrides_path):
    """The dataset's network under the overrides file, if any (see
    harness.prepare_network), and the dataset's KPI rows."""
    cfg, kpis, _, mrs = parse_datasets(data_dir)
    overrides = _read_json(overrides_path) if overrides_path else {}
    return (*prepare_network(cfg, kpis, mrs, overrides), kpis)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True,
                                                       file_okay=False))
@click.option("--models", required=True, type=click.Path(exists=True,
                                                         file_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--overrides", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON with per-cell threshold/A4 patches.")
@click.pass_obj
def simulate(settings, data, models, out, overrides):
    """Run the stochastic simulation and predict energy/rates."""
    try:
        cfg, tm, handover, _ = _prepare_network(data, overrides)
        energy_model = load_energy_model(Path(models) / "energy_model.json")
        rate_model = load_rate_model(Path(models) / "rate_model.json")
        outputs = simulate_day(tm, cfg, handover, AbmConfig(**settings))
        predictions = abm_predictions(cfg, outputs, energy_model, rate_model,
                                      settings["seed"])
    except SimulatorError as exc:
        _fail(exc)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_hourly_report(out_dir / "abm_outputs.csv", outputs, cfg)
    write_run_dump(out_dir / "abm_runs.csv", outputs)
    write_truth(out_dir / "predictions.csv", predictions)
    click.echo(f"simulation outputs written to {out}")


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True,
                                                       file_okay=False))
@click.option("--models", required=True, type=click.Path(exists=True,
                                                         file_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--overrides", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.pass_obj
def benchmark(settings, data, models, out, overrides):
    """Run the deterministic expert baseline and predict energy/rates.

    Rates use the mean estimator (per-cell training mean), energies the
    trained model on the baseline's point estimates.
    """
    try:
        cfg, tm, handover, kpis = _prepare_network(data, overrides)
        energy_model = load_energy_model(Path(models) / "energy_model.json")
        outputs = run_benchmark(tm, cfg, handover)
        predictions = baseline_predictions(
            cfg, outputs, energy_model,
            _training_rows(cfg, data, "kpi_biased.csv", parse_kpis, kpis))
    except SimulatorError as exc:
        _fail(exc)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one run per hour: mean = value, std = 0.0
    write_hourly_report(out_dir / "benchmark_outputs.csv", outputs, cfg)
    write_truth(out_dir / "predictions.csv", predictions)
    click.echo(f"benchmark outputs written to {out}")


def _estimator_tables(directory, outputs_name):
    tables = read_mean_report(Path(directory) / outputs_name)
    predictions = Path(directory) / "predictions.csv"
    if predictions.exists():
        tables.update(read_truth(predictions))
    return tables


@main.command(name="compare")
@click.option("--abm", "abm_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--benchmark", "bench_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--truth", "truth_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
def compare_cmd(abm_dir, bench_dir, truth_path, out):
    """Score simulation and baseline against reference KPIs."""
    try:
        *aligned, coverage = align_to_truth(
            _estimator_tables(abm_dir, "abm_outputs.csv"),
            _estimator_tables(bench_dir, "benchmark_outputs.csv"),
            read_truth(truth_path))
        report = compare(*aligned)
    except SimulatorError as exc:
        _fail(exc)
    write_eval_report(out, report)
    click.echo(f"evaluation written to {out}")
    click.echo("\n".join(["coverage against the truth keys:"]
                         + [f"  {line}" for line in coverage]))
    for kpi, ev in sorted(report.kpis.items()):
        gain = ("n/a" if ev.gain_mae is None
                else f"{100.0 * ev.gain_mae:.1f}%")
        click.echo(f"  {kpi}: abm mae={ev.abm.mae:.4f} "
                   f"benchmark mae={ev.benchmark.mae:.4f} gain={gain}")


if __name__ == "__main__":
    main()
