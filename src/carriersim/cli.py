"""Command-line pipeline: generate | train | simulate | benchmark | compare.

Global flags (--seed, --runs, --max-steps) may also come from a JSON config
file given with --config or the CARRIERSIM_CONFIG environment variable;
explicit flags win. Every command is deterministic given its inputs and seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .abm import (
    AbmConfig,
    mean_tables,
    read_mean_report,
    run_benchmark,
    simulate_day,
    write_hourly_report,
    write_run_dump,
)
from .datamodel import (
    apply_overrides,
    check_ids,
    fit_traffic_model,
    parse_datasets,
    parse_energy,
    parse_kpis,
)
from .energymodel import (
    EnergyHyper,
    build_energy_samples,
    encode_features,
    fit_radio_energy_model,
    load_energy_model,
    predict_energy,
    save_energy_model,
)
from .errors import ConfigError, KeyMismatchError, SimulatorError
from .harness import (
    ScenarioSpec,
    compare,
    generate_scenario,
    ground_truth_replay,
    mae_mape,
    read_truth,
    write_eval_report,
    write_truth,
)
from .ratemodel import (
    RateHyper,
    build_rate_samples,
    load_rate_model,
    mean_rate_by_cell,
    predict_rates,
    save_rate_model,
    train_rate_model,
)
from .rules import build_handover_model_for_hours

_DEFAULTS = {"seed": 0, "runs": 100, "max_steps": 400}


def _resolve_settings(ctx_params, config_path):
    """The global settings: each flag given, else the config file's value,
    else the default. A config file that is not a JSON object, a value that
    is not an integer, a negative seed and runs or steps below 1 raise
    ConfigError naming the file or flag."""
    settings, source = dict(_DEFAULTS), {}
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text())
        except ValueError as exc:
            raise ConfigError(f"{config_path}: not valid JSON ({exc})")
        if not isinstance(config, dict):
            raise ConfigError(f"{config_path}: not a JSON object")
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


def _abm_config(settings) -> AbmConfig:
    return AbmConfig(runs=settings["runs"], max_steps=settings["max_steps"],
                     seed=settings["seed"])


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
    fields = json.loads(Path(spec_path).read_text()) if spec_path else {}
    try:
        spec = ScenarioSpec(**fields)
    except TypeError as exc:
        _fail(f"bad scenario spec: {exc}")
    try:
        scenario = generate_scenario(spec, out, seed=settings["seed"])
        if truth:
            tables = ground_truth_replay(scenario, _abm_config(settings))
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


def _chronological_split(rows, fraction=0.8):
    days = np.unique(rows.day)
    cut = max(1, int(round(fraction * len(days))))
    train = np.isin(rows.day, days[:cut])
    return rows.select(train), rows.select(~train)


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True,
                                                       file_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.pass_obj
def train(settings, data, out):
    """Train the energy and rate models from a dataset directory."""
    try:
        cfg, kpis, energies, _ = parse_datasets(data)
        train_kpis = _training_rows(cfg, data, "kpi_biased.csv", parse_kpis,
                                    kpis)
        train_energies = _training_rows(cfg, data, "energy_biased.csv",
                                        parse_energy, energies)
        kpi_train, kpi_test = _chronological_split(train_kpis)
        energy_train, energy_test = _chronological_split(train_energies)
        energy_model = fit_radio_energy_model(
            cfg, kpi_train, energy_train,
            EnergyHyper(seed=settings["seed"]))
        avg_samples, ce_samples = build_rate_samples(cfg, kpi_train)
        rate_model = train_rate_model(avg_samples, ce_samples, RateHyper())
    except SimulatorError as exc:
        _fail(exc)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_energy_model(out_dir / "energy_model.json", energy_model)
    save_rate_model(out_dir / "rate_model.json", rate_model)
    metrics = _test_metrics(cfg, energy_model, rate_model, kpi_test,
                            energy_test)
    (out_dir / "train_metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2), encoding="utf-8")
    click.echo(f"models written to {out}")
    for name, value in metrics.items():
        if value is not None:
            click.echo(f"  {name}: {value:.4f}")


def _test_metrics(cfg, energy_model, rate_model, kpi_test, energy_test):
    metrics = {"energy_test_mae_wh": None, "energy_test_mape_percent": None,
               "rate_test_mae_mbps": None}
    rows = build_energy_samples(cfg, kpi_test, energy_test)
    if rows:
        r = mae_mape([predict_energy(energy_model, encode_features(
            energy_model.schema, row.radio, row.cells, row.dl_loads,
            row.cs_fractions))[0] for row in rows],
            [row.energy_wh for row in rows])
        metrics["energy_test_mae_wh"] = r.mae
        metrics["energy_test_mape_percent"] = r.mape
    avg_samples, _ = build_rate_samples(cfg, kpi_test)
    rows = [s for cell, samples in sorted(avg_samples.items())
            if cell in rate_model.cells for s in samples]
    if rows:
        preds, _ = predict_rates(
            rate_model, [s.cell_id for s in rows],
            [s.dl_prb_load for s in rows], [s.rrc_ues for s in rows],
            np.random.default_rng(0))
        metrics["rate_test_mae_mbps"] = mae_mape(
            preds.tolist(), [s.rate_mbps for s in rows]).mae
    return metrics


def _prepare_network(data_dir, overrides_path):
    cfg, kpis, _, mrs = parse_datasets(data_dir)
    if overrides_path:
        try:
            overrides = json.loads(Path(overrides_path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{overrides_path}: not valid JSON ({exc})")
        cfg = apply_overrides(cfg, overrides)
    tm = fit_traffic_model(kpis)
    handover = build_handover_model_for_hours(cfg, mrs)
    return cfg, tm, handover, kpis


def _energy_predictions(cfg, tables, energy_model):
    """Mean energy per (radio unit, hour), one radio-hour at a time."""
    out = {}
    for radio in cfg.radio_units:
        cells = [cfg.cell(cid) for cid in radio.cell_ids]
        for hour in range(1, 25):
            loads = {c.id: min(max(tables["dl_load"][(c.id, hour)], 0.0), 1.0)
                     for c in cells}
            fractions = {c.id: tables["cs_minutes"][(c.id, hour)] / 60.0
                         for c in cells}
            out[(radio.id, hour)] = predict_energy(energy_model, encode_features(
                energy_model.schema, radio, cells, loads, fractions))[0]
    return out


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
        outputs = simulate_day(tm, cfg, handover, _abm_config(settings))
    except SimulatorError as exc:
        _fail(exc)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_hourly_report(out_dir / "abm_outputs.csv", outputs, cfg)
    write_run_dump(out_dir / "abm_runs.csv", outputs)
    tables = mean_tables(outputs, cfg)
    cells = rate_model.cells
    keys = [key for key in sorted(tables["dl_load"]) if key[0] in cells]
    rates, _ = predict_rates(
        rate_model, [cell for cell, _ in keys],
        [min(max(tables["dl_load"][key], 0.0), 1.0) for key in keys],
        [tables["ue"][key] for key in keys],
        np.random.default_rng([settings["seed"], 0x51]))
    write_truth(out_dir / "predictions.csv",
                {"energy_wh": _energy_predictions(cfg, tables, energy_model),
                 "rate_mbps": dict(zip(keys, rates.tolist()))})
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
        avg_samples, _ = build_rate_samples(cfg, _training_rows(
            cfg, data, "kpi_biased.csv", parse_kpis, kpis))
        mean_rates = mean_rate_by_cell(avg_samples)
    except SimulatorError as exc:
        _fail(exc)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one run per hour: mean = value, std = 0.0
    write_hourly_report(out_dir / "benchmark_outputs.csv", outputs, cfg)
    tables = mean_tables(outputs, cfg)
    write_truth(out_dir / "predictions.csv",
                {"energy_wh": _energy_predictions(cfg, tables, energy_model),
                 "rate_mbps": {(cell, hour): mean_rates[cell]
                               for cell, hour in sorted(tables["dl_load"])
                               if cell in mean_rates}})
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
        abm_tables = _estimator_tables(abm_dir, "abm_outputs.csv")
        bench_tables = _estimator_tables(bench_dir, "benchmark_outputs.csv")
        truth_tables = read_truth(truth_path)
        aligned = {"truth": {}, "abm": {}, "benchmark": {}}
        coverage = []
        for kpi, truth in truth_tables.items():
            estimates = {"abm": abm_tables.get(kpi),
                         "benchmark": bench_tables.get(kpi)}
            lacking = " and ".join(n for n, t in estimates.items() if t is None)
            if lacking:
                coverage.append(f"  {kpi}: skipped, not predicted by {lacking}")
                continue
            keys = set(truth) & set(abm_tables[kpi]) & set(bench_tables[kpi])
            if not keys:
                raise KeyMismatchError(f"no overlapping keys for KPI {kpi!r}")
            coverage.append(f"  {kpi}: kept {len(keys)} of {len(truth)} keys; "
                            "dropped " + ", ".join(
                                f"{len(set(truth) - set(t))} absent from {n}"
                                for n, t in estimates.items()))
            for name, table in (("truth", truth), *estimates.items()):
                aligned[name][kpi] = {k: table[k] for k in keys}
        report = compare(aligned["abm"], aligned["benchmark"], aligned["truth"])
    except SimulatorError as exc:
        _fail(exc)
    write_eval_report(out, report)
    click.echo(f"evaluation written to {out}")
    click.echo("\n".join(["coverage against the truth keys:"] + coverage))
    for kpi, ev in sorted(report.kpis.items()):
        gain = ("n/a" if ev.gain_mae is None
                else f"{100.0 * ev.gain_mae:.1f}%")
        click.echo(f"  {kpi}: abm mae={ev.abm.mae:.4f} "
                   f"benchmark mae={ev.benchmark.mae:.4f} gain={gain}")


if __name__ == "__main__":
    main()
