"""Output checks and the ledger of attempted and failed operations.

Each check returns a list of problems; an empty list means the output is
correct. An operation fails when its stage exits nonzero, an expected file is
missing, a (cell, hour 1-24) key is absent, a value is non-finite or
negative, shutdown minutes leave [0, 60], a MAE in the compare report is
non-finite, or a simulated day has the wrong shape. A failure is recorded
and the run goes on; nothing is retried.

The files are read with the csv and json modules, not with carriersim's own
readers, so that a defect in those readers cannot hide a bad output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

HOURS = range(1, 25)

DATASET_FILES = ("engineering.csv", "kpi.csv", "energy.csv", "mr.csv",
                 "kpi_biased.csv", "energy_biased.csv", "scenario.json",
                 "truth.csv")
MODEL_FILES = ("energy_model.json", "rate_model.json", "train_metrics.json")


class Ledger:
    """Counts operations; keeps the first problem of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            self.failures.append(f"{op}: {problems[0]}{more}")
        return not problems


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def missing_files(directory, names) -> list[str]:
    return [f"missing {Path(directory) / n}" for n in names
            if not (Path(directory) / n).is_file()]


def network_ids(data_dir) -> tuple[list[str], list[str], list[str]]:
    """(all cells, capacity cells, radio units) from engineering.csv."""
    with open(Path(data_dir) / "engineering.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = [r["cell_id"] for r in rows]
    capacity = [r["cell_id"] for r in rows if r["role"] == "capacity"]
    radios = sorted({r["radio_unit"] for r in rows})
    return cells, capacity, radios


def _value_problems(name, key, value, minutes=False) -> list[str]:
    if not math.isfinite(value) or value < 0:
        return [f"{name} {key}: bad value {value!r}"]
    if minutes and value > 60.0:
        return [f"{name} {key}: {value!r} shutdown minutes above 60"]
    return []


def _keys_problems(name, table, entities) -> list[str]:
    absent = [(e, h) for e in entities for h in HOURS if (e, h) not in table]
    if absent:
        return [f"{name}: {len(absent)} (entity, hour) keys absent, "
                f"e.g. {absent[0]}"]
    return []


def read_kpi_tables(path) -> dict[str, dict[tuple[str, int], float]]:
    """truth.csv / predictions.csv rows as {kpi: {(entity, hour): value}}."""
    tables: dict[str, dict[tuple[str, int], float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            tables.setdefault(row["kpi"], {})[
                (row["entity"], int(row["hour"]))] = float(row["value"])
    return tables


def check_kpi_file(path, required: dict[str, list[str]]) -> list[str]:
    """Every KPI in `required` covers its entities for hours 1-24; every
    value in the file is finite, nonnegative and, for cs_minutes, <= 60."""
    if not Path(path).is_file():
        return [f"missing {path}"]
    tables = read_kpi_tables(path)
    problems = []
    for kpi, entities in required.items():
        problems += _keys_problems(f"{path} {kpi}", tables.get(kpi, {}),
                                   entities)
    for kpi, table in tables.items():
        for key, value in table.items():
            problems += _value_problems(f"{path} {kpi}", key, value,
                                        minutes=kpi == "cs_minutes")
    return problems


def check_mean_report(path, cells) -> list[str]:
    """abm_outputs.csv / benchmark_outputs.csv: every (cell, hour) row with
    finite, nonnegative means and stds."""
    if not Path(path).is_file():
        return [f"missing {path}"]
    problems, table = [], {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["cell_id"], int(row["hour"]))
            table[key] = True
            for column, text in row.items():
                if column in ("cell_id", "hour"):
                    continue
                problems += _value_problems(
                    f"{path} {column}", key, float(text),
                    minutes=column == "cs_min_mean")
    return _keys_problems(str(path), table, cells) + problems


def check_dataset(data_dir) -> list[str]:
    problems = missing_files(data_dir, DATASET_FILES)
    if problems:
        return problems
    cells, _, radios = network_ids(data_dir)
    # rate_mbps has no key for a cell that is shut down in every run
    return check_kpi_file(Path(data_dir) / "truth.csv",
                          {"cs_minutes": cells, "dl_load": cells,
                           "ue": cells, "energy_wh": radios})


def check_estimate(out_dir, report_name, data_dir) -> list[str]:
    """A simulate or benchmark output directory."""
    cells, _, radios = network_ids(data_dir)
    return (check_mean_report(Path(out_dir) / report_name, cells)
            + check_kpi_file(Path(out_dir) / "predictions.csv",
                             {"energy_wh": radios, "rate_mbps": cells}))


def check_models(models_dir) -> list[str]:
    problems = missing_files(models_dir, MODEL_FILES)
    if problems:
        return problems
    metrics = json.loads((Path(models_dir) / "train_metrics.json").read_text())
    for name, value in sorted(metrics.items()):
        if value is None or not math.isfinite(value) or value < 0:
            problems.append(f"train_metrics {name}: bad value {value!r}")
    return problems


def check_report(report_dir) -> list[str]:
    problems = missing_files(report_dir, ("report.json", "profiles.csv"))
    if problems:
        return problems
    report = json.loads((Path(report_dir) / "report.json").read_text())
    for kpi, scores in sorted(report.items()):
        for estimator in ("abm", "benchmark"):
            mae = scores[estimator]["mae"]
            if mae is None or not math.isfinite(mae):
                problems.append(f"report {kpi} {estimator} MAE {mae!r}")
    return problems


def check_day(outputs, runs: int, n_cells: int) -> list[str]:
    """simulate_day's result: 24 hourly outputs of shape (runs, n_cells)."""
    if len(outputs) != 24:
        return [f"{len(outputs)} hourly outputs, expected 24"]
    problems = []
    for hour, out in zip(HOURS, outputs):
        if out.hour != hour:
            problems.append(f"hour {out.hour} in slot {hour}")
        for name in ("ues", "dl_prbs", "cs_minutes"):
            arr = getattr(out, name)
            if arr.shape != (runs, n_cells):
                problems.append(f"hour {hour} {name} shape {arr.shape}")
            elif not (arr >= 0).all() or not (arr < math.inf).all():
                problems.append(f"hour {hour} {name}: non-finite or negative")
        if (out.cs_minutes > 60.0).any():
            problems.append(f"hour {hour}: shutdown minutes above 60")
    return problems


def day_digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        for arr in (out.ues, out.dl_prbs, out.cs_minutes):
            h.update(arr.tobytes())
    return h.hexdigest()
