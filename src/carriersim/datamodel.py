"""Network configuration, dataset files and per-cell traffic distributions.

Dataset files are UTF-8, comma-separated with a header row and `.` decimals.
Unknown columns are ignored so operator exports with extra counters parse as-is.

engineering.csv -- one row per cell:
    cell_id, radio_unit, radio_type, n_trx, carrier_tx_mode, frequency_mhz,
    bandwidth_mhz, max_tx_power_dbm, n_dl_prb, n_ul_prb, role,
    paired_coverage_cell, a4_threshold_dbm, a4_hysteresis_db,
    a4_freq_offsets_db, a4_cell_offsets_db,
    entry_ue, entry_dl_prb, entry_ul_prb, leave_ue, leave_dl_prb, leave_ul_prb
  `role` is "capacity" or "coverage". Pairing and shutdown thresholds are
  required on capacity rows and must be blank on coverage rows. The A4 offset
  fields hold `cell:value` pairs joined by `|` (blank means no per-neighbour
  offsets; missing entries read as 0).

kpi.csv -- one row per cell, day and hour:
    cell_id, day, hour, rrc_ues, dl_prbs_used, ul_prbs_used, dl_bits,
    dl_bits_lastslot, dl_active_time_s, ul_bits, dl_total_time_s, ul_time_s,
    rate_bin_01 .. rate_bin_15, cs_minutes
  `dl_active_time_s` excludes the buffer-emptying slots whose bits are counted
  in `dl_bits_lastslot`. The UL volume/time columns are parsed but unused
  downstream.

energy.csv -- one row per radio unit, day and hour:
    radio_unit, day, hour, energy_wh

mr.csv -- one row per UE measurement report:
    timestamp, ue_id, serving_cell, rsrp_dbm
  `timestamp` is ISO-8601 (`YYYY-MM-DDTHH:MM:SS`); `rsrp_dbm` holds
  `cell:value` pairs joined by `|` and must include the serving cell.

Numeric fields must be finite: `nan` and `inf` are rejected with the file
and row, like any other malformed value.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    BadReferenceError,
    ConfigError,
    MalformedRowError,
    MissingColumnError,
    NoSamplesError,
)

N_RATE_BINS = 15
MAX_CARRIERS = 6
DEFAULT_SIGMA_FLOOR = 1e-6
_WRITE_CHUNK = 1536   # rows the KPI and MR writers format at a time


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class Cell:
    id: str
    radio_unit: str
    frequency_mhz: float
    bandwidth_mhz: float
    max_tx_power_dbm: float
    n_dl_prb: int
    n_ul_prb: int

    def __post_init__(self):
        if self.bandwidth_mhz <= 0:
            raise ConfigError(f"cell {self.id}: bandwidth must be positive")
        if self.n_dl_prb <= 0 or self.n_ul_prb <= 0:
            raise ConfigError(f"cell {self.id}: PRB counts must be positive")


@dataclass(frozen=True)
class RadioUnit:
    id: str
    radio_type: str
    n_trx: int
    carrier_tx_mode: str
    cell_ids: tuple[str, ...]


@dataclass(frozen=True)
class A4Params:
    """Inter-frequency handover trigger configuration of one serving cell."""

    threshold_dbm: float
    hysteresis_db: float = 0.0
    freq_offset_db: Mapping[str, float] = field(default_factory=dict)
    cell_offset_db: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.hysteresis_db < 0:
            raise ConfigError("A4 hysteresis must be nonnegative")


@dataclass(frozen=True)
class ShutdownThresholds:
    """Entry (all must hold) and leaving (any may hold) thresholds."""

    entry_ue: float
    entry_dl_prb: float
    entry_ul_prb: float
    leave_ue: float
    leave_dl_prb: float
    leave_ul_prb: float

    def __post_init__(self):
        for name in ("entry_ue", "entry_dl_prb", "entry_ul_prb",
                     "leave_ue", "leave_dl_prb", "leave_ul_prb"):
            if getattr(self, name) < 0:
                raise ConfigError(f"shutdown threshold {name} must be nonnegative")


@dataclass(frozen=True)
class NetworkConfig:
    """Engineering parameters: cells, radios, pairing, thresholds, mobility.

    Immutable after construction and safe to share across threads.
    """

    radio_units: tuple[RadioUnit, ...]
    cells: tuple[Cell, ...]
    capacity_cells: frozenset[str]
    coverage_cells: frozenset[str]
    pairing: Mapping[str, str]
    mobility: Mapping[str, A4Params]
    energy_saving: Mapping[str, ShutdownThresholds]

    def __post_init__(self):
        ids = [c.id for c in self.cells]
        known = set(ids)
        if len(ids) != len(known):
            raise ConfigError("duplicate cell ids")
        if self.capacity_cells & self.coverage_cells:
            raise ConfigError("capacity and coverage cell sets overlap")
        if (self.capacity_cells | self.coverage_cells) != known:
            raise ConfigError("capacity and coverage sets must partition the cells")
        for c in self.capacity_cells:
            if c not in self.pairing:
                raise BadReferenceError(f"capacity cell {c!r} has no pairing entry")
        for c, b in self.pairing.items():
            if c not in known:
                raise BadReferenceError(f"pairing source {c!r} is not a known cell")
            if c not in self.capacity_cells:
                raise BadReferenceError(f"pairing source {c!r} is not a capacity cell")
            if b not in self.coverage_cells:
                raise BadReferenceError(
                    f"pairing of {c!r} references {b!r}, not a coverage cell")
        for c in self.mobility:
            if c not in known:
                raise BadReferenceError(f"mobility entry for unknown cell {c!r}")
        for c in self.energy_saving:
            if c not in known:
                raise BadReferenceError(f"thresholds for unknown cell {c!r}")
        for c in self.capacity_cells:
            if c not in self.energy_saving:
                raise ConfigError(f"capacity cell {c!r} has no shutdown thresholds")
        by_radio: dict[str, list[str]] = {}
        for cell in self.cells:
            by_radio.setdefault(cell.radio_unit, []).append(cell.id)
        declared = {r.id: r for r in self.radio_units}
        if set(by_radio) != set(declared):
            raise BadReferenceError("cells and radio units are inconsistent")
        for rid, members in by_radio.items():
            if not 1 <= len(members) <= MAX_CARRIERS:
                raise ConfigError(
                    f"radio unit {rid!r} carries {len(members)} cells, "
                    f"allowed 1..{MAX_CARRIERS}")
            if set(declared[rid].cell_ids) != set(members):
                raise BadReferenceError(f"radio unit {rid!r} cell list is stale")

    def cell(self, cell_id: str) -> Cell:
        return self._cell_index[cell_id]

    @property
    def _cell_index(self) -> dict[str, Cell]:
        idx = getattr(self, "_cell_index_cache", None)
        if idx is None:
            idx = {c.id: c for c in self.cells}
            object.__setattr__(self, "_cell_index_cache", idx)
        return idx

    def _prb_capacity(self, cell_ids: tuple[str, ...]) -> np.ndarray:
        """The cells' (DL, UL) PRB counts as a float array, built once per
        tuple of ids; a cell the network lacks raises BadReferenceError."""
        cache = self.__dict__.setdefault("_prb_capacity_cache", {})
        if cell_ids not in cache:
            idx = self._cell_index
            try:
                cache[cell_ids] = np.array([(idx[c].n_dl_prb, idx[c].n_ul_prb)
                                            for c in cell_ids], dtype=float)
            except KeyError as exc:
                raise BadReferenceError(f"traffic model cell {exc.args[0]!r} "
                                        "is not in the network") from None
        return cache[cell_ids]

    def cells_on_frequency(self, frequency_mhz: float) -> tuple[str, ...]:
        """Ids of the cells on `frequency_mhz` in cell order, indexed once."""
        index = self.__dict__.get("_frequency_index")
        if index is None:
            index = {}
            for c in self.cells:
                index.setdefault(c.frequency_mhz, []).append(c.id)
            object.__setattr__(self, "_frequency_index", index)
        return tuple(index.get(frequency_mhz, ()))


@dataclass(frozen=True)
class CellKpiRecord:
    """Hourly cell counters from one day of measurements."""

    cell_id: str
    day: int
    hour: int
    rrc_ues: float
    dl_prbs: float
    ul_prbs: float
    dl_bits: float
    dl_bits_lastslot: float
    dl_active_time_s: float
    rate_bins: tuple[float, ...]
    cs_minutes: float
    ul_bits: float = 0.0
    dl_total_time_s: float = 0.0
    ul_time_s: float = 0.0


@dataclass(frozen=True)
class RadioEnergyRecord:
    radio_unit: str
    day: int
    hour: int
    energy_wh: float


@dataclass(frozen=True)
class KpiRows:
    """KPI rows as columns: each row's cell id, day and hour, and its
    counters as one (rows, 25) float64 array in kpi.csv column order."""

    cell_ids: list[str]
    day: np.ndarray
    hour: np.ndarray
    values: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[CellKpiRecord]) -> "KpiRows":
        records = list(records)
        return cls(
            [r.cell_id for r in records], np.array([r.day for r in records]),
            np.array([r.hour for r in records]),
            np.array([(r.rrc_ues, r.dl_prbs, r.ul_prbs, r.dl_bits,
                       r.dl_bits_lastslot, r.dl_active_time_s, r.ul_bits,
                       r.dl_total_time_s, r.ul_time_s, *r.rate_bins,
                       r.cs_minutes) for r in records],
                     dtype=float).reshape(len(records), len(_KPI_COLUMNS) - 3))


@dataclass(frozen=True)
class MeasurementReport:
    timestamp: str
    ue_id: str
    serving_cell: str
    neighbor_rsrp_dbm: Mapping[str, float]

    @property
    def hour(self) -> int:
        """Hour-of-day index in 1..24 derived from the ISO timestamp."""
        return int(self.timestamp[11:13]) + 1


@dataclass(frozen=True, eq=False)
class MeasurementReports:
    """Measurement reports as columns. Report i was sent at timestamps[i] by
    UE ue_ids[i] and served by cells[serving[i]]; its RSRP pairs are
    (cells[neighbours[k]], rsrp_dbm[k]) for k in offsets[i]:offsets[i + 1]
    (compressed sparse rows), in the order they were given. `cells` is
    sorted, so code order is cell-id order. len(), iteration and indexing
    give MeasurementReport rows, built on demand (iteration stops at the
    IndexError past the last one)."""

    cells: tuple[str, ...]
    timestamps: list[str]
    ue_ids: list[str]
    serving: np.ndarray
    offsets: np.ndarray
    neighbours: np.ndarray
    rsrp_dbm: np.ndarray

    @classmethod
    def from_rows(cls, reports: Iterable[MeasurementReport],
                  ) -> "MeasurementReports":
        """The columns of `reports`, read once and not kept."""
        stamps, ue_ids, serving, counts, cells, rsrp = [], [], [], [0], [], []
        for r in reports:
            stamps.append(r.timestamp)
            ue_ids.append(r.ue_id)
            serving.append(r.serving_cell)
            counts.append(len(r.neighbor_rsrp_dbm))
            cells += r.neighbor_rsrp_dbm
            rsrp += r.neighbor_rsrp_dbm.values()
        names = tuple(sorted(set(serving).union(cells)))
        code = {c: k for k, c in enumerate(names)}.__getitem__
        serving, cells = (np.array(list(map(code, ids)), dtype=int)
                          for ids in (serving, cells))
        return cls(names, stamps, ue_ids, serving, np.cumsum(counts), cells,
                   np.array(rsrp, dtype=float))

    @functools.cached_property
    def hour(self) -> np.ndarray:
        """Each report's MeasurementReport.hour."""
        return np.array([int(t[11:13]) + 1 for t in self.timestamps], dtype=int)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> MeasurementReport:
        i = range(len(self))[i]
        pairs = slice(self.offsets[i], self.offsets[i + 1])
        return MeasurementReport(
            self.timestamps[i], self.ue_ids[i], self.cells[self.serving[i]],
            dict(zip([self.cells[k] for k in self.neighbours[pairs].tolist()],
                     self.rsrp_dbm[pairs].tolist())))


TRAFFIC_KPIS = ("ues", "dl_prbs", "ul_prbs")


@dataclass(frozen=True)
class TrafficModel:
    """Unbiased per-cell, per-hour Gaussians of UE count and PRB usage.

    `mean` and `std` have shape (24, len(cells), 3): hour h at index h - 1,
    cells in `cells` order and the last axis in TRAFFIC_KPIS order. Means
    must be finite and stds finite and positive.
    """

    cells: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        shape = (24, len(self.cells), len(TRAFFIC_KPIS))
        for name in ("mean", "std"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ConfigError(f"traffic {name} has shape {value.shape}, "
                                  f"expected {shape}")
            object.__setattr__(self, name, value)
        if not np.isfinite(self.mean).all():
            raise ConfigError("traffic means must be finite")
        if not (np.isfinite(self.std) & (self.std > 0)).all():
            raise ConfigError("traffic stds must be finite and positive")

    def rows(self, cell_ids: Iterable[str]) -> np.ndarray:
        """Row of each of `cell_ids` in `mean` and `std`, a read-only array
        built once per tuple of ids. A cell without traffic misses every
        hour, so it raises NoSamplesError(cell, 1)."""
        key = tuple(cell_ids)
        cache = self.__dict__.setdefault("_rows_cache", {})
        if key not in cache:
            index = {c: k for k, c in enumerate(self.cells)}
            try:
                cache[key] = np.array([index[c] for c in key], dtype=np.intp)
            except KeyError as exc:
                raise NoSamplesError(exc.args[0], 1) from None
            cache[key].flags.writeable = False
        return cache[key]


@dataclass(frozen=True)
class DatasetPaths:
    engineering: Path
    kpi: Path
    energy: Path
    mr: Path

    @classmethod
    def in_dir(cls, directory) -> "DatasetPaths":
        d = Path(directory)
        return cls(d / "engineering.csv", d / "kpi.csv",
                   d / "energy.csv", d / "mr.csv")


# ---------------------------------------------------------------------------
# Parsing helpers


def _require(header: list[str], columns: Iterable[str], path) -> None:
    missing = [c for c in columns if c not in header]
    if missing:
        raise MissingColumnError(f"{path}: missing column(s) {', '.join(missing)}")


def _float(text: str) -> float:
    """float(text), rejecting nan and inf with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


_TIMESTAMP = re.compile(r"\d{4}-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])"
                        r"T([01]\d|2[0-3]):[0-5]\d:[0-5]\d")


def _parse_pairs(text: str, path, row_index: int) -> dict[str, float]:
    pairs: dict[str, float] = {}
    text = text.strip()
    if not text:
        return pairs
    for chunk in text.split("|"):
        try:
            cell, value = chunk.split(":")
            pairs[cell.strip()] = _float(value)
        except ValueError:
            raise MalformedRowError(path, row_index, f"bad pair field {chunk!r}")
    return pairs


def _format_pairs(pairs: Mapping[str, float]) -> str:
    return "|".join(f"{cell}:{_fmt(value)}" for cell, value in sorted(pairs.items()))


def _rows(path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MissingColumnError(f"{path}: empty file")
        return list(reader.fieldnames), list(reader)


_ENGINEERING_COLUMNS = [
    "cell_id", "radio_unit", "radio_type", "n_trx", "carrier_tx_mode",
    "frequency_mhz", "bandwidth_mhz", "max_tx_power_dbm", "n_dl_prb",
    "n_ul_prb", "role", "paired_coverage_cell", "a4_threshold_dbm",
    "a4_hysteresis_db", "a4_freq_offsets_db", "a4_cell_offsets_db",
    "entry_ue", "entry_dl_prb", "entry_ul_prb",
    "leave_ue", "leave_dl_prb", "leave_ul_prb",
]

_KPI_COLUMNS = [
    "cell_id", "day", "hour", "rrc_ues", "dl_prbs_used", "ul_prbs_used",
    "dl_bits", "dl_bits_lastslot", "dl_active_time_s", "ul_bits",
    "dl_total_time_s", "ul_time_s",
] + [f"rate_bin_{g:02d}" for g in range(1, N_RATE_BINS + 1)] + ["cs_minutes"]

_ENERGY_COLUMNS = ["radio_unit", "day", "hour", "energy_wh"]

_MR_COLUMNS = ["timestamp", "ue_id", "serving_cell", "rsrp_dbm"]


def parse_engineering(path) -> NetworkConfig:
    header, rows = _rows(path)
    _require(header, _ENGINEERING_COLUMNS, path)
    cells = []
    capacity: set[str] = set()
    coverage: set[str] = set()
    pairing: dict[str, str] = {}
    mobility: dict[str, A4Params] = {}
    thresholds: dict[str, ShutdownThresholds] = {}
    radio_info: dict[str, tuple[str, int, str]] = {}
    radio_cells: dict[str, list[str]] = {}
    for i, row in enumerate(rows, start=1):
        try:
            cell = Cell(
                id=row["cell_id"],
                radio_unit=row["radio_unit"],
                frequency_mhz=_float(row["frequency_mhz"]),
                bandwidth_mhz=_float(row["bandwidth_mhz"]),
                max_tx_power_dbm=_float(row["max_tx_power_dbm"]),
                n_dl_prb=int(row["n_dl_prb"]),
                n_ul_prb=int(row["n_ul_prb"]),
            )
        except (ValueError, ConfigError) as exc:
            raise MalformedRowError(path, i, str(exc))
        cells.append(cell)
        role = row["role"].strip().lower()
        if role == "capacity":
            capacity.add(cell.id)
            paired = row["paired_coverage_cell"].strip()
            if not paired:
                raise MalformedRowError(path, i, "capacity cell without pairing")
            pairing[cell.id] = paired
            try:
                thresholds[cell.id] = ShutdownThresholds(
                    entry_ue=_float(row["entry_ue"]),
                    entry_dl_prb=_float(row["entry_dl_prb"]),
                    entry_ul_prb=_float(row["entry_ul_prb"]),
                    leave_ue=_float(row["leave_ue"]),
                    leave_dl_prb=_float(row["leave_dl_prb"]),
                    leave_ul_prb=_float(row["leave_ul_prb"]),
                )
            except (ValueError, ConfigError) as exc:
                raise MalformedRowError(path, i, str(exc))
        elif role == "coverage":
            coverage.add(cell.id)
        else:
            raise MalformedRowError(path, i, f"unknown role {row['role']!r}")
        try:
            mobility[cell.id] = A4Params(
                threshold_dbm=_float(row["a4_threshold_dbm"]),
                hysteresis_db=_float(row["a4_hysteresis_db"]),
                freq_offset_db=_parse_pairs(row["a4_freq_offsets_db"], path, i),
                cell_offset_db=_parse_pairs(row["a4_cell_offsets_db"], path, i),
            )
        except (ValueError, ConfigError) as exc:
            raise MalformedRowError(path, i, str(exc))
        info = (row["radio_type"], int(row["n_trx"]), row["carrier_tx_mode"])
        prior = radio_info.setdefault(cell.radio_unit, info)
        if prior != info:
            raise MalformedRowError(
                path, i, f"radio unit {cell.radio_unit!r} described inconsistently")
        radio_cells.setdefault(cell.radio_unit, []).append(cell.id)
    radios = tuple(
        RadioUnit(id=rid, radio_type=t, n_trx=n, carrier_tx_mode=m,
                  cell_ids=tuple(radio_cells[rid]))
        for rid, (t, n, m) in radio_info.items()
    )
    return NetworkConfig(
        radio_units=radios,
        cells=tuple(cells),
        capacity_cells=frozenset(capacity),
        coverage_cells=frozenset(coverage),
        pairing=pairing,
        mobility=mobility,
        energy_saving=thresholds,
    )


def parse_kpis(path) -> list[CellKpiRecord]:
    header, rows = _rows(path)
    _require(header, _KPI_COLUMNS, path)
    records = []
    for i, row in enumerate(rows, start=1):
        try:
            rec = CellKpiRecord(
                cell_id=row["cell_id"],
                day=int(row["day"]),
                hour=int(row["hour"]),
                rrc_ues=_float(row["rrc_ues"]),
                dl_prbs=_float(row["dl_prbs_used"]),
                ul_prbs=_float(row["ul_prbs_used"]),
                dl_bits=_float(row["dl_bits"]),
                dl_bits_lastslot=_float(row["dl_bits_lastslot"]),
                dl_active_time_s=_float(row["dl_active_time_s"]),
                ul_bits=_float(row["ul_bits"]),
                dl_total_time_s=_float(row["dl_total_time_s"]),
                ul_time_s=_float(row["ul_time_s"]),
                rate_bins=tuple(
                    _float(row[f"rate_bin_{g:02d}"]) for g in range(1, N_RATE_BINS + 1)),
                cs_minutes=_float(row["cs_minutes"]),
            )
        except ValueError as exc:
            raise MalformedRowError(path, i, str(exc))
        _validate_kpi(rec, path, i)
        records.append(rec)
    return records


def _validate_kpi(rec: CellKpiRecord, path, row_index: int) -> None:
    if not 1 <= rec.hour <= 24:
        raise MalformedRowError(path, row_index, f"hour {rec.hour} outside 1..24")
    if rec.dl_bits_lastslot < 0 or rec.dl_bits < rec.dl_bits_lastslot:
        raise MalformedRowError(
            path, row_index, "dl_bits must be >= dl_bits_lastslot >= 0")
    if not 0 <= rec.cs_minutes <= 60:
        raise MalformedRowError(path, row_index, "cs_minutes outside [0, 60]")
    counters = (rec.rrc_ues, rec.dl_prbs, rec.ul_prbs, rec.dl_active_time_s,
                rec.ul_bits, rec.dl_total_time_s, rec.ul_time_s) + rec.rate_bins
    if any(v < 0 for v in counters):
        raise MalformedRowError(path, row_index, "negative counter")


def parse_energy(path) -> list[RadioEnergyRecord]:
    header, rows = _rows(path)
    _require(header, _ENERGY_COLUMNS, path)
    records = []
    for i, row in enumerate(rows, start=1):
        try:
            rec = RadioEnergyRecord(
                radio_unit=row["radio_unit"],
                day=int(row["day"]),
                hour=int(row["hour"]),
                energy_wh=_float(row["energy_wh"]),
            )
        except ValueError as exc:
            raise MalformedRowError(path, i, str(exc))
        if rec.energy_wh < 0:
            raise MalformedRowError(path, i, "negative energy")
        records.append(rec)
    return records


def parse_mrs(path) -> MeasurementReports:
    header, rows = _rows(path)
    _require(header, _MR_COLUMNS, path)

    def reports():
        for i, row in enumerate(rows, start=1):
            if not _TIMESTAMP.fullmatch(row["timestamp"]):
                raise MalformedRowError(
                    path, i, f"timestamp {row['timestamp']!r} is not "
                    "YYYY-MM-DDTHH:MM:SS with hour 00-23")
            rsrp = _parse_pairs(row["rsrp_dbm"], path, i)
            if row["serving_cell"] not in rsrp:
                raise MalformedRowError(path, i, "serving cell has no RSRP entry")
            yield MeasurementReport(row["timestamp"], row["ue_id"],
                                    row["serving_cell"], rsrp)
    return MeasurementReports.from_rows(reports())


def parse_datasets(paths) -> tuple[NetworkConfig, list[CellKpiRecord],
                                   list[RadioEnergyRecord], MeasurementReports]:
    """Parse the four dataset files; `paths` is a directory or DatasetPaths."""
    if not isinstance(paths, DatasetPaths):
        paths = DatasetPaths.in_dir(paths)
    cfg = parse_engineering(paths.engineering)
    kpis = parse_kpis(paths.kpi)
    energies = parse_energy(paths.energy)
    mrs = parse_mrs(paths.mr)
    known = {c.id for c in cfg.cells}
    for rec in kpis:
        if rec.cell_id not in known:
            raise BadReferenceError(f"KPI row references unknown cell {rec.cell_id!r}")
    radios = {r.id for r in cfg.radio_units}
    for erec in energies:
        if erec.radio_unit not in radios:
            raise BadReferenceError(
                f"energy row references unknown radio unit {erec.radio_unit!r}")
    return cfg, kpis, energies, mrs


# ---------------------------------------------------------------------------
# Serialization (inverse of the parsers; used by the scenario generator)


def _fmt(value) -> str:
    """A real float as the repr of the equal Python float, so that numpy
    scalars (whose repr is `np.float64(5.0)` under numpy 2) parse back."""
    if type(value) is float:
        return repr(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_engineering(path, cfg: NetworkConfig) -> None:
    radio = {r.id: r for r in cfg.radio_units}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ENGINEERING_COLUMNS)
        for cell in cfg.cells:
            r = radio[cell.radio_unit]
            a4 = cfg.mobility[cell.id]
            is_cap = cell.id in cfg.capacity_cells
            th = cfg.energy_saving.get(cell.id)
            writer.writerow([
                cell.id, cell.radio_unit, r.radio_type, r.n_trx,
                r.carrier_tx_mode, _fmt(cell.frequency_mhz),
                _fmt(cell.bandwidth_mhz), _fmt(cell.max_tx_power_dbm),
                cell.n_dl_prb, cell.n_ul_prb,
                "capacity" if is_cap else "coverage",
                cfg.pairing.get(cell.id, ""),
                _fmt(a4.threshold_dbm), _fmt(a4.hysteresis_db),
                _format_pairs(a4.freq_offset_db), _format_pairs(a4.cell_offset_db),
                _fmt(th.entry_ue) if th else "", _fmt(th.entry_dl_prb) if th else "",
                _fmt(th.entry_ul_prb) if th else "",
                _fmt(th.leave_ue) if th else "", _fmt(th.leave_dl_prb) if th else "",
                _fmt(th.leave_ul_prb) if th else "",
            ])


def write_kpis(path, rows: KpiRows | Iterable[CellKpiRecord]) -> None:
    """Write a KpiRows, or records through KpiRows.from_records, formatting
    _WRITE_CHUNK rows at a time (csv.writer writes a float as its repr)."""
    if not isinstance(rows, KpiRows):
        rows = KpiRows.from_records(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_KPI_COLUMNS)
        for lo in range(0, len(rows.cell_ids), _WRITE_CHUNK):
            chunk = slice(lo, lo + _WRITE_CHUNK)
            writer.writerows(zip(rows.cell_ids[chunk], rows.day[chunk].tolist(),
                                 rows.hour[chunk].tolist(),
                                 *rows.values[chunk].T.tolist()))


def write_energy(path, records: Iterable[RadioEnergyRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ENERGY_COLUMNS)
        for rec in records:
            writer.writerow([rec.radio_unit, rec.day, rec.hour, _fmt(rec.energy_wh)])


def write_mrs(path, reports: MeasurementReports | Iterable[MeasurementReport],
              ) -> None:
    """Write a MeasurementReports, or rows through its from_rows, with each
    report's pairs in cell-id order, _WRITE_CHUNK reports at a time."""
    if not isinstance(reports, MeasurementReports):
        reports = MeasurementReports.from_rows(reports)
    ends = reports.offsets.tolist()
    by_id = np.lexsort((reports.neighbours, np.repeat(
        np.arange(len(reports)), np.diff(reports.offsets))))
    cells, rsrp = reports.neighbours[by_id], reports.rsrp_dbm[by_id]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MR_COLUMNS)
        for lo in range(0, len(reports), _WRITE_CHUNK):
            hi = min(lo + _WRITE_CHUNK, len(reports))
            pairs = [f"{reports.cells[c]}:{v!r}" for c, v in zip(
                cells[ends[lo]:ends[hi]].tolist(),
                rsrp[ends[lo]:ends[hi]].tolist())]
            writer.writerows(zip(
                reports.timestamps[lo:hi], reports.ue_ids[lo:hi],
                [reports.cells[k] for k in reports.serving[lo:hi].tolist()],
                ["|".join(pairs[a - ends[lo]:b - ends[lo]])
                 for a, b in zip(ends[lo:hi], ends[lo + 1:hi + 1])]))


def write_datasets(directory, cfg, kpis, energies, mrs) -> DatasetPaths:
    paths = DatasetPaths.in_dir(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_engineering(paths.engineering, cfg)
    write_kpis(paths.kpi, kpis)
    write_energy(paths.energy, energies)
    write_mrs(paths.mr, mrs)
    return paths


# ---------------------------------------------------------------------------
# Traffic model


def _check_number(value, where: str) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _check_patch(kind: str, cell_id: str, patch) -> None:
    """Every value must be a finite number; the A4 offset fields must map
    cell ids to finite numbers."""
    if not isinstance(patch, Mapping):
        raise ConfigError(f"{kind} override for {cell_id!r} must be an object")
    for name, value in patch.items():
        where = f"{kind} override {name!r} for {cell_id!r}"
        if name in ("freq_offset_db", "cell_offset_db"):
            if not isinstance(value, Mapping):
                raise ConfigError(f"{where} must map cell ids to dB values")
            for j, v in value.items():
                _check_number(v, f"{where} at {j!r}")
        else:
            _check_number(value, where)


def apply_overrides(cfg: NetworkConfig, overrides: Mapping) -> NetworkConfig:
    """Return a copy of the configuration with per-cell shutdown-threshold
    and A4 parameter patches applied.

    `overrides` is a map with optional "thresholds" and "a4" maps keyed by
    cell id; values are partial field updates (e.g. {"entry_dl_prb": 120.0}
    or {"threshold_dbm": -95.0}). Other sections, non-map sections, unknown
    cells or fields, non-finite or non-numeric values and non-mapping A4
    offsets are errors.
    """
    import dataclasses

    tables = {"thresholds": dict(cfg.energy_saving), "a4": dict(cfg.mobility)}
    if not isinstance(overrides, Mapping):
        raise ConfigError("overrides must be an object with 'thresholds' "
                          "and/or 'a4' sections")
    unknown = [key for key in overrides if key not in tables]
    if unknown:
        raise ConfigError(f"unknown override section(s) "
                          f"{', '.join(map(repr, unknown))}; expected "
                          "'thresholds' or 'a4'")
    for key, kind in (("thresholds", "threshold"), ("a4", "A4")):
        table = tables[key]
        section = overrides.get(key, {})
        if not isinstance(section, Mapping):
            raise ConfigError(f"override section {key!r} must map cell ids "
                              "to patches")
        for cell_id, patch in section.items():
            if cell_id not in table:
                raise BadReferenceError(
                    f"{kind} override for unknown cell {cell_id!r}")
            _check_patch(kind, cell_id, patch)
            try:
                table[cell_id] = dataclasses.replace(table[cell_id], **patch)
            except TypeError:
                raise ConfigError(f"bad {kind} override fields for {cell_id!r}")
    return dataclasses.replace(cfg, energy_saving=tables["thresholds"],
                               mobility=tables["a4"])


def fit_traffic_model(kpis: Iterable[CellKpiRecord],
                      sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> TrafficModel:
    """Fit per (cell, hour) Gaussians from working-day KPI records.

    Means are arithmetic sample means; stds use the n-1 denominator and are
    floored at `sigma_floor` (a single sample gives std == sigma_floor).
    Raises NoSamplesError if any observed cell misses an hour entirely.
    """
    grouped: dict[tuple[str, int], list[tuple[float, float, float]]] = {}
    cells: dict[str, None] = {}
    for rec in kpis:
        cells.setdefault(rec.cell_id)
        grouped.setdefault((rec.cell_id, rec.hour), []).append(
            (rec.rrc_ues, rec.dl_prbs, rec.ul_prbs))
    mean = np.empty((24, len(cells), len(TRAFFIC_KPIS)))
    std = np.empty_like(mean)
    for k, cell in enumerate(cells):
        for hour in range(1, 25):
            samples = grouped.get((cell, hour))
            if not samples:
                raise NoSamplesError(cell, hour)
            for m, values in enumerate(zip(*samples)):
                mean[hour - 1, k, m], std[hour - 1, k, m] = _fit_gaussian(
                    values, sigma_floor)
    return TrafficModel(cells=tuple(cells), mean=mean, std=std)


def _fit_gaussian(values: tuple[float, ...],
                  sigma_floor: float) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return mean, max(std, sigma_floor)


def draw_inputs(tm: TrafficModel, hour: int, rng: np.random.Generator,
                cfg: NetworkConfig | None = None) -> np.ndarray:
    """Draw one traffic realization per cell for the given hour: an
    (n_cells, 3) array in `tm.cells` order, columns in TRAFFIC_KPIS order.

    Gaussian draws are truncated at 0; the UE count is rounded to the nearest
    integer and PRB draws are clamped to the cell's PRB capacity when a
    NetworkConfig is supplied. One call draws the cells in order, each cell's
    KPIs in order. The caller owns the RNG.
    """
    if not 1 <= hour <= 24:
        raise ValueError(f"hour {hour} outside 1..24")
    capacity = None if cfg is None else cfg._prb_capacity(tm.cells)
    draw = np.maximum(rng.normal(tm.mean[hour - 1], tm.std[hour - 1]), 0.0)
    draw[:, 0] = np.rint(draw[:, 0])
    if capacity is not None:
        np.minimum(draw[:, 1:], capacity, out=draw[:, 1:])
    return draw
