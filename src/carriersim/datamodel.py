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
  fields hold `cell:value` pairs joined by `|`, each cell id distinct and
  non-empty (blank means no per-neighbour offsets; missing entries read as 0).

kpi.csv -- one row per cell, day and hour:
    cell_id, day, hour, rrc_ues, dl_prbs_used, ul_prbs_used, dl_bits,
    dl_bits_lastslot, dl_active_time_s, ul_bits, dl_total_time_s, ul_time_s,
    rate_bin_01 .. rate_bin_15, cs_minutes
  `dl_active_time_s` excludes the buffer-emptying slots whose bits are counted
  in `dl_bits_lastslot`. The UL volume/time columns are parsed but unused
  downstream.

energy.csv -- one row per radio unit, day and hour:
    radio_unit, day, hour, energy_wh

  Both hourly files are HourlyRows in memory: int64 `day` and `hour` (in
  1..24), float64 values. KPI rows need dl_bits >= dl_bits_lastslot >= 0,
  cs_minutes in [0, 60] and no negative counter; energy is nonnegative.

mr.csv -- one row per UE measurement report:
    timestamp, ue_id, serving_cell, rsrp_dbm
  `timestamp` is ISO-8601 (`YYYY-MM-DDTHH:MM:SS`); `rsrp_dbm` holds such
  pairs and must include the serving cell. In memory: MeasurementReports.

Numeric fields must be finite: `nan` and `inf` are rejected with the file
and row, like any other malformed value or a row whose field count differs
from the header's.
Blank lines are skipped and not counted as rows.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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
_CHUNK = 1536   # rows a CSV parser or writer converts at a time


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

    @functools.cached_property
    def _cell_index(self) -> dict[str, Cell]:
        return {c.id: c for c in self.cells}

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

    @functools.cached_property
    def _frequency_index(self) -> dict[float, list[str]]:
        index: dict[float, list[str]] = {}
        for c in self.cells:
            index.setdefault(c.frequency_mhz, []).append(c.id)
        return index

    def cells_on_frequency(self, frequency_mhz: float) -> tuple[str, ...]:
        """Ids of the cells on `frequency_mhz` in cell order, indexed once."""
        return tuple(self._frequency_index.get(frequency_mhz, ()))


@dataclass(frozen=True, eq=False)
class HourlyRows:
    """Rows of kpi.csv or energy.csv as columns: each row's id (a cell or a
    radio unit), day and hour, and its values as one float64 array in file
    column order, (rows, 25) for KPIs and (rows, 1) for energy."""

    ids: list[str]
    day: np.ndarray
    hour: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        """The values of the kpi.csv or energy.csv column `name`."""
        header = _KPI_COLUMNS if self.values.shape[1] > 1 else _ENERGY_COLUMNS
        return self.values[:, header.index(name) - 3]

    def select(self, mask: np.ndarray) -> "HourlyRows":
        """The rows where the boolean array `mask` holds."""
        return HourlyRows(list(itertools.compress(self.ids, mask.tolist())),
                          self.day[mask], self.hour[mask], self.values[mask])


@dataclass(frozen=True, eq=False)
class MeasurementReports:
    """Measurement reports as columns. Report i was sent at timestamps[i] by
    UE ue_ids[i] and served by cells[serving[i]]; its RSRP pairs are
    (cells[neighbours[k]], rsrp_dbm[k]) for k in offsets[i]:offsets[i + 1]
    (compressed sparse rows), in the order they were given, each cell at
    most once. `cells` is sorted, so code order is cell-id order."""

    cells: tuple[str, ...]
    timestamps: list[str]
    ue_ids: list[str]
    serving: np.ndarray
    offsets: np.ndarray
    neighbours: np.ndarray
    rsrp_dbm: np.ndarray

    @functools.cached_property
    def hour(self) -> np.ndarray:
        """Each report's hour of day in 1..24: its timestamp's hour + 1."""
        return np.array([int(t[11:13]) + 1 for t in self.timestamps], dtype=int)

    def __len__(self) -> int:
        return len(self.timestamps)


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


def _float(text: str) -> float:
    """float(text), rejecting nan and inf with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


_TIMESTAMP = re.compile(r"\d{4}-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])"
                        r"T([01]\d|2[0-3]):[0-5]\d:[0-5]\d")


def _split_pairs(texts, code: dict[str, int],
                 ) -> tuple[list[int], np.ndarray, np.ndarray, str | None]:
    """The `cell:value` pairs of each of `texts` (joined by `|`; blank means
    none): each text's number of pairs, then all their cell ids, stripped
    and coded by `code` (a new id gets the next code), and their values, in
    order. Texts are split up to the first with a bad pair: one that is not
    one `:` between a cell id and a finite float, or whose cell id is empty
    or repeats one of its text's. Its message comes last (None if none)."""
    texts = [t.strip() for t in texts]
    counts = [t.count("|") + 1 if t else 0 for t in texts]
    fields = "|".join(filter(None, texts)).split("|") if any(texts) else []
    # a second `:` or none leaves a value that does not convert
    parts = [f.partition(":") for f in fields]
    values = _convert([p[2] for p in parts], float)[0]
    cells = [p[0].strip() for p in parts[:len(values)]]
    for cell in dict.fromkeys(cells):
        code.setdefault(cell, len(code))
    ids = np.fromiter(map(code.__getitem__, cells), np.int64, len(cells))
    # a pair is bad if its cell id is empty or repeats one of its text's
    bad = np.ones(len(cells) + 1, dtype=bool)   # ends on a sentinel
    bad[np.unique(np.repeat(np.arange(len(texts)), counts)[:len(cells)]
                  * len(code) + ids, return_index=True)[1]] = False
    bad[:-1] |= ids == code.get("", -1)
    k = int(bad.argmax())   # the first bad pair, or len(fields)
    row = int(np.searchsorted(np.cumsum(counts), k, side="right"))
    end = sum(counts[:row])   # the pairs of the texts before its text
    message = None if k == len(fields) else (
        f"bad pair field {fields[k]!r}" if k == len(values) else
        f"{'repeated' if cells[k] else 'empty'} cell id in pair field "
        f"{fields[k]!r}")
    return counts[:row], ids[:end], values[:end], message


def _pair_map(text: str) -> dict[str, float]:
    """One pair field as a map of cell id to value; a bad pair raises a
    ValueError with _split_pairs' message."""
    code: dict[str, int] = {}   # one code per pair, in order
    _, _, values, message = _split_pairs([text], code)
    if message is not None:
        raise ValueError(message)
    return dict(zip(code, values.tolist()))


def _format_pairs(pairs: Mapping[str, float]) -> str:
    return "|".join(f"{cell}:{_fmt(value)}" for cell, value in sorted(pairs.items()))


def _read_rows(path, columns: list[str]) -> Iterator[tuple[int, list]]:
    """The fields of `columns` in the rows of CSV file `path`, in lists of
    up to _CHUNK rows read as they are asked for, each with the number of
    rows before it; a repeated column name reads its last column. An empty
    file or a missing column raises MissingColumnError. A row with more or
    fewer fields than the header ends its list and raises when the next one
    is asked for, so the rows before it are checked first."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MissingColumnError(f"{path}: empty file")
        missing = [c for c in columns if c not in header]
        if missing:
            raise MissingColumnError(
                f"{path}: missing column(s) {', '.join(missing)}")
        index = {name: k for k, name in enumerate(header)}
        pick = operator.itemgetter(*(index[c] for c in columns))
        rows, done = filter(None, reader), 0
        while chunk := list(itertools.islice(rows, _CHUNK)):
            n = next((k for k, row in enumerate(chunk)
                      if len(row) != len(header)), len(chunk))
            if n:
                yield done, list(map(pick, chunk[:n]))
            if n < len(chunk):
                raise MalformedRowError(path, done + n + 1, f"{len(chunk[n])} "
                                        f"fields, the header has {len(header)}")
            done += n


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
    cells, capacity, coverage = [], set(), set()
    pairing, mobility, thresholds = {}, {}, {}
    radio_info: dict[str, tuple[str, int, str]] = {}
    radio_cells: dict[str, list[str]] = {}
    ids: set[str] = set()
    rows = enumerate(itertools.chain.from_iterable(
        chunk for _, chunk in _read_rows(path, _ENGINEERING_COLUMNS)), start=1)
    for i, (cell_id, radio_unit, radio_type, n_trx, tx_mode, frequency,
            bandwidth, power, n_dl_prb, n_ul_prb, role, paired,
            a4_threshold, a4_hysteresis, a4_freq_offsets, a4_cell_offsets,
            *shutdown) in rows:
        try:
            cell = Cell(cell_id, radio_unit, _float(frequency),
                        _float(bandwidth), _float(power), int(n_dl_prb),
                        int(n_ul_prb))
            info = (radio_type, int(n_trx), tx_mode)
            if cell.id in ids:
                raise MalformedRowError(path, i,
                                        "repeats an earlier row's cell_id")
            ids.add(cell.id)
            cells.append(cell)
            kind, paired = role.strip().lower(), paired.strip()
            if kind == "capacity":
                capacity.add(cell.id)
                if not paired:
                    raise MalformedRowError(path, i,
                                            "capacity cell without pairing")
                pairing[cell.id] = paired
                thresholds[cell.id] = ShutdownThresholds(*map(_float, shutdown))
            elif kind == "coverage":
                coverage.add(cell.id)
            else:
                raise MalformedRowError(path, i, f"unknown role {role!r}")
            mobility[cell.id] = A4Params(
                _float(a4_threshold), _float(a4_hysteresis),
                _pair_map(a4_freq_offsets), _pair_map(a4_cell_offsets))
        except (ValueError, ConfigError) as exc:
            raise MalformedRowError(path, i, str(exc))
        prior = radio_info.setdefault(cell.radio_unit, info)
        if prior != info:
            raise MalformedRowError(
                path, i, f"radio unit {cell.radio_unit!r} described inconsistently")
        radio_cells.setdefault(cell.radio_unit, []).append(cell.id)
    radios = tuple(RadioUnit(rid, *info, tuple(radio_cells[rid]))
                   for rid, info in radio_info.items())
    return NetworkConfig(radios, tuple(cells), frozenset(capacity),
                         frozenset(coverage), pairing, mobility, thresholds)


def _convert(texts: tuple[str, ...], kind: type) -> tuple[np.ndarray, str | None]:
    """`texts` converted by `kind` (int or float) into an int64 or float64
    array, up to the first text that does not convert, overflows an int64
    or is not finite, with that text's message (None if there is none)."""
    values, message = [], None
    try:
        values = list(map(kind, texts))
    except ValueError:
        for text in texts:
            try:
                values.append(kind(text))
            except ValueError as exc:
                message = str(exc)
                break
    try:
        array = np.array(values, dtype=np.int64 if kind is int else float)
    except OverflowError:
        k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
        return (np.array(values[:k], dtype=np.int64),
                f"integer {texts[k]!r} outside the 64-bit range")
    finite = np.isfinite(array)
    if not finite.all():
        k = int(finite.argmin())
        return array[:k], f"non-finite value {texts[k]!r}"
    return array, message


def _convert_rows(path, done: int, chunk: list, kinds, checks) -> list:
    """The fields of `chunk`, the rows of CSV file `path` after its first
    `done`, as columns converted by `kinds`: str keeps the texts (a tuple),
    int and float give an int64 or float64 array. A row's fields convert in
    column order, then it must pass `checks(columns)`, (message, failing
    rows) pairs in order. The first bad row raises MalformedRowError with
    its first failure, a check's message formatted with the row's fields."""
    converted = [(texts, None) if kind is str else _convert(texts, kind)
                 for texts, kind in zip(zip(*chunk), kinds)]
    n = min(len(column) for column, _ in converted)
    columns = [column[:n] for column, _ in converted]
    failures = checks(columns)
    failing = np.array([mask for _, mask in failures], dtype=bool)
    if failing.any():
        r = int(failing.any(axis=0).argmax())
        raise MalformedRowError(path, done + r + 1, failures[int(
            failing[:, r].argmax())][0].format(*(c[r] for c in columns)))
    if n < len(chunk):
        raise MalformedRowError(path, done + n + 1, next(
            message for column, message in converted if len(column) == n))
    return columns


def _repeat_check(seen: dict, names: list[str], keys, values):
    """The _convert_rows check that no row's key, its fields of columns
    `names`, repeats an earlier row's; it enters each of `keys` in `seen`,
    mapped to the matching entry of `values`."""
    repeated = []
    for key, value in zip(keys, values):
        repeated.append(key in seen)
        seen[key] = value
    return "repeats an earlier row's " + ", ".join(names), repeated


def _read_keyed(path, columns: list[str], kinds, n_keys: int) -> dict:
    """The rows of `columns` in CSV file `path`, converted by `kinds`
    (_convert_rows), as a map of each row's key, the tuple of its first
    `n_keys` fields, to the tuple of its other fields, in file order. A row
    whose key repeats an earlier row's is bad."""
    rows: dict[tuple, tuple] = {}

    def add(fields):   # the check adds each row it checks
        fields = [f if kind is str else f.tolist()
                  for f, kind in zip(fields, kinds)]
        return [_repeat_check(rows, columns[:n_keys], zip(*fields[:n_keys]),
                              zip(*fields[n_keys:]))]

    for done, chunk in _read_rows(path, columns):
        _convert_rows(path, done, chunk, kinds, add)
    return rows


def _parse_hourly(path, columns: list[str], checks) -> HourlyRows:
    """kpi.csv or energy.csv (header `columns`) as HourlyRows, read _CHUNK
    rows at a time. A row's hour must lie in 1..24, then it must pass
    `checks(values)`, `values` mapping value column names to arrays, then
    its (id, day, hour) must repeat no earlier row's."""
    kinds = (str, int, int) + (float,) * (len(columns) - 3)
    empty = np.empty(0, dtype=np.int64)
    tables = [HourlyRows([], empty, empty, np.empty((0, len(columns) - 3)))]
    seen: dict[tuple, None] = {}
    for done, chunk in _read_rows(path, columns):
        ids, day, hour, *values = _convert_rows(
            path, done, chunk, kinds, lambda fields: [
                ("hour {2} outside 1..24", (fields[2] < 1) | (fields[2] > 24)),
                *checks(dict(zip(columns[3:], fields[3:]))),
                _repeat_check(seen, columns[:3], zip(
                    fields[0], fields[1].tolist(), fields[2].tolist()),
                              itertools.repeat(None))])
        # ids repeat every hour: keep one string per distinct id
        tables.append(HourlyRows(list(map(sys.intern, ids)), day, hour,
                                 np.column_stack(values)))
    return HourlyRows(
        list(itertools.chain.from_iterable(t.ids for t in tables)),
        *(np.concatenate([getattr(t, name) for t in tables])
          for name in ("day", "hour", "values")))


def _kpi_checks(values: dict[str, np.ndarray]) -> list[tuple[str, np.ndarray]]:
    bits, lastslot = values["dl_bits"], values["dl_bits_lastslot"]
    cs_minutes = values["cs_minutes"]
    # a negative dl_bits or cs_minutes fails an earlier check first
    return [("dl_bits must be >= dl_bits_lastslot >= 0",
             (lastslot < 0) | (bits < lastslot)),
            ("cs_minutes outside [0, 60]", (cs_minutes < 0) | (cs_minutes > 60)),
            ("negative counter", np.any([v < 0 for v in values.values()],
                                        axis=0))]


def parse_kpis(path) -> HourlyRows:
    return _parse_hourly(path, _KPI_COLUMNS, _kpi_checks)


def parse_energy(path) -> HourlyRows:
    return _parse_hourly(path, _ENERGY_COLUMNS, lambda values: [
        ("negative energy", values["energy_wh"] < 0)])


def parse_mrs(path) -> MeasurementReports:
    """mr.csv as MeasurementReports, read _CHUNK rows at a time. A row's
    timestamp must match, then its pairs split (_split_pairs), then its
    serving cell, stripped as the pairs' cell ids are, have a pair. The
    first bad row raises its first failure."""
    code: dict[str, int] = {}   # cell id -> code, in order of appearance
    timestamps, ue_ids, counts = [], [], [0]
    empty = np.empty(0, dtype=np.int64)
    blocks = [(empty, empty, np.empty(0))]   # serving, neighbours and RSRPs
    for done, chunk in _read_rows(path, _MR_COLUMNS):
        stamps, ues, servers, texts = zip(*chunk)
        n = next((k for k, stamp in enumerate(stamps)
                  if not _TIMESTAMP.fullmatch(stamp)), len(chunk))
        split, cells, values, message = _split_pairs(texts[:n], code)
        m = len(split)   # rows whose pairs split; a failure is at row m
        if message is None and n < len(chunk):
            message = (f"timestamp {stamps[n]!r} is not YYYY-MM-DDTHH:MM:SS "
                       "with hour 00-23")
        own = np.array([code.get(c.strip(), -1) for c in servers[:m]],
                       dtype=np.int64)
        report = np.repeat(np.arange(m), split)
        has_own = np.bincount(report[cells == own[report]], minlength=m) > 0
        if not has_own.all():
            raise MalformedRowError(path, done + int(has_own.argmin()) + 1,
                                    "serving cell has no RSRP entry")
        if message is not None:
            raise MalformedRowError(path, done + m + 1, message)
        timestamps += stamps
        ue_ids += ues
        counts += split
        blocks.append((own, cells, values))
    names = tuple(sorted(code))
    rank = np.argsort([code[c] for c in names])   # code -> code in `names`
    serving, neighbours, rsrp = map(np.concatenate, zip(*blocks))
    return MeasurementReports(names, timestamps, ue_ids, rank[serving],
                              np.cumsum(counts), rank[neighbours], rsrp)


def check_ids(cfg: NetworkConfig, rows: HourlyRows, path) -> None:
    """Raise BadReferenceError at the first of `rows`, read from `path`,
    whose id is not a cell (KPI rows) or radio unit (energy rows) of `cfg`."""
    kind, known = (("cell", cfg._cell_index) if rows.values.shape[1] > 1
                   else ("radio unit", {r.id for r in cfg.radio_units}))
    for i, name in enumerate(rows.ids, start=1):
        if name not in known:
            raise BadReferenceError(
                f"{path}, row {i}: references unknown {kind} {name!r}")


def parse_datasets(paths) -> tuple[NetworkConfig, HourlyRows, HourlyRows,
                                   MeasurementReports]:
    """The network, KPI rows, energy rows and reports of the four dataset
    files; `paths` is a directory or DatasetPaths."""
    if not isinstance(paths, DatasetPaths):
        paths = DatasetPaths.in_dir(paths)
    cfg = parse_engineering(paths.engineering)
    kpis = parse_kpis(paths.kpi)
    energies = parse_energy(paths.energy)
    mrs = parse_mrs(paths.mr)
    check_ids(cfg, kpis, paths.kpi)
    check_ids(cfg, energies, paths.energy)
    return cfg, kpis, energies, mrs


# ---------------------------------------------------------------------------
# Serialization (inverse of the parsers): every CSV file the package writes


def _fmt(value) -> str:
    """A real float as the repr of the equal Python float, so that numpy
    scalars (whose repr is `np.float64(5.0)` under numpy 2) parse back."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_engineering(path, cfg: NetworkConfig) -> None:
    radio = {r.id: r for r in cfg.radio_units}

    def row(cell: Cell) -> list[str]:
        r, a4 = radio[cell.radio_unit], cfg.mobility[cell.id]
        th = cfg.energy_saving.get(cell.id)
        return [*map(_fmt, (
            cell.id, cell.radio_unit, r.radio_type, r.n_trx, r.carrier_tx_mode,
            cell.frequency_mhz, cell.bandwidth_mhz, cell.max_tx_power_dbm,
            cell.n_dl_prb, cell.n_ul_prb,
            "capacity" if cell.id in cfg.capacity_cells else "coverage",
            cfg.pairing.get(cell.id, ""), a4.threshold_dbm, a4.hysteresis_db)),
            _format_pairs(a4.freq_offset_db), _format_pairs(a4.cell_offset_db),
            # the last six columns are the ShutdownThresholds fields
            *(_fmt(getattr(th, c)) if th else ""
              for c in _ENGINEERING_COLUMNS[-6:])]

    _write_rows(path, _ENGINEERING_COLUMNS, list(map(row, cfg.cells)),
                (str,) * len(_ENGINEERING_COLUMNS))


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in ',"\r\n')


def _quoted(texts: list[str]) -> list[str]:
    """`texts` as csv.writer's QUOTE_MINIMAL writes them: a text holding a
    comma, quote or line break in quotes, its quotes doubled, decided once
    per distinct text."""
    if not _needs_quotes("".join(texts)):
        return texts
    quoted = {t: '"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t
              for t in set(texts)}
    return [quoted[t] for t in texts]


def _formatted(values: np.ndarray) -> np.ndarray:
    """An int or float array as an object array of the same shape holding
    each value's str (ints) or repr (floats), as csv.writer writes them,
    each formatted once per distinct value (per bit pattern for floats, so
    -0.0 keeps its sign)."""
    floats = values.dtype.kind == "f"
    keys, inverse = np.unique(values.view(np.int64) if floats else values,
                              return_inverse=True)
    texts = list(map(repr if floats else str,
                     (keys.view(float) if floats else keys).tolist()))
    return np.array(texts, dtype=object)[inverse.reshape(values.shape)]


def _row_chunks(n: int) -> list[slice]:
    """Slices of up to _CHUNK rows covering rows 0..n-1 in order."""
    return [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _write_columns(path, header: list[str], chunks) -> None:
    """Write a CSV file of `header` and the rows of each of `chunks`, in the
    bytes csv.writer writes. A chunk is a tuple of columns of its rows, each
    a list of str, a 1-D int or float array, or a 2-D one holding several
    columns. Only one chunk's texts are held at a time, so callers give
    _row_chunks' slices of their rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quoted(header)) + "\r\n")
        for chunk in chunks:
            columns = []
            for column in chunk:
                if isinstance(column, np.ndarray):
                    columns += _formatted(
                        column.reshape(len(column), -1)).T.tolist()
                else:
                    columns.append(_quoted(column))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _write_rows(path, header: list[str], rows: list[tuple], kinds) -> None:
    """Write `rows`, tuples of fields of the types `kinds` (str, int or
    float), through _write_columns, _CHUNK rows at a time."""
    _write_columns(path, header, (
        [list(c) if kind is str else np.array(c, dtype=kind)
         for c, kind in zip(zip(*rows[s]), kinds)]
        for s in _row_chunks(len(rows))))


def _write_hourly(path, columns: list[str], rows: HourlyRows) -> None:
    _write_columns(path, columns, (
        (rows.ids[s], rows.day[s], rows.hour[s], rows.values[s])
        for s in _row_chunks(len(rows))))


def write_kpis(path, rows: HourlyRows) -> None:
    _write_hourly(path, _KPI_COLUMNS, rows)


def write_energy(path, rows: HourlyRows) -> None:
    _write_hourly(path, _ENERGY_COLUMNS, rows)


def write_mrs(path, reports: MeasurementReports) -> None:
    """Write `reports` with each report's pairs in cell-id order."""
    ends = reports.offsets.tolist()
    by_id = np.lexsort((reports.neighbours, np.repeat(
        np.arange(len(reports)), np.diff(reports.offsets))))
    cells, rsrp = reports.neighbours[by_id], reports.rsrp_dbm[by_id]
    names = np.array(reports.cells, dtype=object)
    prefixes = np.array([f"{c}:" for c in reports.cells], dtype=object)

    def chunks():
        for s in _row_chunks(len(reports)):
            a, b = ends[s.start], ends[s.stop]
            pairs = (prefixes[cells[a:b]] + _formatted(rsrp[a:b])).tolist()
            edges = [end - a for end in ends[s.start:s.stop + 1]]
            yield (reports.timestamps[s], reports.ue_ids[s],
                   names[reports.serving[s]].tolist(),
                   ["|".join(pairs[x:y]) for x, y in zip(edges, edges[1:])])

    _write_columns(path, _MR_COLUMNS, chunks())


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


def fit_traffic_model(kpis: HourlyRows,
                      sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> TrafficModel:
    """Fit per (cell, hour) Gaussians from working-day KPI rows.

    Means are arithmetic sample means; stds use the n-1 denominator and are
    floored at `sigma_floor` (a single sample gives std == sigma_floor).
    Cells keep the order in which they first appear. Raises NoSamplesError
    if any observed cell misses an hour entirely.
    """
    cells = tuple(dict.fromkeys(kpis.ids))
    code = dict(zip(cells, range(len(cells))))
    cell = np.array([code[c] for c in kpis.ids], dtype=np.int64)
    order = np.lexsort((kpis.hour, cell))
    cell, hour = cell[order], kpis.hour[order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1) | np.diff(hour, prepend=0))
    samples = np.split(kpis.values[order, :len(TRAFFIC_KPIS)], starts[1:])
    grouped = dict(zip(zip(cell[starts].tolist(), hour[starts].tolist()),
                       samples))
    mean = np.empty((24, len(cells), len(TRAFFIC_KPIS)))
    std = np.empty_like(mean)
    for k, name in enumerate(cells):
        for h in range(1, 25):
            group = grouped.get((k, h))
            if group is None:
                raise NoSamplesError(name, h)
            for m, values in enumerate(group.T.tolist()):
                mean[h - 1, k, m], std[h - 1, k, m] = _fit_gaussian(
                    values, sigma_floor)
    return TrafficModel(cells=cells, mean=mean, std=std)


def _fit_gaussian(values: list[float],
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
