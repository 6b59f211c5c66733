"""Synthetic scenarios with known ground-truth laws, plus evaluation metrics.

Real operator data is proprietary, so the harness closes the loop itself: it
generates a network whose traffic, energy and rate behaviour follow known
parametric laws, emits the dataset files the pipeline consumes, and produces
reference ("measured") post-activation KPIs by running a high-budget
simulation against those laws. Estimators are then scored with MAE/MAPE
against that reference.

The synthetic energy law is piecewise linear in DL PRB load with one slope
per maximum-transmit-power tier and an idle offset, and cells in shutdown
draw a flat sleep power; the rate law decreases monotonically in load.
Traffic follows a diurnal profile (single evening peak) with Gaussian noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .abm import AbmConfig, HourlyOutputs, mean_tables, simulate_day
from .datamodel import (
    A4Params, Cell, N_RATE_BINS, HourlyRows, MeasurementReports, NetworkConfig,
    RadioUnit, ShutdownThresholds, TrafficModel, _read_keyed, _write_rows,
    apply_overrides, fit_traffic_model, write_datasets, write_energy,
    write_kpis)
from .energymodel import (EnergyHyper, EnergyModel, build_energy_samples,
                          fit_radio_energy_model, predict_mean_energy,
                          samples_from_means)
from .errors import (EmptySeriesError, InvalidSpecError, KeyMismatchError,
                     LengthMismatchError)
from .ratemodel import (DEFAULT_BIN_EDGES, RateModel, build_rate_samples,
                        mean_rate_by_cell, predict_mean_rates,
                        train_rate_model)
from .rules import HandoverModel, build_handover_model_for_hours

REFERENCE_RUNS_FACTOR = 10
REFERENCE_SEED_OFFSET = 1_000_003

KpiTable = dict[tuple[str, int], float]


# ---------------------------------------------------------------------------
# Ground-truth laws


@dataclass(frozen=True)
class EnergyLaw:
    """Radio energy in Wh for one hour, summed over its carriers
    (elementwise over arrays of loads and fractions)."""

    idle_wh: Mapping[str, float]      # per radio type
    sleep_wh: float
    slope_by_pmax: Mapping[float, float]

    def carrier_energy(self, cell: Cell, dl_load: float,
                       cs_fraction: float, radio_type: str) -> float:
        active = (self.idle_wh[radio_type]
                  + self.slope_by_pmax[cell.max_tx_power_dbm] * dl_load)
        return (1.0 - cs_fraction) * active + cs_fraction * self.sleep_wh

    def radio_energy(self, radio_type: str, cells: Sequence[Cell],
                     dl_loads: Mapping[str, float],
                     cs_fractions: Mapping[str, float]) -> float:
        return sum(self.carrier_energy(c, dl_loads.get(c.id, 0.0),
                                       cs_fractions.get(c.id, 0.0), radio_type)
                   for c in cells)


@dataclass(frozen=True)
class RateLaw:
    """Mean UE DL rate in Mbps, monotone decreasing in load (elementwise
    over arrays)."""

    max_mbps: float = 80.0
    load_slope: float = 0.7
    ue_drag: float = 0.05

    def mean_rate(self, dl_load: float, ues: float) -> float:
        return self.max_mbps * (1.0 - self.load_slope * dl_load) \
            / (1.0 + self.ue_drag * np.maximum(ues, 0.0))


def diurnal_profile(hour: int) -> float:
    """Single-peak daily shape in (0, 1]: 0.18 at 04:00, peak at 16:00."""
    swing = 0.5 - 0.5 * math.cos(2.0 * math.pi * (hour - 4) / 24.0)
    return 0.18 + (1.0 - 0.18) * swing ** 1.3


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True)
class ScenarioSpec:
    n_capacity: int = 8
    n_coverage: int = 4
    n_days: int = 5
    peak_capacity_ues: float = 20.0
    peak_capacity_load: float = 0.5
    peak_coverage_load: float = 0.5
    traffic_noise: float = 0.12
    reports_per_cell_hour: int = 20
    entry_ue: float = 12.0
    entry_dl_prb: float = 95.0
    entry_ul_prb: float = 55.0
    leave_ue: float = 60.0
    leave_dl_prb: float = 92.0
    leave_ul_prb: float = 70.0
    a4_threshold_dbm: float = -100.0
    a4_hysteresis_db: float = 2.0
    energy_noise_wh: float = 3.0
    rate_noise_fraction: float = 0.03


@dataclass(frozen=True)
class SyntheticScenario:
    cfg: NetworkConfig
    traffic: TrafficModel           # the true generating distributions
    energy_law: EnergyLaw
    rate_law: RateLaw
    mrs: MeasurementReports
    seed: int
    spec: ScenarioSpec


_PMAX_TIERS = (40.0, 43.0, 46.0)
_CAP_TYPES = {40.0: "aau-n35-a", 43.0: "aau-n35-b", 46.0: "aau-n35-c"}
_CAP_TRX = {40.0: 32, 43.0: 32, 46.0: 64}
_CAP_MODE = {40.0: "32T32R", 43.0: "32T32R", 46.0: "64T64R"}


def _build_network(spec: ScenarioSpec) -> NetworkConfig:
    cells, radios, capacity, coverage = [], [], [], []
    pairing, thresholds = {}, {}
    for i in range(spec.n_coverage):
        cid = f"cov{i + 1:03d}"
        coverage.append(cid)
        cells.append(Cell(id=cid, radio_unit=f"ru-{cid}", frequency_mhz=800.0,
                          bandwidth_mhz=20.0, max_tx_power_dbm=43.0,
                          n_dl_prb=100, n_ul_prb=100))
        radios.append(RadioUnit(id=f"ru-{cid}", radio_type="rru-l08",
                                n_trx=4, carrier_tx_mode="4T4R",
                                cell_ids=(cid,)))
    for i in range(spec.n_capacity):
        cid = f"cap{i + 1:03d}"
        capacity.append(cid)
        pmax = _PMAX_TIERS[i % 3]
        cells.append(Cell(id=cid, radio_unit=f"ru-{cid}", frequency_mhz=3500.0,
                          bandwidth_mhz=100.0, max_tx_power_dbm=pmax,
                          n_dl_prb=270, n_ul_prb=135))
        radios.append(RadioUnit(id=f"ru-{cid}", radio_type=_CAP_TYPES[pmax],
                                n_trx=_CAP_TRX[pmax],
                                carrier_tx_mode=_CAP_MODE[pmax],
                                cell_ids=(cid,)))
        pairing[cid] = f"cov{(i % spec.n_coverage) + 1:03d}"
        thresholds[cid] = ShutdownThresholds(
            entry_ue=spec.entry_ue, entry_dl_prb=spec.entry_dl_prb,
            entry_ul_prb=spec.entry_ul_prb, leave_ue=spec.leave_ue,
            leave_dl_prb=spec.leave_dl_prb, leave_ul_prb=spec.leave_ul_prb)
    mobility = {c.id: A4Params(threshold_dbm=spec.a4_threshold_dbm,
                               hysteresis_db=spec.a4_hysteresis_db)
                for c in cells}
    return NetworkConfig(radio_units=tuple(radios), cells=tuple(cells),
                         capacity_cells=frozenset(capacity),
                         coverage_cells=frozenset(coverage),
                         pairing=pairing, mobility=mobility,
                         energy_saving=thresholds)


def _build_true_traffic(cfg: NetworkConfig, spec: ScenarioSpec,
                        rng: np.random.Generator) -> TrafficModel:
    cells = tuple(c.id for c in cfg.cells)
    factor = rng.uniform(0.75, 1.25, size=len(cells))
    is_cap = np.array([c in cfg.capacity_cells for c in cells], dtype=bool)
    peak_load = np.where(is_cap, spec.peak_capacity_load,
                         spec.peak_coverage_load)
    peak_ues = np.where(is_cap, spec.peak_capacity_ues,
                        spec.peak_capacity_ues * 1.2)
    n_dl, n_ul = np.array([(c.n_dl_prb, c.n_ul_prb) for c in cfg.cells],
                          dtype=float).T
    p = np.array([diurnal_profile(hour) for hour in _HOURS])[:, None]
    # (hour, cell) products in the order (peak * prbs) * p * factor
    mean = np.stack([peak_ues * p * factor, peak_load * n_dl * p * factor,
                     0.4 * peak_load * n_ul * p * factor], axis=-1)
    std = np.maximum(spec.traffic_noise * mean, [0.3, 0.5, 0.3])
    return TrafficModel(cells=cells, mean=mean, std=std)


def _default_energy_law() -> EnergyLaw:
    return EnergyLaw(
        idle_wh={"rru-l08": 180.0, "aau-n35-a": 240.0, "aau-n35-b": 260.0,
                 "aau-n35-c": 290.0},
        sleep_wh=90.0,
        slope_by_pmax={40.0: 90.0, 43.0: 130.0, 46.0: 170.0},
    )


def _generate_mrs(cfg: NetworkConfig, spec: ScenarioSpec,
                  rng: np.random.Generator) -> MeasurementReports:
    """`spec.reports_per_cell_hour` measurement reports per capacity cell and
    hour. Each capacity cell, in sorted-id order, draws all its reports as one
    block of n = 24 * reports_per_cell_hour rows, hour-major (row i is report
    i % reports_per_cell_hour of hour i // reports_per_cell_hour + 1). With L
    the coverage cells other than its paired one (sorted) and m = min(3, L),
    the block draws, in this order:

    - `standard_normal((n, 2 + m))`: the serving RSRP -85 + 3 z[:, 0], the
      paired RSRP -95 + 4 z[:, 1] and extra neighbour e's -104 + 5 z[:, 2 + e];
      a row draws every column, also those it does not use;
    - `integers(0, m + 1, size=n)`: each row's number of extra neighbours;
    - `_floyd`'s picks of those neighbours among the L other coverage cells;
    - `integers(0, 60, size=n)`: the timestamp minutes.

    If no report of a (cell, hour) has a non-serving RSRP above the A4
    threshold plus hysteresis, the first one's paired RSRP becomes that floor
    + 10, so every cell has a feasible transfer target every hour. A report's
    pairs are its serving, paired and extra cells, in that order.
    """
    names = tuple(sorted(c.id for c in cfg.cells))
    code = {c: k for k, c in enumerate(names)}
    coverage = sorted(cfg.coverage_cells)
    floor = spec.a4_threshold_dbm + spec.a4_hysteresis_db
    per_hour = spec.reports_per_cell_hour
    slots = [(hour, k) for hour in _HOURS for k in range(per_hour)]
    n = len(slots)
    prefixes = [f"2024-04-{1 + k % 28:02d}T{hour - 1:02d}:"
                for hour, k in slots]
    timestamps, ue_ids, blocks = [], [], []
    for cap in sorted(cfg.capacity_cells):
        paired = cfg.pairing[cap]
        others = [c for c in coverage if c != paired]
        m = min(3, len(others))  # UEs report only a handful of neighbours
        z = rng.standard_normal((n, 2 + m))
        n_extra = rng.integers(0, m + 1, size=n)
        picks = _floyd(rng, len(others), n_extra, m)
        minutes = rng.integers(0, 60, size=n)
        rsrp = (np.array([-85.0, -95.0] + [-104.0] * m)
                + np.array([3.0, 4.0] + [5.0] * m) * z)
        extra_above = (rsrp[:, 2:] > floor) & (np.arange(m) < n_extra[:, None])
        qualified = (rsrp[:, 1] > floor) | extra_above.any(axis=1)
        unqualified = ~qualified.reshape(24, per_hour).any(axis=1)
        rsrp[np.flatnonzero(unqualified) * per_hour, 1] = floor + 10.0
        timestamps += [f"{p}{mm:02d}:00"
                       for p, mm in zip(prefixes, minutes.tolist())]
        ue_ids += [f"ue-{cap}-{hour}-{k}" for hour, k in slots]
        cells = np.column_stack((
            np.full((n, 2), (code[cap], code[paired])),
            np.array([code[c] for c in others], dtype=np.intp)[picks]))
        used = np.arange(2 + m) < 2 + n_extra[:, None]  # row-major: in order
        blocks.append((np.full(n, code[cap]), 2 + n_extra, cells[used],
                       rsrp[used]))
    serving, counts, neighbours, rsrp = map(np.concatenate, zip(*blocks))
    return MeasurementReports(names, timestamps, ue_ids, serving,
                              np.concatenate(([0], np.cumsum(counts))),
                              neighbours, rsrp)


def _floyd(rng: np.random.Generator, n_others: int, n_extra: np.ndarray,
           m: int) -> np.ndarray:
    """Floyd's sampling without replacement of n_extra[i] of range(n_others)
    for every row i at once: round s < m draws `integers(0, j + 1)` over the
    rows with more than s picks, j = n_others - n_extra + s, and a row takes
    the draw, or j when it already holds the draw. Returns the (rows, m)
    picks, in round order; a row's entries after its n_extra are 0."""
    picks = np.zeros((len(n_extra), m), dtype=np.int64)
    for s in range(m):
        rows = np.flatnonzero(n_extra > s)
        j = n_others - n_extra[rows] + s
        drawn = rng.integers(0, j + 1)
        taken = (picks[rows, :s] == drawn[:, None]).any(axis=1)
        picks[rows, s] = np.where(taken, j, drawn)
    return picks


_RATE_EDGES = np.asarray(DEFAULT_BIN_EDGES)
_UE_RATES = 100          # per-UE rate samples behind a row's rate bins
_RATE_DRAWS = 1 + _UE_RATES   # an active row's rate noise, then those
_TRAFFIC_DRAWS = 3       # an unbiased row's UEs, DL and UL PRBs
_BLOCK_CELLS = 64        # cells whose rows are built from one set of arrays
_HOURS = list(range(1, 25))


def _rate_bins(per_ue: np.ndarray) -> np.ndarray:
    """Per row of `per_ue` (its last axis), np.histogram's counts over
    DEFAULT_BIN_EDGES (top bin closed), plus the values it drops (below the
    first edge, above the top) in the top bin."""
    n_bins = len(_RATE_EDGES) - 1
    bins = _RATE_EDGES.searchsorted(per_ue, side="right") - 1
    bins[(bins < 0) | (bins >= n_bins)] = n_bins - 1
    lead = bins.shape[:-1]
    rows = math.prod(lead)
    offsets = n_bins * np.arange(rows).reshape(lead + (1,))
    return np.bincount((bins + offsets).ravel(),
                       minlength=rows * n_bins).reshape(lead + (n_bins,))


def _at_least(x: np.ndarray, floor: float) -> np.ndarray:
    """Python's `max(x, floor)` elementwise: `floor` only where it is larger."""
    return np.where(x < floor, floor, x)


def _idle(ues: np.ndarray, cs_minutes: np.ndarray) -> np.ndarray:
    """Rows that draw no rates: shut down, or without UEs."""
    return (cs_minutes >= 60.0) | (ues <= 0.0)


def _campaign(cfg, energy_law, rate_law, spec, rng, traffic, handover=None):
    """The KPI and energy rows of one measurement campaign: the unbiased
    one, or with `handover` the shutdown-active one. Rows are built from
    arrays, _BLOCK_CELLS cells at a time, and take every random value from
    one normal stream of `rng`, in this order:

    - unbiased: each cell-hour, cells in configuration order and hours 1-24
      within a cell, draws 104 normals: its UEs, DL and UL PRBs, then its rate
      noise and 100 per-UE rates, which a row without UEs leaves unused;
    - shutdown-active: each day first draws the seed of its simulated day
      (`_simulated_day`); then each active cell-hour (not shut down, UEs
      above 0), in the same order, draws its rate noise and per-UE rates;
    - after a day's KPI rows, each (radio, hour) draws one energy noise.
    """
    kpis, energies = [], []
    n_cells = len(cfg.cells)
    prbs = np.array([(c.n_dl_prb, c.n_ul_prb) for c in cfg.cells])
    for day in range(1, spec.n_days + 1):
        if handover is not None:
            simulated = _simulated_day(cfg, traffic, handover, rng)
        values = np.empty((4, n_cells, 24))
        for lo in range(0, n_cells, _BLOCK_CELLS):
            cells = slice(lo, lo + _BLOCK_CELLS)
            if handover is None:
                block, rate_z = _drawn_block(traffic, prbs, rng, cells)
            else:
                block = simulated[:, cells].reshape(4, -1)
                n_active = np.count_nonzero(~_idle(block[0], block[3]))
                rate_z = rng.standard_normal((n_active, _RATE_DRAWS))
            kpis.append(_kpi_values(prbs[cells], rate_law, spec, block, rate_z))
            values[:, cells] = block.reshape(4, -1, 24)
        energies.append(_energy_rows(cfg, energy_law, spec, rng, values))
    return (_hourly_rows([c.id for c in cfg.cells], spec.n_days, kpis),
            _hourly_rows([r.id for r in cfg.radio_units], spec.n_days,
                         energies))


def _hourly_rows(ids, n_days, blocks):
    """HourlyRows of value `blocks`, rows by day, then id, then hour."""
    return HourlyRows([i for i in ids for _ in _HOURS] * n_days,
                      np.repeat(np.arange(1, n_days + 1), len(ids) * 24),
                      np.tile(_HOURS, len(ids) * n_days),
                      np.concatenate(blocks))


def _drawn_block(traffic, prbs, rng, cells):
    """Unbiased campaign, the cells of slice `cells`: every cell-hour drawn
    from the true Gaussians, truncated at 0 and clamped to the PRB capacity,
    with no shutdown. Returns the (ues, dl, ul, cs_minutes) rows and each
    active row's rate normals."""
    mean = traffic.mean[:, cells].transpose(1, 0, 2).reshape(-1, 3)
    std = traffic.std[:, cells].transpose(1, 0, 2).reshape(-1, 3)
    z = rng.standard_normal((len(mean), _TRAFFIC_DRAWS + _RATE_DRAWS))
    ues, dl, ul = _at_least(mean + std * z[:, :_TRAFFIC_DRAWS], 0.0).T
    dl, ul = np.minimum([dl, ul], np.repeat(prbs[cells], 24, axis=0).T)
    block = np.array([ues, dl, ul, np.zeros_like(ues)])
    return block, z[ues > 0.0, _TRAFFIC_DRAWS:]


def _kpi_values(prbs, rate_law, spec, block, rate_z):
    """kpi.csv's counters, one row per cell-hour (hours 1-24 within a cell),
    from the (ues, dl, ul, cs_minutes) rows of cells with PRB counts `prbs`;
    `rate_z` holds each active row's rate noise normal, followed by its
    per-UE rate normals. Shut-down rows report no traffic; rows without UEs
    keep their PRBs; inactive rows have no volumes, times or rates."""
    ues, dl, ul, cs = block
    shut = cs >= 60.0
    active = ~_idle(ues, cs)
    load = dl[active] / np.repeat(prbs[:, 0], 24)[active]
    load = np.where(load > 1.0, 1.0, load)
    noise = 0.0 + spec.rate_noise_fraction * rate_z[:, 0]
    rate = _at_least(rate_law.mean_rate(load, ues[active]) * (1.0 + noise),
                     0.1)
    t_active = 1800.0 * load + 30.0
    v_minus = 0.1e6 * t_active
    v_total = rate * 1e6 * t_active + v_minus
    per_ue = np.maximum(
        rate[:, None] + (0.45 * rate)[:, None] * rate_z[:, 1:], 0.05)
    values = np.zeros((len(ues), 10 + N_RATE_BINS))
    values[:, :3] = np.where(shut, 0.0, [ues, dl, ul]).T
    values[active, 3:9] = np.transpose([v_total, v_minus, t_active,
                                        v_total * 0.3, t_active * 1.1,
                                        t_active])
    values[active, 9:-1] = _rate_bins(per_ue)
    values[:, -1] = cs
    return values


def _energy_rows(cfg, energy_law, spec, rng, values):
    """Each radio's hourly energy through the true law from its carriers'
    DL load and shutdown fraction in `values` (ues, dl, ul, cs_minutes by
    cell and hour), plus one noise normal per (radio, hour): one column,
    radio-major."""
    row = {c.id: k for k, c in enumerate(cfg.cells)}
    true_e = np.zeros((len(cfg.radio_units), 24))
    for r, radio in enumerate(cfg.radio_units):
        cells = [cfg.cell(cid) for cid in radio.cell_ids]
        true_e[r] = energy_law.radio_energy(
            radio.radio_type, cells,
            {c.id: values[1, row[c.id]] / c.n_dl_prb for c in cells},
            {c.id: values[3, row[c.id]] / 60.0 for c in cells})
    noise = 0.0 + spec.energy_noise_wh * rng.standard_normal(true_e.shape)
    return _at_least(true_e + noise, 0.0).reshape(-1, 1)


def _simulated_day(cfg, traffic, handover, rng):
    """Shutdown-active campaign: one simulated realization of the day
    against the true laws, as (ues, dl, ul, cs_minutes) by cell and hour."""
    day_seed = int(rng.integers(0, 2 ** 31 - 1))
    outputs = simulate_day(traffic, cfg, handover,
                           AbmConfig(runs=1, max_steps=400, seed=day_seed))
    return np.array([(out.ues[0], out.dl_prbs[0], out.ul_prbs[0],
                      out.cs_minutes[0]) for out in outputs]).transpose(1, 2, 0)


def generate_scenario(spec: ScenarioSpec, out_dir, seed: int,
                      ) -> SyntheticScenario:
    """Build a synthetic network and write every dataset file into `out_dir`:
    the unbiased campaign (engineering/kpi/energy/mr) plus a shutdown-active
    campaign (kpi_biased/energy_biased) for ML training. The true laws stay
    on the returned scenario for oracle checks."""
    if spec.n_capacity < 1 or spec.n_coverage < 1:
        raise InvalidSpecError("need at least one capacity and one coverage cell")
    if spec.n_days < 1:
        raise InvalidSpecError("need at least one day")
    if spec.reports_per_cell_hour < 1:
        raise InvalidSpecError("need at least one measurement report per "
                               "capacity cell and hour")
    rng = np.random.default_rng(seed)
    cfg = _build_network(spec)
    traffic = _build_true_traffic(cfg, spec, rng)
    energy_law = _default_energy_law()
    rate_law = RateLaw()
    mrs = _generate_mrs(cfg, spec, rng)
    kpis, energies = _campaign(cfg, energy_law, rate_law, spec, rng, traffic)
    out = Path(out_dir)
    write_datasets(out, cfg, kpis, energies, mrs)
    del kpis, energies  # written: free them before the second campaign
    handover = build_handover_model_for_hours(cfg, mrs)
    kpis_b, energies_b = _campaign(cfg, energy_law, rate_law, spec, rng,
                                   traffic, handover)
    write_kpis(out / "kpi_biased.csv", kpis_b)
    write_energy(out / "energy_biased.csv", energies_b)
    (out / "scenario.json").write_text(json.dumps({
        "seed": seed, "n_capacity": spec.n_capacity,
        "n_coverage": spec.n_coverage, "n_days": spec.n_days,
    }, sort_keys=True), encoding="utf-8")
    return SyntheticScenario(cfg=cfg, traffic=traffic, energy_law=energy_law,
                             rate_law=rate_law, mrs=mrs, seed=seed,
                             spec=spec)


# ---------------------------------------------------------------------------
# Ground-truth replay


def ground_truth_replay(scenario: SyntheticScenario, abm_cfg: AbmConfig,
                        handover=None) -> dict[str, KpiTable]:
    """Reference post-activation KPIs: a simulation pass at ten times the
    configured run budget (decorrelated seed) with energies and rates
    evaluated through the true laws."""
    cfg = scenario.cfg
    if handover is None:
        handover = build_handover_model_for_hours(cfg, scenario.mrs)
    ref_cfg = AbmConfig(runs=REFERENCE_RUNS_FACTOR * abm_cfg.runs,
                        max_steps=abm_cfg.max_steps,
                        seed=abm_cfg.seed + REFERENCE_SEED_OFFSET)
    outputs = simulate_day(scenario.traffic, cfg, handover, ref_cfg)
    return truth_tables_from_outputs(scenario, outputs)


def truth_tables_from_outputs(scenario: SyntheticScenario,
                              outputs: Sequence[HourlyOutputs],
                              ) -> dict[str, KpiTable]:
    """Per (cell, hour) run means of the KPIs, and per (radio, hour) and
    (cell, hour) run means of the true laws' energy and rate. Each law is
    evaluated once on the runs' columns; rate only over the runs where the
    cell is active, and not at all where it is shut down in every run."""
    cfg = scenario.cfg
    caps = {c.id: float(c.n_dl_prb) for c in cfg.cells}
    tables: dict[str, KpiTable] = {"cs_minutes": {}, "dl_load": {}, "ue": {},
                                   "energy_wh": {}, "rate_mbps": {}}
    for out in outputs:
        index = {cell: i for i, cell in enumerate(out.cells)}
        for cell, i in index.items():
            key = (cell, out.hour)
            tables["cs_minutes"][key] = float(out.cs_minutes[:, i].mean())
            tables["dl_load"][key] = float(out.dl_prbs[:, i].mean()
                                           / caps[cell])
            tables["ue"][key] = float(out.ues[:, i].mean())
            active = out.cs_minutes[:, i] < 60.0
            if active.any():
                tables["rate_mbps"][key] = float(np.mean(
                    scenario.rate_law.mean_rate(
                        out.dl_prbs[active, i] / caps[cell],
                        out.ues[active, i])))
        for radio in cfg.radio_units:
            cells = [cfg.cell(cid) for cid in radio.cell_ids]
            energy = scenario.energy_law.radio_energy(
                radio.radio_type, cells,
                {c.id: out.dl_prbs[:, index[c.id]] / caps[c.id] for c in cells},
                {c.id: out.cs_minutes[:, index[c.id]] / 60.0 for c in cells})
            tables["energy_wh"][(radio.id, out.hour)] = float(np.mean(energy))
    return tables


_TRUTH_COLUMNS = ["kpi", "entity", "hour", "value"]


def write_truth(path, tables: Mapping[str, KpiTable]) -> None:
    _write_rows(path, _TRUTH_COLUMNS, [
        (kpi, *key, value) for kpi in sorted(tables)
        for key, value in sorted(tables[kpi].items())], (str, str, int, float))


def read_truth(path) -> dict[str, KpiTable]:
    tables: dict[str, KpiTable] = {}
    for (kpi, entity, hour), (value,) in _read_keyed(
            path, _TRUTH_COLUMNS, (str, str, int, float), 3).items():
        tables.setdefault(kpi, {})[entity, hour] = value
    return tables


# ---------------------------------------------------------------------------
# Pipeline stages: `train`, `simulate` and `benchmark` on parsed files


TRAIN_DAYS_FRACTION = 0.8


def chronological_split(rows: HourlyRows) -> tuple[HourlyRows, HourlyRows]:
    """The rows of the first 80% of the days (at least one), and the rest."""
    days = np.unique(rows.day)
    cut = max(1, int(round(TRAIN_DAYS_FRACTION * len(days))))
    train = np.isin(rows.day, days[:cut])
    return rows.select(train), rows.select(~train)


def train_models(cfg: NetworkConfig, kpis: HourlyRows, energies: HourlyRows,
                 seed: int) -> tuple[EnergyModel, RateModel, dict]:
    """The energy and rate models fitted on the training days (see
    chronological_split), and their errors on the later days, None where
    no row is left: energy MAE and MAPE, and the mean-rate MAE."""
    kpi_train, kpi_test = chronological_split(kpis)
    energy_train, energy_test = chronological_split(energies)
    energy_model = fit_radio_energy_model(cfg, kpi_train, energy_train,
                                          EnergyHyper(seed=seed))
    rate_model = train_rate_model(*build_rate_samples(cfg, kpi_train))
    metrics = dict.fromkeys(["energy_test_mae_wh", "energy_test_mape_percent",
                             "rate_test_mae_mbps"])
    rows = build_energy_samples(cfg, kpi_test, energy_test)
    if rows:
        r = mae_mape(predict_mean_energy(energy_model, rows),
                     [row.energy_wh for row in rows])
        metrics.update(energy_test_mae_wh=r.mae,
                       energy_test_mape_percent=r.mape)
    samples = {(cell, k): s for cell, cell_rows in build_rate_samples(
        cfg, kpi_test)[0].items() for k, s in enumerate(cell_rows)}
    rates = predict_mean_rates(
        rate_model, {key: s.dl_prb_load for key, s in samples.items()},
        {key: s.rrc_ues for key, s in samples.items()},
        np.random.default_rng(0))
    if rates:
        metrics["rate_test_mae_mbps"] = mae_mape(
            list(rates.values()), [samples[k].rate_mbps for k in rates]).mae
    return energy_model, rate_model, metrics


def prepare_network(cfg: NetworkConfig, kpis: HourlyRows,
                    mrs: MeasurementReports, overrides: Mapping,
                    ) -> tuple[NetworkConfig, TrafficModel, HandoverModel]:
    """The network a query simulates: `cfg` with `overrides` applied (see
    apply_overrides), the traffic model fitted on `kpis` and the handover
    model voted from `mrs` under the overridden A4 parameters."""
    cfg = apply_overrides(cfg, overrides)
    return (cfg, fit_traffic_model(kpis),
            build_handover_model_for_hours(cfg, mrs))


def _predictions(cfg, tables, energy_model, rates) -> dict[str, KpiTable]:
    rows = samples_from_means(cfg, tables["dl_load"], tables["cs_minutes"])
    return {"energy_wh": dict(zip(rows, predict_mean_energy(
        energy_model, list(rows.values())))), "rate_mbps": rates}


def abm_predictions(cfg: NetworkConfig, outputs: Sequence[HourlyOutputs],
                    energy_model: EnergyModel, rate_model: RateModel,
                    seed: int) -> dict[str, KpiTable]:
    """`simulate`'s predictions.csv tables: energy per (radio, hour) and
    mean rate per (cell, hour) on the runs' hourly means, the PMF draws
    from the generator seeded [seed, 0x51]."""
    tables = mean_tables(outputs, cfg)
    return _predictions(cfg, tables, energy_model, predict_mean_rates(
        rate_model, tables["dl_load"], tables["ue"],
        np.random.default_rng([seed, 0x51])))


def baseline_predictions(cfg: NetworkConfig, outputs: Sequence[HourlyOutputs],
                         energy_model: EnergyModel, kpis: HourlyRows,
                         ) -> dict[str, KpiTable]:
    """`benchmark`'s predictions.csv tables: energy per (radio, hour) on the
    baseline's outputs, and each cell's mean rate over the rows `kpis`."""
    tables = mean_tables(outputs, cfg)
    rates = mean_rate_by_cell(build_rate_samples(cfg, kpis)[0])
    return _predictions(cfg, tables, energy_model, {
        (cell, hour): rates[cell] for cell, hour in sorted(tables["dl_load"])
        if cell in rates})


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class MaeMape:
    """MAE in the KPI's unit; MAPE in percent over nonzero-truth entries,
    with the number of skipped zero-truth entries reported."""

    mae: float
    mape: float
    skipped: int


def mae_mape(pred: Sequence[float], truth: Sequence[float]) -> MaeMape:
    pred, truth = list(pred), list(truth)
    if len(pred) != len(truth):
        raise LengthMismatchError(f"{len(pred)} predictions vs {len(truth)} "
                                  "truths")
    if not pred:
        raise EmptySeriesError("empty series")
    abs_err = [abs(p - t) for p, t in zip(pred, truth)]
    mae = math.fsum(abs_err) / len(abs_err)
    ratios = [e / abs(t) for e, t in zip(abs_err, truth) if t != 0]
    skipped = len(truth) - len(ratios)
    mape = 100.0 * math.fsum(ratios) / len(ratios) if ratios else 0.0
    return MaeMape(mae=mae, mape=mape, skipped=skipped)


@dataclass(frozen=True)
class KpiEval:
    abm: MaeMape
    benchmark: MaeMape
    gain_mae: float | None
    gain_mape: float | None


@dataclass(frozen=True)
class EvalReport:
    """Per-KPI accuracy of both estimators plus hourly profile series."""

    kpis: dict[str, KpiEval]
    profiles: dict[str, list[tuple[int, float, float, float]]]


def _gain(bench_err: float, abm_err: float) -> float | None:
    if bench_err <= 0:
        return None
    return (bench_err - abm_err) / bench_err


def compare(abm_tables: Mapping[str, KpiTable],
            bench_tables: Mapping[str, KpiTable],
            truth_tables: Mapping[str, KpiTable]) -> EvalReport:
    """Score both estimators against ground truth on the KPIs the truth
    defines. All three tables must cover identical keys per KPI."""
    kpis: dict[str, KpiEval] = {}
    profiles: dict[str, list[tuple[int, float, float, float]]] = {}
    for kpi in sorted(truth_tables):
        truth = truth_tables[kpi]
        if kpi not in abm_tables or kpi not in bench_tables:
            raise KeyMismatchError(f"estimator missing KPI {kpi!r}")
        for name, table in (("abm", abm_tables[kpi]),
                            ("benchmark", bench_tables[kpi])):
            if set(table) != set(truth):
                raise KeyMismatchError(
                    f"{name} keys differ from truth for KPI {kpi!r}")
        keys = sorted(truth)
        t, a, b = ([table[k] for k in keys] for table in (
            truth, abm_tables[kpi], bench_tables[kpi]))
        abm_err = mae_mape(a, t)
        bench_err = mae_mape(b, t)
        kpis[kpi] = KpiEval(abm=abm_err, benchmark=bench_err,
                            gain_mae=_gain(bench_err.mae, abm_err.mae),
                            gain_mape=_gain(bench_err.mape, abm_err.mape))
        by_hour: dict[int, list[tuple[float, float, float]]] = {}
        for k, *values in zip(keys, t, a, b):
            by_hour.setdefault(k[1], []).append(values)
        profiles[kpi] = [(hour, *(float(np.mean(v)) for v in zip(*vals)))
                         for hour, vals in sorted(by_hour.items())]
    return EvalReport(kpis=kpis, profiles=profiles)


def align_to_truth(abm_tables: Mapping[str, KpiTable],
                   bench_tables: Mapping[str, KpiTable],
                   truth_tables: Mapping[str, KpiTable],
                   ) -> tuple[dict, dict, dict, list[str]]:
    """`compare`'s arguments: the tables cut to the keys that each truth KPI
    shares with both estimators; and a coverage line per truth KPI, the keys
    kept and dropped, or skipped if an estimator lacks the KPI. A KPI that
    shares no key with the truth raises KeyMismatchError."""
    aligned = {"abm": {}, "benchmark": {}, "truth": {}}
    coverage = []
    for kpi, truth in truth_tables.items():
        estimates = {"abm": abm_tables.get(kpi),
                     "benchmark": bench_tables.get(kpi)}
        lacking = " and ".join(n for n, t in estimates.items() if t is None)
        if lacking:
            coverage.append(f"{kpi}: skipped, not predicted by {lacking}")
            continue
        keys = set(truth) & set(abm_tables[kpi]) & set(bench_tables[kpi])
        if not keys:
            raise KeyMismatchError(f"no overlapping keys for KPI {kpi!r}")
        coverage.append(f"{kpi}: kept {len(keys)} of {len(truth)} keys; "
                        "dropped " + ", ".join(
                            f"{len(set(truth) - set(t))} absent from {n}"
                            for n, t in estimates.items()))
        for name, table in (*estimates.items(), ("truth", truth)):
            aligned[name][kpi] = {k: table[k] for k in keys}
    return (*aligned.values(), coverage)


def write_eval_report(directory, report: EvalReport) -> None:
    """report.json with the per-KPI scores and profiles.csv for plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def scores(e: MaeMape) -> dict:
        return {"mae": e.mae, "mape_percent": e.mape, "mape_skipped": e.skipped}

    payload = {kpi: {"abm": scores(ev.abm), "benchmark": scores(ev.benchmark),
                     "accuracy_gain_mae": ev.gain_mae,
                     "accuracy_gain_mape": ev.gain_mape}
               for kpi, ev in report.kpis.items()}
    (directory / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2), encoding="utf-8")
    _write_rows(directory / "profiles.csv", [
        "kpi", "hour", "truth_mean", "abm_mean", "benchmark_mean"], [
        (kpi, *row) for kpi, rows in sorted(report.profiles.items())
        for row in rows], (str, int, float, float, float))
