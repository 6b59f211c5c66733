import tempfile
from pathlib import Path

import numpy as np
import pytest

from carriersim.datamodel import (
    A4Params,
    Cell,
    HourlyRows,
    NetworkConfig,
    RadioUnit,
    ShutdownThresholds,
    TrafficModel,
    parse_mrs,
)
from carriersim.rules import HandoverModel


def make_network(n_capacity=1, n_coverage=1, entry_ue=10.0, entry_dl=100.0,
                 entry_ul=50.0, leave_ue=200.0, leave_dl=90.0, leave_ul=45.0,
                 a4_threshold=-110.0):
    """Small hand-wired network: capacity cells at 3500 MHz paired round-robin
    with coverage cells at 800 MHz, one radio unit per cell."""
    cells = []
    radios = []
    capacity = []
    coverage = []
    pairing = {}
    mobility = {}
    thresholds = {}
    for i in range(n_coverage):
        cid = f"b{i + 1}"
        coverage.append(cid)
        cells.append(Cell(id=cid, radio_unit=f"ru-{cid}", frequency_mhz=800.0,
                          bandwidth_mhz=20.0, max_tx_power_dbm=43.0,
                          n_dl_prb=100, n_ul_prb=100))
        radios.append(RadioUnit(id=f"ru-{cid}", radio_type="cov-A", n_trx=4,
                                carrier_tx_mode="mode0", cell_ids=(cid,)))
        mobility[cid] = A4Params(threshold_dbm=a4_threshold)
    for i in range(n_capacity):
        cid = f"c{i + 1}"
        capacity.append(cid)
        cells.append(Cell(id=cid, radio_unit=f"ru-{cid}", frequency_mhz=3500.0,
                          bandwidth_mhz=100.0, max_tx_power_dbm=46.0,
                          n_dl_prb=270, n_ul_prb=135))
        radios.append(RadioUnit(id=f"ru-{cid}", radio_type="cap-A", n_trx=32,
                                carrier_tx_mode="mode1", cell_ids=(cid,)))
        pairing[cid] = f"b{(i % n_coverage) + 1}"
        mobility[cid] = A4Params(threshold_dbm=a4_threshold)
        thresholds[cid] = ShutdownThresholds(
            entry_ue=entry_ue, entry_dl_prb=entry_dl, entry_ul_prb=entry_ul,
            leave_ue=leave_ue, leave_dl_prb=leave_dl, leave_ul_prb=leave_ul)
    return NetworkConfig(
        radio_units=tuple(radios),
        cells=tuple(cells),
        capacity_cells=frozenset(capacity),
        coverage_cells=frozenset(coverage),
        pairing=pairing,
        mobility=mobility,
        energy_saving=thresholds,
    )


def make_kpi(cell_id="c1", day=1, hour=1, rrc_ues=5.0, dl_prbs=20.0,
             ul_prbs=10.0, dl_bits=1e8, dl_bits_lastslot=2e7,
             dl_active_time_s=2.0, rate_bins=None, cs_minutes=0.0):
    """One kpi.csv row as HourlyRows; the UL volume and times are 0."""
    if rate_bins is None:
        rate_bins = [10.0] * 15
    return HourlyRows([cell_id], np.array([day]), np.array([hour]), np.array(
        [[rrc_ues, dl_prbs, ul_prbs, dl_bits, dl_bits_lastslot,
          dl_active_time_s, 0.0, 0.0, 0.0, *rate_bins, cs_minutes]],
        dtype=float))


def make_energy(radio_unit="ru-c1", day=1, hour=1, energy_wh=500.0):
    """One energy.csv row as HourlyRows."""
    return HourlyRows([radio_unit], np.array([day]), np.array([hour]),
                      np.array([[energy_wh]], dtype=float))


def stack(tables):
    """The rows of `tables` (HourlyRows of one file type), in order."""
    tables = list(tables)
    return HourlyRows([i for t in tables for i in t.ids],
                      *(np.concatenate([getattr(t, name) for t in tables])
                        for name in ("day", "hour", "values")))


def assert_same_rows(a, b):
    """`a` and `b` hold the same ids, and days, hours and values of the
    same dtypes, shapes and bits."""
    assert a.ids == b.ids
    for name in ("day", "hour", "values"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def make_reports(rows):
    """MeasurementReports parsed from an mr.csv of `rows`, each a
    (timestamp, ue_id, serving_cell, rsrp) tuple; `rsrp` maps cell ids to
    RSRPs, written in its order, each as the repr of its float."""
    lines = ["timestamp,ue_id,serving_cell,rsrp_dbm"] + [
        f"{stamp},{ue},{serving}," + "|".join(
            f"{cell}:{float(value)!r}" for cell, value in rsrp.items())
        for stamp, ue, serving, rsrp in rows]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mr.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return parse_mrs(path)


def report_pairs(reports):
    """Each report's RSRP pairs as a {cell: rsrp} dict in their order,
    read from the columns."""
    cells = [reports.cells[k] for k in reports.neighbours.tolist()]
    rsrp, ends = reports.rsrp_dbm.tolist(), reports.offsets.tolist()
    return [dict(zip(cells[a:b], rsrp[a:b])) for a, b in zip(ends, ends[1:])]


def assert_same_reports(a, b):
    """`a` and `b` hold the same cells, timestamps, UEs, and serving cells,
    offsets, neighbours and RSRPs of the same dtypes, shapes and bits."""
    assert (a.cells, a.timestamps, a.ue_ids) == (b.cells, b.timestamps,
                                                 b.ue_ids)
    for name in ("serving", "offsets", "neighbours", "rsrp_dbm"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def make_traffic(cfg, values, std=1e-9):
    """Near-degenerate TrafficModel. `values` maps cell -> (ues, dl, ul),
    or (cell, hour) -> (ues, dl, ul) for hour-dependent fixtures."""
    cells = tuple(c.id for c in cfg.cells)
    mean = np.empty((24, len(cells), 3))
    for k, cell in enumerate(cells):
        for hour in range(1, 25):
            v = values.get((cell, hour), values.get(cell))
            if v is None:
                raise KeyError(f"no traffic values for {cell}")
            mean[hour - 1, k] = v
    return TrafficModel(cells=cells, mean=mean, std=np.full_like(mean, std))


def make_handover(targets_by_cell, hours=range(1, 25)):
    """HandoverModel with the same target PMF for every listed hour."""
    table = {}
    for hour in hours:
        for cell, targets in targets_by_cell.items():
            table[(cell, hour)] = dict(targets)
    return HandoverModel(probabilities=table)


@pytest.fixture
def two_cell_network():
    return make_network(n_capacity=1, n_coverage=1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
