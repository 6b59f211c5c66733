"""Shutdown entry/leaving predicates, the A4 trigger and UE transfer targets.

All predicates are pure functions; HandoverModel is immutable after build and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .datamodel import (A4Params, MeasurementReports, NetworkConfig,
                        ShutdownThresholds)

PROBABILITY_SUM_TOL = 1e-9


def check_shutdown_entry(ues: float, dl_prbs: float, dl_prbs_paired: float,
                         ul_prbs: float, ul_prbs_paired: float,
                         th: ShutdownThresholds) -> bool:
    """A capacity cell may shut down only if all three loads sit strictly
    below the entry thresholds (own UE count, combined DL PRBs, combined UL
    PRBs with the paired coverage cell).

    Elementwise: arrays of loads, with `th` holding per-cell arrays under the
    ShutdownThresholds field names, give a boolean array."""
    return ((ues < th.entry_ue)
            & (dl_prbs + dl_prbs_paired < th.entry_dl_prb)
            & (ul_prbs + ul_prbs_paired < th.entry_ul_prb))


def check_wakeup(paired_ues: float, paired_dl_prbs: float, paired_ul_prbs: float,
                 th: ShutdownThresholds) -> bool:
    """The paired coverage cell requests reactivation as soon as any of its
    own counters rises strictly above the leaving thresholds. Elementwise,
    like check_shutdown_entry."""
    return ((paired_ues > th.leave_ue)
            | (paired_dl_prbs > th.leave_dl_prb)
            | (paired_ul_prbs > th.leave_ul_prb))


def a4_qualifies(rsrp_dbm: float, a4: A4Params, neighbor: str) -> bool:
    """Biased-RSRP trigger: rsrp + freq offset + cell offset - hysteresis
    must exceed the serving cell's threshold (strictly)."""
    return _a4_trigger(rsrp_dbm, a4.freq_offset_db.get(neighbor, 0.0),
                       a4.cell_offset_db.get(neighbor, 0.0), a4.hysteresis_db,
                       a4.threshold_dbm)


def _a4_trigger(rsrp_dbm, freq_offset_db, cell_offset_db, hysteresis_db,
                threshold_dbm):
    """a4_qualifies on the offsets already looked up; elementwise on arrays."""
    return (rsrp_dbm + freq_offset_db + cell_offset_db
            - hysteresis_db) > threshold_dbm


@dataclass(frozen=True)
class HandoverModel:
    """Per capacity cell and hour: PMF over transfer target cells.

    Only targets that received votes are stored. A missing or empty entry
    means no feasible A4 target was observed, in which case a shutdown
    attempt is abandoned.
    """

    probabilities: Mapping[tuple[str, int], Mapping[str, float]]

    def targets(self, capacity_cell: str, hour: int) -> Mapping[str, float]:
        return self.probabilities.get((capacity_cell, hour), {})


def transfer_candidates(cfg: NetworkConfig, capacity_cell: str) -> list[str]:
    """Cells on the paired coverage cell's frequency, the A4 target layer."""
    freq = cfg.cell(cfg.pairing[capacity_cell]).frequency_mhz
    return [c for c in cfg.cells_on_frequency(freq) if c != capacity_cell]


def build_handover_model(cfg: NetworkConfig, mrs: MeasurementReports,
                         hour: int) -> HandoverModel:
    """Estimate transfer probabilities for one hour from measurement reports.

    The caller supplies reports already filtered to the hour. Each report
    served by a capacity cell votes for its strongest A4-qualifying neighbour
    on the paired coverage frequency (ties broken towards the lowest cell id);
    votes are normalized per cell. Cells with no qualifying report get an
    empty map.
    """
    return HandoverModel(probabilities=_vote(cfg, mrs, hour))


def build_handover_model_for_hours(cfg: NetworkConfig,
                                   mrs: MeasurementReports) -> HandoverModel:
    """Group reports by hour-of-day and build the per-hour models in one pass."""
    return HandoverModel(probabilities=_vote(cfg, mrs))


def _vote(cfg: NetworkConfig, mrs: MeasurementReports,
          hour: int | None = None) -> dict:
    """build_handover_model's table for `hour` from all of `mrs`, or without
    `hour` the table of every hour 1-24 from the reports of that hour, voted
    on the report arrays."""
    hours = list(range(1, 25)) if hour is None else [hour]
    report_hour = mrs.hour if hour is None else np.full(len(mrs), hour)
    names, n = mrs.cells, len(mrs.cells)
    frequency = {c.id: c.frequency_mhz for c in cfg.cells}
    a4 = {k: cfg.mobility[names[k]] for k in np.flatnonzero(np.bincount(
        mrs.serving, minlength=n)).tolist() if names[k] in cfg.capacity_cells}
    # by cell code: the frequency and, for a capacity cell serving a report,
    # its candidates' frequency (its paired cell's)
    freq = np.array([frequency.get(c, np.nan) for c in names])
    layer = np.array([frequency[cfg.pairing[c]] if k in a4 else np.nan
                      for k, c in enumerate(names)])
    report = np.repeat(np.arange(len(mrs)), np.diff(mrs.offsets))
    serving = mrs.serving[report]
    # transfer_candidates: on the candidates' frequency, not the serving cell
    pairs = np.flatnonzero((freq[mrs.neighbours] == layer[serving])
                           & (mrs.neighbours != serving)
                           & np.isin(report_hour, hours)[report])
    report, serving = report[pairs], serving[pairs]
    neighbour, rsrp = mrs.neighbours[pairs], mrs.rsrp_dbm[pairs]
    hysteresis, threshold = np.zeros(n), np.zeros(n)   # by serving code
    for k, p in a4.items():
        hysteresis[k], threshold[k] = p.hysteresis_db, p.threshold_dbm
    code = {c: k for k, c in enumerate(names)}
    pair_key = serving * n + neighbour

    def offsets(name: str) -> np.ndarray:
        """Each pair's A4Params offset `name` towards its neighbour, 0 if
        unset: its serving cell's entries looked up by serving * n +
        neighbour code, after a sentinel key above every pair's."""
        entries = sorted((k * n + code[j], v) for k, p in a4.items()
                         for j, v in getattr(p, name).items() if j in code)
        keys = np.array([key for key, _ in entries] + [n * n], dtype=np.int64)
        values = np.array([v for _, v in entries] + [0.0])
        at = np.searchsorted(keys, pair_key)
        return np.where(keys[at] == pair_key, values[at], 0.0)

    qualifying = np.flatnonzero(_a4_trigger(
        rsrp, offsets("freq_offset_db"), offsets("cell_offset_db"),
        hysteresis[serving], threshold[serving]))
    # each report's strongest qualifying neighbour, the lowest id among equals
    ranked = qualifying[np.lexsort((neighbour[qualifying], -rsrp[qualifying],
                                    report[qualifying]))]
    best = ranked[np.unique(report[ranked], return_index=True)[1]]
    cell_hour = report_hour[report[best]] * n + serving[best]
    votes, count = np.unique(cell_hour * n + neighbour[best], return_counts=True)
    voted, total = np.unique(cell_hour, return_counts=True)
    pmfs: dict[tuple[str, int], dict[str, float]] = {}
    for key, p in zip(votes.tolist(), (count / total[np.searchsorted(
            voted, votes // n)]).tolist()):
        (h, k), j = divmod(key // n, n), key % n
        pmfs.setdefault((names[k], h), {})[names[j]] = p
    return {(cell, h): pmfs.pop((cell, h), {})
            for h in hours for cell in sorted(cfg.capacity_cells)}
