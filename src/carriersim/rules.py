"""Shutdown entry/leaving predicates, the A4 trigger and UE transfer targets.

All predicates are pure functions; HandoverModel is immutable after build and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .datamodel import A4Params, MeasurementReport, NetworkConfig, ShutdownThresholds

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
    biased = (rsrp_dbm
              + a4.freq_offset_db.get(neighbor, 0.0)
              + a4.cell_offset_db.get(neighbor, 0.0)
              - a4.hysteresis_db)
    return biased > a4.threshold_dbm


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


def build_handover_model(cfg: NetworkConfig, mrs: Iterable[MeasurementReport],
                         hour: int) -> HandoverModel:
    """Estimate transfer probabilities for one hour from measurement reports.

    The caller supplies reports already filtered to the hour. Each report
    served by a capacity cell votes for its strongest A4-qualifying neighbour
    on the paired coverage frequency (ties broken towards the lowest cell id);
    votes are normalized per cell. Cells with no qualifying report get an
    empty map.
    """
    return HandoverModel(probabilities=_vote(cfg, {hour: mrs}, (hour,)))


def build_handover_model_for_hours(cfg: NetworkConfig,
                                   mrs: Iterable[MeasurementReport],
                                   ) -> HandoverModel:
    """Group reports by hour-of-day and build the per-hour models in one pass."""
    by_hour: dict[int, list[MeasurementReport]] = {}
    for report in mrs:
        by_hour.setdefault(report.hour, []).append(report)
    return HandoverModel(probabilities=_vote(cfg, by_hour, range(1, 25)))


def _vote(cfg: NetworkConfig,
          by_hour: Mapping[int, Iterable[MeasurementReport]],
          hours: Iterable[int]) -> dict[tuple[str, int], dict[str, float]]:
    """build_handover_model's table for each of `hours`, from by_hour[hour]."""
    candidates = {c: set(transfer_candidates(cfg, c))
                  for c in cfg.capacity_cells}
    table: dict[tuple[str, int], dict[str, float]] = {}
    for hour in hours:
        counts: dict[str, dict[str, int]] = {c: {} for c in candidates}
        for report in by_hour.get(hour, ()):
            serving = report.serving_cell
            if serving not in counts:
                continue
            a4, eligible = cfg.mobility[serving], candidates[serving]
            # strongest qualifying neighbour, the lowest id among equals
            qualifying = [(-rsrp, j)
                          for j, rsrp in report.neighbor_rsrp_dbm.items()
                          if j in eligible and a4_qualifies(rsrp, a4, j)]
            if qualifying:
                best = min(qualifying)[1]
                counts[serving][best] = counts[serving].get(best, 0) + 1
        for cell, votes in sorted(counts.items()):
            total = sum(votes.values())
            table[(cell, hour)] = {j: n / total
                                   for j, n in sorted(votes.items())}
    return table
