"""Stochastic agent-based carrier shutdown simulation and deterministic baseline.

Each Monte Carlo run draws hourly traffic for every cell, then walks the space
of shutdown configurations one cell flip at a time: eligibility rule checks,
margin-weighted agent selection (`_pick`, the one selection PMF), UE transfer
on shutdown, exact state restoration on reactivation. A run keeps every
capacity cell's candidacy and margin; a step re-checks only the acting cell
and the capacity cells paired with a cell whose counters it changed. On
request a run logs every movement, so that it can be replayed from its
initial draw; per-hour runs roll forward into the next hour.
A step works on Python scalars (list counters and network lookups, uniforms
read in blocks, list transfer tables) that repeat numpy's float operations in
numpy's order; numpy draws the traffic and weighs 8 or more candidates. A run
keeps the sorted list of its candidates, updated only when a cell's candidacy
flips, so no step scans the cells. Among 8 or more candidates it draws the
acting cell from running sums of a weight array (`_certified_pick`) when a
rounding-error bound proves that `_pick` draws the same cell, and calls
`_pick` otherwise. One function, `_shutdown`, draws and applies every
shutdown: a step's, a roll-in's and `transfer_users`'. With one target it
moves past the UEs' uniforms unread.

State bookkeeping uses a per-host contribution ledger: a host cell's counters
are always its own drawn base plus the contributions it currently hosts,
added in ledger order. A shutdown adds each move to its target's counters as
it appends the move to the target's ledger; a reactivation, which removes
contributions from the middle of ledgers, refolds each host from its base.
Removing a contribution therefore restores the exact prior value, which
makes shutdown/reactivate round trips bit-identical.

Runs within an hour are independent given the previous hour's configuration
pool and use per-(seed, hour, run) RNG streams; a RunState is owned by its run.
"""

from __future__ import annotations

import sys
from bisect import bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import accumulate
from operator import add
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .datamodel import (NetworkConfig, ShutdownThresholds, TrafficModel,
                        _read_keyed, _row_chunks, _write_columns, draw_inputs)
from .errors import EmptyCandidateSetError, InconsistentReplayError
from .rules import (PROBABILITY_SUM_TOL, HandoverModel, check_shutdown_entry,
                    check_wakeup)

HOURS = tuple(range(1, 25))
SHUTDOWN_MINUTES = 60.0
UNIFORM_BLOCK = 256  # uniforms a run draws from its generator at a time
# _certified_pick's decision gap per candidate, relative to the weights'
# total: 8 units of roundoff (2**-53), twice what the sums can drift apart
_PICK_GAP = 2.0 ** -50


@dataclass(frozen=True)
class AbmConfig:
    """Monte Carlo budget: runs per hour, step cap per run, master seed."""

    runs: int = 100
    max_steps: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


class SimNetwork:
    """Index arrays for one NetworkConfig, shared read-only by all runs."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self.cell_ids = tuple(c.id for c in cfg.cells)
        self.index = {cid: i for i, cid in enumerate(self.cell_ids)}
        self.n_cells = len(self.cell_ids)
        self.cap_ids = tuple(cid for cid in self.cell_ids
                             if cid in cfg.capacity_cells)
        self.cap_index = {cid: k for k, cid in enumerate(self.cap_ids)}
        self.n_cap = len(self.cap_ids)
        self.cap_global = np.array([self.index[c] for c in self.cap_ids],
                                   dtype=np.intp)
        self.paired_global = np.array(
            [self.index[cfg.pairing[c]] for c in self.cap_ids], dtype=np.intp)
        # the same two maps as lists, for a step's scalar lookups
        self.cap_cell = self.cap_global.tolist()
        self.paired_cell = self.paired_global.tolist()
        # per-capacity-cell threshold arrays under the ShutdownThresholds names
        self.th = SimpleNamespace(**{
            f.name: np.array([getattr(cfg.energy_saving[c], f.name)
                              for c in self.cap_ids])
            for f in fields(ShutdownThresholds)})
        self.n_dl_prb = np.array([c.n_dl_prb for c in cfg.cells], dtype=float)
        self.is_capacity = np.zeros(self.n_cells, dtype=bool)
        self.is_capacity[self.cap_global] = True
        self.cap_of_global = np.full(self.n_cells, -1, dtype=np.intp)
        self.cap_of_global[self.cap_global] = np.arange(self.n_cap)
        self.cap_th = tuple(cfg.energy_saving[c] for c in self.cap_ids)
        # per global cell: the capacity cells paired with it
        self.paired_caps = [(self.paired_global == g).nonzero()[0].tolist()
                            for g in range(self.n_cells)]


def _entry(net: SimNetwork, targets: list[int], probs: list[float]):
    """(targets, probs, cumulative PMF ending in 1.0, (slot, capacity index)
    of every capacity target)."""
    cum = list(accumulate(probs))
    cum[-1] = 1.0
    slots = tuple((s, int(net.cap_of_global[t]))
                  for s, t in enumerate(targets) if net.is_capacity[t])
    return targets, probs, cum, slots


def _handover_targets(net: SimNetwork, handover: HandoverModel, cid: str,
                      hour: int):
    """The transfer-table entry (see _entry) over the positive entries of
    `cid`'s handover PMF in cell-id order, or None if no feasible A4 target
    was observed for the hour."""
    items = sorted((j, p) for j, p in handover.targets(cid, hour).items()
                   if p > 0)
    if not items:
        return None
    total = sum(p for _, p in items)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise ValueError(f"handover PMF for {cid!r} at hour {hour} "
                         f"sums to {total!r}")
    return _entry(net, [net.index[j] for j, _ in items],
                  [float(p) for _, p in items])


def _live_targets(net: SimNetwork, x, entry):
    """`entry` without the capacity targets that configuration `x` has shut
    down (targets sharing the coverage frequency), renormalised; None when
    no target is left."""
    if entry is None or not entry[3]:
        return entry
    targets, probs, _, slots = entry
    dead = {s for s, k in slots if not x[k]}
    if not dead:
        return entry
    if len(dead) == len(targets):
        return None
    alive = [s for s in range(len(targets)) if s not in dead]
    total = float(np.sum([probs[s] for s in alive]))
    return _entry(net, [targets[s] for s in alive],
                  [probs[s] / total for s in alive])


def build_transfer_table(net: SimNetwork, handover: HandoverModel, hour: int):
    """Per capacity cell: its _handover_targets entry for the hour, cached on
    `handover` per (cells, capacity cells, hour); shared, so read-only."""
    cache = handover.__dict__.setdefault("_transfer_tables", {})
    key = (net.cell_ids, net.cap_ids, hour)
    if key not in cache:
        cache[key] = [_handover_targets(net, handover, cid, hour)
                      for cid in net.cap_ids]
    return cache[key]


@dataclass
class ReplayLog:
    """Initial drawn state of a run plus the ordered list of state mutations.

    Events are ("sd", step, cap_idx, moves) with moves a tuple of
    (origin_cap_idx, target_cell_idx, ue_count, dl_amount, ul_amount),
    or ("ac", step, cap_idx). Replaying them from the initial state
    reproduces the live RunState field for field. `events` is None when the
    run records none.
    """

    hour: int
    base_ue: np.ndarray
    base_dl: np.ndarray
    base_ul: np.ndarray
    events: list | None = field(default_factory=list)


class RunState:
    """Mutable per-run state: configuration vector, predicted counters,
    contribution ledger and replay log. Configuration and counters are
    lists; the frozen entry checks and margins are arrays. The ledger maps a
    cell to the contributions it hosts and gets a list at its first one;
    `origin_hosts` maps a capacity cell to the set of cells hosting its UEs
    and gets a set at its first move.
    The replay log shares the drawn base arrays, which nothing mutates, and
    records the events only when `record` is true."""

    __slots__ = ("net", "hour", "x", "ue", "dl", "ul", "t_cs",
                 "base_ue", "base_dl", "base_ul", "sd_frozen", "sd_margin",
                 "contribs", "origin_hosts", "replay")

    def __init__(self, net: SimNetwork, hour: int, base_ue, base_dl, base_ul,
                 record: bool = True):
        self.net = net
        self.hour = hour
        self.x = [True] * net.n_cap
        self.base_ue, self.base_dl, self.base_ul = (
            base_ue.tolist(), base_dl.tolist(), base_ul.tolist())
        self.ue, self.dl, self.ul = (
            list(self.base_ue), list(self.base_dl), list(self.base_ul))
        self.t_cs = [0.0] * net.n_cells
        cap, paired = net.cap_global, net.paired_global
        self.sd_frozen = check_shutdown_entry(
            base_ue[cap], base_dl[cap], base_dl[paired], base_ul[cap],
            base_ul[paired], net.th)
        self.sd_margin = net.th.entry_dl_prb - (base_dl[cap] + base_dl[paired])
        self.contribs: dict[int, list] = defaultdict(list)
        self.origin_hosts: dict[int, set] = defaultdict(set)
        self.replay = ReplayLog(hour, base_ue, base_dl, base_ul,
                                [] if record else None)

    def fingerprint(self) -> tuple:
        """Byte-exact summary of the observable state."""
        return tuple(np.array(v).tobytes()
                     for v in (self.x, self.ue, self.dl, self.ul, self.t_cs))

    def totals(self) -> tuple[float, float, float]:
        return tuple(float(np.sum(v)) for v in (self.ue, self.dl, self.ul))

    def _refold(self, g: int) -> None:
        ue, dl, ul = self.base_ue[g], self.base_dl[g], self.base_ul[g]
        for _, n, dla, ula in self.contribs.get(g, ()):
            ue += n
            dl += dla
            ul += ula
        if ue < 0 or dl < 0 or ul < 0:
            raise InconsistentReplayError(
                f"cell index {g} went negative during restore")
        self.ue[g], self.dl[g], self.ul[g] = ue, dl, ul


def _new_state(net: SimNetwork, tm: TrafficModel, hour: int,
               rng: np.random.Generator, record: bool = True) -> RunState:
    draw = draw_inputs(tm, hour, rng, cfg=net.cfg)[tm.rows(net.cell_ids)]
    return RunState(net, hour, *draw.T.copy(), record)


class _Uniforms:
    """A run's uniforms, read in order from lists of `rng.random(block)`:
    PCG64 yields the same doubles for one call of n as for n calls of one,
    so only where `rng` ends (up to a block further on) depends on `block`."""

    def __init__(self, rng: np.random.Generator, block: int = UNIFORM_BLOCK):
        self.random, self.block, self.buf, self.pos = rng.random, block, [], 0

    def take(self, n: int) -> list[float]:
        self.skip(n)
        return self.buf[self.pos - n:self.pos]

    def next(self) -> float:
        self.skip(1)
        return self.buf[self.pos - 1]

    def skip(self, n: int) -> None:
        """Move past the next n uniforms unread, drawing blocks as needed."""
        while self.pos + n > len(self.buf):
            self.buf = self.buf[self.pos:] + self.random(self.block).tolist()
            self.pos = 0
        self.pos += n


# ---------------------------------------------------------------------------
# Core mutations


def _shutdown(state: RunState, a: int, entry, uniforms: _Uniforms,
              step: int) -> set[int] | None:
    """Shut down capacity cell `a`, handing its UEs to targets drawn from its
    transfer-table entry, one uniform per UE, grouped by origin (its own UEs,
    then the foreign ones it hosts, in ledger order). Returns the cells that
    received UEs.

    Returns None (state untouched) when no feasible target exists, i.e. the
    shutdown attempt is abandoned.
    """
    if entry is None:
        return None
    if entry[3]:  # only capacity targets can be shut down
        entry = _live_targets(state.net, state.x, entry)
        if entry is None:
            return None
    targets, _, cum, _ = entry
    g = state.net.cap_cell[a]
    n_ue = round(state.ue[g])
    if n_ue == 0:
        return _apply_shutdown(state, a, [], step)
    m_dl, m_ul = state.dl[g] / n_ue, state.ul[g] / n_ue
    groups = [(a, round(state.base_ue[g]))]
    hosted = state.contribs.get(g)
    if hosted:
        groups += [(origin, n) for origin, n, _, _ in hosted]
    last = len(targets) - 1
    moves = []
    if not last:  # every UE goes to the one target: its uniforms go unread
        t = targets[0]
        for origin, n in groups:
            uniforms.skip(n)
            if n:
                moves.append((origin, t, n, n * m_dl, n * m_ul))
        return _apply_shutdown(state, a, moves, step)
    for origin, count in groups:
        counts = [0] * len(targets)
        # searchsorted(side="right"), clamped to the last slot
        for v in uniforms.take(count):
            counts[bisect_right(cum, v, 0, last)] += 1
        moves += [(origin, targets[slot], n, n * m_dl, n * m_ul)
                  for slot, n in enumerate(counts) if n]
    return _apply_shutdown(state, a, moves, step)


def _apply_shutdown(state: RunState, a: int, moves, step: int) -> set[int]:
    """Log drawn moves in the ledger, adding each to its target's counters,
    and shut `a` down; returns the target cells."""
    g = state.net.cap_cell[a]
    contribs, origin_hosts = state.contribs, state.origin_hosts
    ue, dl, ul = state.ue, state.dl, state.ul
    touched = set()
    for origin, target, n, dla, ula in moves:
        # the last additions a refold of the target's ledger would make
        contribs[target].append((origin, n, dla, ula))
        ue[target] += n
        dl[target] += dla
        ul[target] += ula
        origin_hosts[origin].add(target)
        touched.add(target)
    # every UE left, including previously received foreign ones
    hosted = contribs.pop(g, None)
    if hosted:
        for origin, _, _, _ in hosted:
            origin_hosts[origin].discard(g)
    state.ue[g] = state.dl[g] = state.ul[g] = 0.0
    state.t_cs[g] = SHUTDOWN_MINUTES
    state.x[a] = False
    if state.replay.events is not None:
        state.replay.events.append(("sd", step, a, tuple(moves)))
    touched.discard(g)  # a cell listed as its own target keeps nothing
    return touched


def _reactivate(state: RunState, a: int, step: int) -> Iterable[int]:
    """Bring `a` back; returns the cells that hosted its UEs."""
    g = state.net.cap_cell[a]
    hosts = state.origin_hosts.pop(a, ())
    for h in hosts:
        state.contribs[h] = [e for e in state.contribs[h] if e[0] != a]
        state._refold(h)
    state.x[a] = True
    state.t_cs[g] = 0.0
    state._refold(g)
    if state.replay.events is not None:
        state.replay.events.append(("ac", step, a))
    return hosts


def _eligible_masks(state: RunState) -> tuple[np.ndarray, np.ndarray]:
    paired = state.net.paired_global
    x = np.array(state.x)
    ue, dl, ul = (np.array(v)[paired] for v in (state.ue, state.dl, state.ul))
    return x & state.sd_frozen, ~x & check_wakeup(ue, dl, ul, state.net.th)


class _Candidates:
    """A run's selection state: per capacity cell its candidacy (a list), the
    sorted list of candidates, and `w`, an array of the candidates' margins
    clamped at zero and 0.0 off the candidates; also each cell's frozen
    shutdown candidacy and margin, as lists."""

    __slots__ = ("cand", "idx", "w", "frozen", "margin")

    def __init__(self, state: RunState):
        # an active cell's candidacy and margin are its frozen ones, a shut
        # down cell's its wake-up ones on its paired cell's counters
        net, frozen, margin = state.net, state.sd_frozen, state.sd_margin
        self.frozen, self.margin = frozen.tolist(), margin.tolist()
        x = np.array(state.x, dtype=bool)
        ue, dl, ul = (np.array(v, dtype=float)[net.paired_global]
                      for v in (state.ue, state.dl, state.ul))
        cand = np.where(x, frozen, check_wakeup(ue, dl, ul, net.th))
        m = np.where(x, margin, dl - net.th.leave_dl_prb)
        self.cand = cand.tolist()
        self.idx = np.flatnonzero(cand).tolist()
        self.w = np.where(cand & (m > 0.0), m, 0.0)

    def set(self, k: int, cand: bool, margin: float) -> None:
        if cand != self.cand[k]:
            self.cand[k] = cand
            if cand:
                insort(self.idx, k)
            else:
                self.idx.remove(k)
        self.w[k] = margin if cand and margin > 0.0 else 0.0


def _refresh(state: RunState, a: int, touched, sel: _Candidates) -> None:
    """Re-evaluate `a` and every shut-down capacity cell paired with a
    `touched` cell: pairings point at coverage cells, and an active cell's
    candidacy and margin are its frozen ones, so no other cell changed. The
    candidate list changes only where a cell's candidacy flips."""
    net, x = state.net, state.x
    if x[a]:
        sel.set(a, sel.frozen[a], sel.margin[a])
    ks = [a]
    for h in touched:
        ks += net.paired_caps[h]
    for k in ks:
        if not x[k]:
            p, th = net.paired_cell[k], net.cap_th[k]
            dl = state.dl[p]
            sel.set(k, check_wakeup(state.ue[p], dl, state.ul[p], th),
                    dl - th.leave_dl_prb)


def _pick(margins, u: float) -> int:
    """Position that uniform `u` draws from the margin-weighted PMF: negative
    margins are clamped to zero and an all-zero total falls back to a uniform
    choice. Below 8 margins a loop repeats numpy's arithmetic."""
    n = len(margins)
    if n == 1:
        return 0
    if n >= 8:  # add.reduce and add.accumulate are what sum and cumsum run
        weights = np.maximum(margins, 0.0)
        total = np.add.reduce(weights)
        if total <= 0.0:
            cum = np.arange(1, n + 1) / n
        else:
            weights /= total
            cum = np.add.accumulate(weights, out=weights)
        cum[-1] = 1.0
        return min(int(cum.searchsorted(u, side="right")), n - 1)
    if not isinstance(margins, list):
        margins = np.asarray(margins).tolist()
    weights = [m if m > 0.0 else 0.0 for m in margins]
    total = reduce(add, weights)  # numpy too adds < 8 terms left to right
    if total <= 0.0:
        cum = [(i + 1) / n for i in range(n - 1)]
    else:
        cum = accumulate(w / total for w in weights[:-1])
    for i, c in enumerate(cum):
        if u < c:
            return i
    return n - 1


def _certified_pick(w: np.ndarray, n: int, u: float) -> int | None:
    """The index `_pick` draws with `u` from the margins of the n candidates
    whose clamped margins are the nonzero entries of `w`, or None when the
    running sums cannot tell.

    Adding exact zeros changes no sum, so each candidate's running sum in
    `q = add.accumulate(w)` is the sequential sum of the compact weights.
    `_pick` compares `u` with the cumulative sums of the weights divided by
    their total; here `u * q[-1]` is compared with `q`. Sums of k
    nonnegative terms, in any order, are within (k - 1) units of roundoff of
    their real value relative to it (Higham, "The accuracy of floating point
    summation", 1993), so both sides sit within about 4n units, relative to
    the total, of the same real comparison. When `u * q[-1]` is more than
    n * _PICK_GAP (8n units) of the total from both neighbouring running sums,
    both sides draw the same cell. The first sum above it belongs to a
    candidate of positive weight and is at most `q[-1]`, so the check also
    covers `_pick`'s forced last entry of 1.0. A gap below the smallest
    normal double (an all-zero or subnormal total) is never trusted.
    """
    q = np.add.accumulate(w)
    total = q.item(-1)
    gap = _PICK_GAP * n * total
    if gap < sys.float_info.min:
        return None
    v = u * total
    p = int(q.searchsorted(v, side="right"))
    if (p < len(q) and q.item(p) - v > gap
            and (p == 0 or v - q.item(p - 1) > gap)):
        return p
    return None


def replay_log(log: ReplayLog, net: SimNetwork) -> RunState:
    """Rebuild the RunState a log describes by reapplying every event."""
    if log.events is None:
        raise ValueError("the run recorded no replay events")
    state = RunState(net, log.hour, log.base_ue, log.base_dl, log.base_ul)
    for event in list(log.events):
        if event[0] == "sd":
            _, step, a, moves = event
            _apply_shutdown(state, a, moves, step)
        else:
            _, step, a = event
            _reactivate(state, a, step)
    return state


# ---------------------------------------------------------------------------
# Public operations (cell-id facade over the index-based core)


def eligible_sets(state: RunState) -> tuple[set[str], set[str]]:
    """Capacity cells currently allowed to shut down / to be reactivated."""
    sd, ac = _eligible_masks(state)
    ids = state.net.cap_ids
    return ({ids[k] for k in np.flatnonzero(sd)},
            {ids[k] for k in np.flatnonzero(ac)})


def select_agent(to_shutdown: Iterable[str], to_wakeup: Iterable[str],
                 loads: Mapping[str, float], thresholds: Mapping,
                 rng: np.random.Generator) -> str:
    """Pick the acting cell from the margin-weighted PMF.

    `loads` holds, per shutdown candidate, the combined drawn DL PRBs of the
    cell and its paired coverage cell; per wakeup candidate, the paired
    coverage cell's current DL PRBs. Negative margins are clamped to zero and
    an all-zero total falls back to a uniform choice.
    """
    entries = [(c, thresholds[c].entry_dl_prb - loads[c])
               for c in sorted(to_shutdown)]
    entries += [(c, loads[c] - thresholds[c].leave_dl_prb)
                for c in sorted(to_wakeup)]
    if not entries:
        raise EmptyCandidateSetError("no candidate cells")
    return entries[_pick([w for _, w in entries], rng.random())][0]


def transfer_users(cell_id: str, state: RunState, handover: HandoverModel,
                   hour: int, rng: np.random.Generator) -> bool:
    """Shut down `cell_id`, transferring its UEs per the handover PMF.

    Returns False and leaves the state untouched when every transfer
    probability is zero (the shutdown is abandoned, not an error).
    """
    a = state.net.cap_index[cell_id]
    if not state.x[a]:
        raise ValueError(f"{cell_id!r} is already shut down")
    return _shutdown(state, a,
                     _handover_targets(state.net, handover, cell_id, hour),
                     _Uniforms(rng, block=1), _next_step(state)) is not None


def reactivate(cell_id: str, state: RunState) -> RunState:
    """Restore `cell_id` to its drawn initial state, reclaiming its UEs and
    PRBs from the cells currently hosting them."""
    a = state.net.cap_index[cell_id]
    if state.x[a]:
        raise ValueError(f"{cell_id!r} is not shut down")
    _reactivate(state, a, _next_step(state))
    return state


def _next_step(state: RunState) -> int:
    """The step number of a state's next single move: one past its logged
    events (its step is logged with it, so unused when nothing is)."""
    return len(state.replay.events or ()) + 1


@dataclass(frozen=True)
class RunResult:
    state: RunState
    steps: int
    stable: bool


def _coerce_start(net: SimNetwork, starting_x) -> np.ndarray:
    if starting_x is None:
        return np.ones(net.n_cap, dtype=bool)
    arr = np.asarray(starting_x, dtype=bool)
    if arr.shape != (net.n_cap,):
        raise ValueError("starting configuration has wrong length")
    return arr


def run_monte_carlo(tm: TrafficModel, cfg: NetworkConfig,
                    handover: HandoverModel, abm_cfg: AbmConfig,
                    starting_x, hour: int, rng: np.random.Generator,
                    on_step: Callable[[RunState, int], None] | None = None,
                    _net: SimNetwork | None = None,
                    _table=None, record: bool = False) -> RunResult:
    """One Monte Carlo run: draw traffic, roll to the starting configuration,
    then iterate rule checks / selection / transfer until stable or capped.

    The roll-in replays the shutdown path from all-active to `starting_x`
    (ascending cell order, UE transfers included) without rule checks or
    agent randomness. After the traffic draw the run reads its uniforms from
    `rng` in blocks of UNIFORM_BLOCK, so `rng` may end up to one block
    further on than used. With `record` the run logs its events in
    `state.replay` (see ReplayLog); else the log holds only the drawn base.

    A step reads its candidates from the run's sorted candidate list
    (`_Candidates`), which `_refresh` keeps. One candidate is taken without
    reading its uniform, 2 to 7 go through `_pick`, and 8 or more through
    `_certified_pick` on the weight array, with `_pick` on the candidates'
    clamped margins (their weights) whenever the running sums cannot decide.
    """
    net = _net if _net is not None else SimNetwork(cfg)
    table = _table if _table is not None else build_transfer_table(
        net, handover, hour)
    start = _coerce_start(net, starting_x)
    state = _new_state(net, tm, hour, rng, record)
    uniforms = _Uniforms(rng)
    for a in (~start).nonzero()[0].tolist():
        _shutdown(state, a, table[a], uniforms, step=0)
    sel = _Candidates(state)
    x, idx, w = state.x, sel.idx, sel.w
    for t in range(1, abm_cfg.max_steps + 1):
        n = len(idx)
        if not n:
            return RunResult(state, t, True)
        if n == 1:
            uniforms.skip(1)
            a = idx[0]
        else:
            u = uniforms.next()
            a = _certified_pick(w, n, u) if n >= 8 else None
            if a is None:
                a = idx[_pick([w.item(k) for k in idx], u)]
        if x[a]:
            touched = _shutdown(state, a, table[a], uniforms, step=t)
        else:
            touched = _reactivate(state, a, step=t)
        if touched is not None:
            _refresh(state, a, touched, sel)
        if on_step is not None:
            on_step(state, t)
    return RunResult(state, abm_cfg.max_steps, False)


@dataclass(frozen=True)
class HourlyOutputs:
    """Empirical per-cell distributions over the R runs of one hour."""

    hour: int
    cells: tuple[str, ...]
    ues: np.ndarray          # shape (runs, n_cells)
    dl_prbs: np.ndarray
    cs_minutes: np.ndarray
    ul_prbs: np.ndarray

    @property
    def runs(self) -> int:
        return self.ues.shape[0]

    @property
    def mean_ues(self) -> np.ndarray:
        return self.ues.mean(axis=0)

    @property
    def mean_cs_minutes(self) -> np.ndarray:
        return self.cs_minutes.mean(axis=0)


def _run_rng(seed: int, hour: int, run: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(hour, run)))


def simulate_day(tm: TrafficModel, cfg: NetworkConfig,
                 handover: HandoverModel, abm_cfg: AbmConfig,
                 on_step: Callable[[RunState, int], None] | None = None,
                 ) -> list[HourlyOutputs]:
    """Run the full 24-hour simulation.

    Hour 1 starts every run from the all-active configuration; each run of a
    later hour starts from a uniformly drawn final configuration of the
    previous hour, reached by replaying the shutdown path with fresh draws.
    """
    net = SimNetwork(cfg)
    outputs = []
    pool: list[list[bool]] | None = None
    for hour in HOURS:
        table = build_transfer_table(net, handover, hour)
        finals, next_pool = [], []
        for run in range(abm_cfg.runs):
            rng = _run_rng(abm_cfg.seed, hour, run)
            start = None if pool is None else pool[int(rng.integers(len(pool)))]
            state = run_monte_carlo(tm, cfg, handover, abm_cfg, start, hour,
                                    rng, on_step=on_step, _net=net,
                                    _table=table).state
            finals.append((state.ue, state.dl, state.ul, state.t_cs))
            next_pool.append(state.x)
        ues, dls, uls, css = (np.array(kpi) for kpi in zip(*finals))
        outputs.append(HourlyOutputs(hour=hour, cells=net.cell_ids,
                                     ues=ues, dl_prbs=dls, cs_minutes=css,
                                     ul_prbs=uls))
        pool = next_pool
    return outputs


# ---------------------------------------------------------------------------
# Deterministic expert baseline


def run_benchmark(tm: TrafficModel, cfg: NetworkConfig,
                  handover: HandoverModel) -> list[HourlyOutputs]:
    """One-pass deterministic estimate per hour, as one-run HourlyOutputs.

    Every hour starts all-active from the Gaussian means. Capacity cells are
    visited in descending entry-margin order; each cell that satisfies the
    entry rule on the evolving means is shut down with expected-value
    (fractional) UE/PRB movement proportional to the handover PMF, renormalised
    over the targets still active; with none left it stays active. No RNG is
    consumed, so repeated calls are bit-identical.
    """
    net = SimNetwork(cfg)
    cap, paired = net.cap_global, net.paired_global
    rows = tm.rows(net.cell_ids)
    outputs = []
    for hour in HOURS:
        ue, dl, ul = tm.mean[hour - 1, rows].T.copy()
        np.clip(dl, 0.0, net.n_dl_prb, out=dl)
        cs = np.zeros(net.n_cells)
        x = np.ones(net.n_cap, dtype=bool)
        margins = net.th.entry_dl_prb - (dl[cap] + dl[paired])
        for a in np.argsort(-margins, kind="stable"):
            g, p, cid = cap[a], paired[a], net.cap_ids[a]
            if not check_shutdown_entry(ue[g], dl[g], dl[p], ul[g], ul[p],
                                        cfg.energy_saving[cid]):
                continue
            entry = _live_targets(net, x, _handover_targets(net, handover,
                                                            cid, hour))
            if entry is None:
                continue
            targets, q = entry[0], np.array(entry[1])
            ue[targets] += ue[g] * q
            dl[targets] += dl[g] * q
            ul[targets] += ul[g] * q
            ue[g] = dl[g] = ul[g] = 0.0
            cs[g] = SHUTDOWN_MINUTES
            x[a] = False
        outputs.append(HourlyOutputs(hour=hour, cells=net.cell_ids,
                                     ues=ue[None], dl_prbs=dl[None],
                                     cs_minutes=cs[None], ul_prbs=ul[None]))
    return outputs


# ---------------------------------------------------------------------------
# Report files


_MEAN_COLUMNS = ["cell_id", "hour", "ue_mean", "ue_std", "dl_prb_mean",
                 "dl_prb_std", "dl_load_mean", "cs_min_mean", "cs_min_std"]


def _hour_means(out: HourlyOutputs, cfg: NetworkConfig) -> list[np.ndarray]:
    """Each cell's ue, dl_prbs, dl_load and cs_minutes mean over the runs."""
    ue, dl, cs = (a.mean(axis=0) for a in (out.ues, out.dl_prbs,
                                           out.cs_minutes))
    return [ue, dl, dl / cfg._prb_capacity(out.cells)[:, 0], cs]


def mean_tables(outputs: Sequence[HourlyOutputs], cfg: NetworkConfig,
                ) -> dict[str, dict[tuple[str, int], float]]:
    """Per-cell hourly means as {kpi: {(cell, hour): value}} tables (ue,
    dl_prbs, dl_load, cs_minutes): the values write_hourly_report writes and
    read_mean_report reads back."""
    tables: dict[str, dict[tuple[str, int], float]] = {
        "ue": {}, "dl_prbs": {}, "dl_load": {}, "cs_minutes": {}}
    for out in outputs:
        keys = [(cell, out.hour) for cell in out.cells]
        for table, means in zip(tables.values(), _hour_means(out, cfg)):
            table.update(zip(keys, means.tolist()))
    return tables


def write_hourly_report(path, outputs: Sequence[HourlyOutputs],
                        cfg: NetworkConfig) -> None:
    """Per-cell hourly means and stds (population std over the R runs)."""
    def chunks():
        for out in outputs:
            ue, dl, load, cs = _hour_means(out, cfg)
            values = np.column_stack([ue, out.ues.std(axis=0), dl,
                                      out.dl_prbs.std(axis=0), load, cs,
                                      out.cs_minutes.std(axis=0)])
            hours = np.full(len(out.cells), out.hour)
            for s in _row_chunks(len(out.cells)):
                yield list(out.cells[s]), hours[s], values[s]

    _write_columns(path, _MEAN_COLUMNS, chunks())


def write_run_dump(path, outputs: Sequence[HourlyOutputs]) -> None:
    """Raw per-run values for distribution inspection: a row per hour, run
    and cell, each value written as the repr of its float."""
    def chunks():
        for out in outputs:
            cells = list(out.cells) * out.runs
            values = np.stack([out.ues, out.dl_prbs, out.cs_minutes],
                              axis=-1, dtype=float).reshape(-1, 3)
            for s in _row_chunks(len(cells)):
                rows = np.arange(s.start, s.stop)
                yield (np.full(len(rows), out.hour), rows // len(out.cells),
                       cells[s], values[s])

    _write_columns(path, ["hour", "run", "cell_id", "ues", "dl_prbs",
                          "cs_minutes"], chunks())


def read_mean_report(path) -> dict[str, dict[tuple[str, int], float]]:
    """Read a report written by write_hourly_report into
    {kpi: {(cell, hour): value}} tables (ue, dl_prbs, dl_load, cs_minutes)."""
    rows = _read_keyed(path, [c for c in _MEAN_COLUMNS if "std" not in c],
                       (str, int) + (float,) * 4, 2)
    return {kpi: {key: values[k] for key, values in rows.items()}
            for k, kpi in enumerate(("ue", "dl_prbs", "dl_load", "cs_minutes"))}
