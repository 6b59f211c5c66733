"""Per-cell UE downlink rate models: mean and 5%-tile rate as functions of
DL PRB load and RRC-connected UE count.

High-load behaviour (load >= 0.1) is captured by gradient-boosted
regression trees (squared-error loss, stage-wise fit on residuals, 500 trees
of depth 4 with shrinkage 0.01). Over two features an ensemble is constant
on each cell of the grid its distinct split thresholds make, so training
compiles it into that grid's exact lookup table (RateGrid) and keeps no
trees: prediction, the saved bundle and loading see only grids. Low-load
rates are too traffic-dependent to regress, so they are modelled as a
random variable with an empirical PMF (1 Mbps histogram bins, uniform
within a bin) learned from the low-load rows.

Ground-truth targets come from standard counters: the mean rate from the
RLC volume/time counters, the 5%-tile from the per-range sample counters.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datamodel import N_RATE_BINS, HourlyRows, NetworkConfig
from .errors import (
    CorruptModelError,
    EmptyCountersError,
    UnknownCellError,
    UnsupportedVersionError,
    ZeroActiveTimeError,
)

LOW_LOAD_CUTOFF = 0.1
PMF_BIN_MBPS = 1.0
_SPLIT_GAIN_EPS = 1e-12
_LOCKSTEP_ENSEMBLES = 256     # ensembles grown together; bounds the arrays
_COMPILE_ENSEMBLES = 16       # ensembles compiled together
_COMPILE_TREES = 50           # trees of them at a time; bounds the arrays
_BUNDLE_VERSION = 3


# 0, then geometrically spaced edges from 0.5 to 300 Mbps: one bin per
# rate-bin counter of a KPI row
DEFAULT_BIN_EDGES = (0.0, *np.geomspace(0.5, 300.0, N_RATE_BINS).tolist())


# ---------------------------------------------------------------------------
# Ground-truth extraction from counters


def avg_rate_from_kpis(kpis: HourlyRows) -> np.ndarray:
    """Each row's mean UE DL rate in Mbps: bits outside buffer-emptying
    slots over the matching transmit time."""
    active_time = kpis.column("dl_active_time_s")
    if (active_time <= 0).any():
        i = int(np.argmax(active_time <= 0))
        raise ZeroActiveTimeError(f"cell {kpis.ids[i]} day {kpis.day[i]} "
                                  f"hour {kpis.hour[i]}: zero active time")
    return ((kpis.column("dl_bits") - kpis.column("dl_bits_lastslot"))
            / active_time / 1e6)


def p5_rate_from_bins(counters: Sequence[float],
                      edges: Sequence[float] = DEFAULT_BIN_EDGES) -> float:
    """Rate at the 5% cumulative fraction, linear within the containing bin."""
    if len(counters) != len(edges) - 1:
        raise ValueError(f"{len(counters)} counters need {len(counters) + 1} "
                         f"edges, got {len(edges)}")
    total = math.fsum(counters)
    if total <= 0:
        raise EmptyCountersError("all rate-bin counters are zero")
    target = 0.05 * total
    cum = 0.0
    for g, count in enumerate(counters):
        if cum + count >= target and count > 0:
            frac = (target - cum) / count
            return edges[g] + (edges[g + 1] - edges[g]) * frac
        cum += count
    return float(edges[-1])


# ---------------------------------------------------------------------------
# Regression trees and boosting


def _walk(feature: np.ndarray, threshold: np.ndarray, X) -> np.ndarray:
    """Bottom slot per (tree, row), with one vectorised gather per level on
    the flat arrays; a pass-through (feature -1) reads the last feature."""
    T, inner = feature.shape
    first = np.arange(T)[:, None] * inner         # each tree's flat offset
    row, x = np.arange(len(X)) * X.shape[1], X.ravel()
    feature, threshold = feature.ravel() % X.shape[1], threshold.ravel()
    node = np.zeros((T, len(X)), dtype=np.intp)
    for _ in range(inner.bit_length()):
        at = first + node
        left = x.take(row + feature.take(at)) <= threshold.take(at)
        node = 2 * node + 2 - left
    return node


class RegressionTree:
    """Exact-split CART regression tree; x <= threshold goes left.

    Depth d is a heap of 2^(d+1)-1 slots, slot i's children at 2i+1 and
    2i+2: split feature and threshold on the 2^d-1 inner slots, mean residual
    on every slot. A node that stops splitting early is a pass-through
    (feature -1, threshold +inf) whose value is copied to every slot below
    it, so each row walks exactly d levels. `fit` fills `arrays` in place
    when given, e.g. views of one row of an ensemble's stacked arrays."""

    def __init__(self, max_depth: int, arrays=None):
        inner = 2 ** max_depth - 1
        self.max_depth = max_depth
        self.feature, self.threshold, self.value = arrays or (
            np.empty(inner, dtype=np.intp), np.empty(inner),
            np.empty(2 * inner + 1))

    def fit(self, X: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Grow the tree on residuals `r`; return each row's leaf value."""
        return _Presorted([np.asarray(X, dtype=float)]).grow(
            np.asarray(r, dtype=float)[None], self.feature[None],
            self.threshold[None], self.value[None])[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[_walk(self.feature[None], self.threshold[None],
                                np.asarray(X, dtype=float))[0]]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature >= 0)) + 1


class _Presorted:
    """The training rows of a batch of trees that grow together, one depth
    level at a time: tree i on ensemble i's rows X_i.

    Rows are padded to the batch's longest, N. Each ensemble's stable order
    by every feature is computed once, because X is the same for all its
    trees: as flat row indices (E, F, N) with the padding last, with the
    sorted values and, per sorted position, the last position of its run of
    equal values.

    A level's split search runs over padded (E, K nodes, F, N) arrays. A
    node's prefix sums of residuals in feature order are one cumsum with the
    other rows' residuals set to zero, which adds exact zeros and so gives
    the bits of a cumsum over the node's own sorted rows. A candidate cut is
    the last member of a run of equal values that has a member after it;
    the threshold is the midpoint to that next member. The first best cut
    wins within a feature, the lower feature index between features, and a
    split needs a gain above _SPLIT_GAIN_EPS."""

    def __init__(self, Xs: Sequence[np.ndarray]):
        self.n = np.array([len(X) for X in Xs])
        E, N, F = len(Xs), int(self.n.max()), Xs[0].shape[1]
        self.shape = E, N, F
        self.ens, self.col = np.arange(E)[:, None], np.arange(N)
        self.x = np.zeros((E, F, N))
        order = np.broadcast_to(self.col, (E, F, N)).copy()
        for e, X in enumerate(Xs):
            self.x[e, :, :len(X)] = X.T
            order[e, :, :len(X)] = np.argsort(X, axis=0, kind="stable").T
        self.order = order + N * self.ens[:, None]
        self.xs = self.x.ravel()[
            (self.ens * F + np.arange(F))[..., None] * N + order]
        last = np.ones((E, F, N), dtype=bool)
        last[..., :-1] = self.xs[..., 1:] != self.xs[..., :-1]
        self.run_end = np.minimum.accumulate(
            np.where(last, self.col, N)[..., ::-1], axis=-1)[..., ::-1]
        self._run_end_at = {}

    def grow(self, R: np.ndarray, feature: np.ndarray, threshold: np.ndarray,
             value: np.ndarray) -> np.ndarray:
        """Grow one tree per ensemble on residuals R (E, N) into the heap
        arrays `feature`/`threshold` (E, inner slots) and `value` (E, slots);
        return each row's leaf value (E, N)."""
        E, N, F = self.shape
        max_depth = feature.shape[1].bit_length()
        feature[:], threshold[:] = -1, np.inf
        live = self.col < self.n[:, None]          # rows of splitting nodes
        slot = np.zeros((E, N), dtype=np.intp)
        r_sorted = R.ravel()[self.order]
        for depth in range(max_depth + 1):
            first, K = 2 ** depth - 1, 2 ** depth
            node = np.where(live, slot - first, -1)
            count, total = self._totals(R, node, K)
            np.divide(total, count, out=value[:, first:first + K],
                      where=count > 0)
            if depth == max_depth:
                break
            f, thr, split = self._best_splits(r_sorted, node, count, total)
            feature[:, first:first + K][split] = f[split]
            threshold[:, first:first + K][split] = thr[split]
            at = self.ens * K + np.maximum(node, 0)
            live &= split.ravel()[at]
            x = self.x.ravel()[(self.ens * F + f.ravel()[at]) * N + self.col]
            right = x > thr.ravel()[at]
            slot = np.where(live, 2 * slot + 1 + right, slot)
        for depth in range(max_depth):             # pass-through values
            first, K = 2 ** depth - 1, 2 ** depth
            stopped = feature[:, first:first + K] < 0
            for child in (2 * first + 1, 2 * first + 2):
                np.copyto(value[:, child:child + 2 * K:2],
                          value[:, first:first + K], where=stopped)
        return value[self.ens, slot]

    def _totals(self, R, node, K):
        """Row count and residual sum per (ensemble, node < K).

        Each sum is one numpy sum over the node's rows in ascending row
        order, the order a recursive grower takes them in, so numpy's
        pairwise summation rounds it the same way."""
        E = len(R)
        key = np.where(node >= 0, node + K * self.ens, E * K).ravel()
        count = np.bincount(key, minlength=E * K + 1)[:-1]
        rows = R.ravel()[key.argsort(kind="stable")]
        ends = count.cumsum()
        nodes = count.nonzero()[0]
        total = np.zeros(E * K)
        total[nodes] = [np.add.reduce(rows[a:b]) for a, b in
                        zip((ends - count)[nodes].tolist(),
                            ends[nodes].tolist())]
        return count.reshape(E, K), total.reshape(E, K)

    def _best_splits(self, r_sorted, node, count, total):
        """(feature, threshold, whether to split) per (ensemble, node)."""
        E, N, F = self.shape
        K = count.shape[1]
        if K not in self._run_end_at:
            self._run_end_at[K] = (
                ((self.ens * K + np.arange(K))[..., None] * F + np.arange(F))
                [..., None] * N + self.run_end[:, None])
        member = node.ravel()[self.order][:, None] == np.arange(K)[:, None,
                                                                   None]
        left_sum = np.where(member, r_sorted[:, None], 0.0).cumsum(-1)
        left_n = member.cumsum(-1)
        n = count[:, :, None, None]
        cut = (member & (left_n < n)
               & (left_n == left_n.ravel()[self._run_end_at[K]]))
        right_sum = total[:, :, None, None] - left_sum
        score = np.where(cut, left_sum ** 2 / np.maximum(left_n, 1)
                         + right_sum ** 2 / np.maximum(n - left_n, 1),
                         -np.inf)
        gain = score.max(-1) - (total * total / np.maximum(count, 1))[..., None]
        f = gain.argmax(-1)
        at = (self.ens * K + np.arange(K)) * F + f
        p = score.argmax(-1).ravel()[at]
        seen = left_n.reshape(-1, N)[at]
        q = (seen > left_n.ravel()[at * N + p][..., None]).argmax(-1)
        row = (self.ens * F + f) * N
        xs = self.xs.ravel()
        return (f, (xs[row + p] + xs[row + q]) / 2.0,
                gain.max(-1) > _SPLIT_GAIN_EPS)


@dataclass
class BoostedEnsemble:
    """Stage-wise additive model: mean initial estimate plus shrunken trees,
    stacked as (trees, slots) heap-layout arrays (see RegressionTree)."""

    init_value: float
    learning_rate: float
    feature: np.ndarray = field(default_factory=lambda: np.empty((0, 0), int))
    threshold: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    value: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))

    @property
    def trees(self) -> list[RegressionTree]:
        """One tree per row of the stacked arrays, viewing that row."""
        depth = self.feature.shape[1].bit_length()    # 2^depth-1 inner slots
        return [RegressionTree(depth, arrays) for arrays in
                zip(self.feature, self.threshold, self.value)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        leaves = np.take_along_axis(
            self.value, _walk(self.feature, self.threshold, X), axis=1)
        out = np.full(len(X), self.init_value)
        # tree by tree in fit order: the boosting loop's additions, in order
        for leaf in leaves:
            out += self.learning_rate * leaf
        return out


@dataclass(frozen=True)
class RateHyper:
    n_estimators: int = 500
    max_depth: int = 4
    learning_rate: float = 0.01


def fit_boosted(X: np.ndarray, y: np.ndarray,
                hyper: RateHyper = RateHyper()) -> BoostedEnsemble:
    """`fit_boosted_many` of one training set."""
    return fit_boosted_many([(X, y)], hyper)[0]


def fit_boosted_many(data: Sequence[tuple[np.ndarray, np.ndarray]],
                     hyper: RateHyper = RateHyper()) -> list[BoostedEnsemble]:
    """One ensemble per (X, y) training set. The sets are fitted in lockstep,
    _LOCKSTEP_ENSEMBLES at a time: tree t of every ensemble is grown before
    tree t + 1 of any (see _Presorted). Every reduction stays within one
    ensemble, so each ensemble is bit-identical to fitting it alone."""
    out = []
    for start in range(0, len(data), _LOCKSTEP_ENSEMBLES):
        out += _fit_lockstep([(np.asarray(X, dtype=float),
                               np.asarray(y, dtype=float)) for X, y in
                              data[start:start + _LOCKSTEP_ENSEMBLES]], hyper)
    return out


def _fit_lockstep(data, hyper: RateHyper) -> list[BoostedEnsemble]:
    rows = _Presorted([X for X, _ in data])
    E, N, _ = rows.shape
    T, inner = hyper.n_estimators, 2 ** hyper.max_depth - 1
    feature = np.empty((T, E, inner), dtype=np.intp)
    threshold = np.empty((T, E, inner))
    value = np.empty((T, E, 2 * inner + 1))
    Y = np.zeros((E, N))
    for e, (_, y) in enumerate(data):
        Y[e, :len(y)] = y
    init = [float(y.mean()) for _, y in data]
    pred = np.repeat(np.array(init)[:, None], N, axis=1)
    for t in range(T):
        pred = pred + hyper.learning_rate * rows.grow(
            Y - pred, feature[t], threshold[t], value[t])
    return [BoostedEnsemble(init[e], hyper.learning_rate, *(
        np.ascontiguousarray(a[:, e]) for a in (feature, threshold, value)))
        for e in range(E)]


# ---------------------------------------------------------------------------
# Lookup grids


@dataclass
class RateGrid:
    """A two-feature ensemble compiled into the exact lookup table of the
    grid that its distinct split thresholds make, per feature (DL PRB load,
    RRC-connected UEs). Cell (i, j) covers (t0[i-1], t0[i]] x (t1[j-1],
    t1[j]], the outer cells open to -inf and +inf (NaN and +inf included,
    as the trees send them right), because `x <= t` goes left. Every point
    of a cell walks every tree the same way, so `table[i, j]` is the
    ensemble's prediction on the whole cell."""

    thresholds: tuple[np.ndarray, np.ndarray]
    table: np.ndarray          # (len(t0) + 1, len(t1) + 1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.table[tuple(np.searchsorted(t, X[:, f], side="left")
                                for f, t in enumerate(self.thresholds))]


def compile_grids(ensembles: Sequence[BoostedEnsemble]) -> list[RateGrid]:
    """Each two-feature ensemble as its RateGrid, equal bit for bit to
    `BoostedEnsemble.predict` at every point.

    Ensembles of one tree shape are compiled _COMPILE_ENSEMBLES at a time,
    in order of grid size so that a batch pads its grids little (see
    _grid_tables)."""
    axes = [tuple(np.unique(e.threshold[e.feature == f]) for f in range(2))
            for e in ensembles]
    if not all(np.isfinite(t).all() for pair in axes for t in pair):
        raise ValueError("an ensemble splits at a threshold that is not "
                         "finite")
    order = sorted(range(len(ensembles)), key=lambda k: (
        ensembles[k].feature.shape, len(axes[k][0]), len(axes[k][1])))
    grids = [None] * len(ensembles)
    for _, group in itertools.groupby(
            order, key=lambda k: ensembles[k].feature.shape):
        group = list(group)
        for start in range(0, len(group), _COMPILE_ENSEMBLES):
            batch = group[start:start + _COMPILE_ENSEMBLES]
            for k, table in zip(batch, _grid_tables(
                    [ensembles[k] for k in batch], [axes[k] for k in batch])):
                grids[k] = RateGrid(axes[k], table)
    return grids


def _grid_tables(batch: Sequence[BoostedEnsemble], axes) -> list[np.ndarray]:
    """The grid tables of ensembles that share a tree shape: each cell's
    `lr * leaf` terms, found by walking the trees on segment numbers (see
    _tree_terms), added to the initial values tree by tree in fit order, as
    `predict` adds them, one vectorised addition per tree over the (padded)
    grids of the batch; _COMPILE_TREES trees at a time, which bounds the
    arrays.

    On feature f, grid position i stands for t[i], or for the points past
    t[-1] when i = len(t); so `x <= t[r]` is `i <= r`."""
    E, T = len(batch), len(batch[0].feature)
    n = np.array([[len(t) for t in pair] for pair in axes])
    W = n.max(axis=0) + 1                          # padded grid shape
    feature = np.stack([e.feature for e in batch], axis=1)    # (T, E, inner)
    value = np.stack([e.value for e in batch], axis=1)
    rank = np.zeros(feature.shape, dtype=np.intp)
    for e, (ens, pair) in enumerate(zip(batch, axes)):
        for f, t in enumerate(pair):
            split = ens.feature == f
            rank[:, e][split] = np.searchsorted(t, ens.threshold[split])
    lr = np.array([e.learning_rate for e in batch])[:, None]
    out = np.repeat([e.init_value for e in batch], W.prod()).reshape(E, *W)
    for start in range(0, T, _COMPILE_TREES):
        trees = slice(start, start + _COMPILE_TREES)
        for term, row, col in zip(*_tree_terms(feature[trees], value[trees],
                                               rank[trees], W, lr)):
            out += term.take(row[:, :, None] + col[:, None, :])
    return [np.ascontiguousarray(table[:a + 1, :b + 1])
            for table, (a, b) in zip(out, n)]


def _tree_terms(feature, value, rank, W, lr):
    """Per tree (T, E stacked): its `lr * leaf` terms over the grid of its
    own segments, and each grid position's offset into them.

    A tree's own thresholds cut each axis into segments, and position i
    lies in segment s, the number of them below it; so `i <= r` is `s <=`
    the segment of r. One `_walk` of every segment pair, each split's
    threshold its segment and a pass-through's a number above every
    segment, gives each pair's bottom slot."""
    T, E, _ = feature.shape
    segment, seg_rank = [], np.full(rank.shape, W.sum())
    for f in range(2):
        cut = np.zeros((T, E, W[f]), dtype=np.intp)
        on = feature == f
        at = (*np.nonzero(on)[:2], rank[on])
        cut[at] = 1
        segment.append(cut.cumsum(axis=2) - cut)
        seg_rank[on] = segment[f][at]
    K = np.array([s[..., -1].max(initial=0) + 1 for s in segment])
    slots = _walk(feature.reshape(T * E, -1), seg_rank.reshape(T * E, -1),
                  np.indices(K).reshape(2, -1).T)
    terms = lr * np.take_along_axis(value, slots.reshape(T, E, K.prod()),
                                    axis=2)
    rows = np.arange(E)[:, None] * K.prod() + segment[0] * K[1]
    return terms, rows, segment[1]


# ---------------------------------------------------------------------------
# Low-load PMF


@dataclass
class RatePmf:
    """Histogram of observed rates; sampling is uniform within a bin."""

    bin_mbps: float
    first_bin: int            # index of the lowest occupied bin
    counts: np.ndarray

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "RatePmf":
        values = np.asarray(values, dtype=float)
        bins = np.floor(values / PMF_BIN_MBPS).astype(int)
        first = int(bins.min())
        counts = np.bincount(bins - first)
        return cls(bin_mbps=PMF_BIN_MBPS, first_bin=first,
                   counts=counts.astype(float))

    def sample(self, rng: np.random.Generator) -> float:
        cum = np.cumsum(self.counts / self.counts.sum())
        cum[-1] = 1.0
        k = int(np.searchsorted(cum, rng.random(), side="right"))
        k = min(k, len(self.counts) - 1)
        lo = (self.first_bin + k) * self.bin_mbps
        return lo + rng.random() * self.bin_mbps


# ---------------------------------------------------------------------------
# Per-cell model


@dataclass(frozen=True)
class RateSample:
    """One observed (load, UE count) -> rate row for one cell and hour."""

    cell_id: str
    hour: int
    dl_prb_load: float
    rrc_ues: float
    rate_mbps: float

    def __post_init__(self):
        if not 0.0 <= self.dl_prb_load <= 1.0:
            raise ValueError(f"load {self.dl_prb_load} outside [0, 1]")
        if self.rate_mbps < 0:
            raise ValueError("rate must be nonnegative")


@dataclass
class CellRateModel:
    grid: RateGrid | None
    pmf: RatePmf | None


@dataclass
class RateModel:
    """Per-cell mean-rate and 5%-tile models plus the load cutoff."""

    avg: dict[str, CellRateModel]
    ce: dict[str, CellRateModel]
    cutoff: float = LOW_LOAD_CUTOFF

    @property
    def cells(self) -> set[str]:
        return set(self.avg) | set(self.ce)


def train_rate_model(avg_samples: Mapping[str, Sequence[RateSample]],
                     ce_samples: Mapping[str, Sequence[RateSample]],
                     hyper: RateHyper = RateHyper()) -> RateModel:
    """Fit both targets per cell: a PMF of the rows below the load cutoff and
    an ensemble of the rest, all ensembles in one `fit_boosted_many` call,
    each then compiled into its lookup grid; the model keeps no trees.
    Cells whose rows all sit below the cutoff end up PMF-only (no grid);
    that is a degraded mode, not an error."""
    model = RateModel(avg={}, ce={})
    fits = []
    for cell in sorted(set(avg_samples) | set(ce_samples)):
        for table, samples in ((model.avg, avg_samples),
                               (model.ce, ce_samples)):
            rows = samples.get(cell)
            if not rows:
                continue
            low = [s.rate_mbps for s in rows
                   if s.dl_prb_load < LOW_LOAD_CUTOFF]
            high = [s for s in rows if s.dl_prb_load >= LOW_LOAD_CUTOFF]
            table[cell] = CellRateModel(
                None, RatePmf.from_values(low) if low else None)
            if high:
                fits.append((table[cell], high))
    grids = compile_grids(fit_boosted_many(
        [(np.array([[s.dl_prb_load, s.rrc_ues] for s in high]),
          np.array([s.rate_mbps for s in high])) for _, high in fits], hyper))
    for (cm, _), grid in zip(fits, grids):
        cm.grid = grid
    return model


def predict_rates(model: RateModel, cells: Sequence[str], dl_prb_loads,
                  rrc_ues, rng: np.random.Generator,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(mean rates, 5%-tile rates) in Mbps for rows (cell, load, UEs).

    Loads at or above the cutoff look up the grids (clamped at 0), one batch
    per (target, cell); lower loads, and cells without a grid, draw
    from the PMFs row by row, mean before 5%-tile, as a loop of
    `predict_rate` would. A target without a model predicts 0."""
    X = np.column_stack([dl_prb_loads, rrc_ues]).astype(float)
    out = np.zeros((2, len(X)))
    batches, draws = {}, []
    for i, cell in enumerate(cells):
        if not 0.0 <= X[i, 0] <= 1.0:
            raise ValueError(f"load {X[i, 0]} outside [0, 1]")
        if cell not in model.avg and cell not in model.ce:
            raise UnknownCellError(f"no rate model for cell {cell!r}")
        for target, cm in enumerate((model.avg.get(cell), model.ce.get(cell))):
            if cm is None:
                continue
            if cm.grid is not None and (X[i, 0] >= model.cutoff
                                        or cm.pmf is None):
                batches.setdefault((target, cell), []).append(i)
            elif cm.pmf is not None:
                draws.append((target, i, cm.pmf))
    for (target, cell), rows in batches.items():
        value = (model.avg, model.ce)[target][cell].grid.predict(X[rows])
        out[target, rows] = np.where(value < 0.0, 0.0, value)
    for target, i, pmf in draws:
        out[target, i] = pmf.sample(rng)
    return out[0], out[1]


def predict_rate(model: RateModel, cell: str, dl_prb_load: float,
                 rrc_ues: float, rng: np.random.Generator,
                 ) -> tuple[float, float]:
    """`predict_rates` for one row: (mean rate, 5%-tile rate) in Mbps."""
    avg, ce = predict_rates(model, [cell], [dl_prb_load], [rrc_ues], rng)
    return float(avg[0]), float(ce[0])


def predict_mean_rates(model: RateModel, dl_load: Mapping[tuple, float],
                       ues: Mapping[tuple, float], rng: np.random.Generator,
                       ) -> dict[tuple, float]:
    """Mean rate in Mbps per key of `dl_load` whose cell, the key's first
    item, the model knows: the keys in sorted order, the order of the PMF
    draws, each load clamped to [0, 1], through one `predict_rates` call."""
    cells = model.cells
    keys = [key for key in sorted(dl_load) if key[0] in cells]
    rates, _ = predict_rates(
        model, [key[0] for key in keys],
        [min(max(dl_load[key], 0.0), 1.0) for key in keys],
        [ues[key] for key in keys], rng)
    return dict(zip(keys, rates.tolist()))


def build_rate_samples(cfg: NetworkConfig, kpis: HourlyRows,
                       ) -> tuple[dict[str, list[RateSample]],
                                  dict[str, list[RateSample]]]:
    """Extract per-cell training rows from KPI rows.

    Rows without active transmit time (mean rate) or with empty bin counters
    (5%-tile) are skipped for the respective target.
    """
    load = kpis.column("dl_prbs_used") / np.array(
        [cfg.cell(c).n_dl_prb for c in kpis.ids], dtype=float)
    active = kpis.column("dl_active_time_s") > 0
    rate = np.zeros(len(kpis))
    rate[active] = avg_rate_from_kpis(kpis.select(active))
    bins = np.column_stack([kpis.column(f"rate_bin_{g:02d}")
                            for g in range(1, N_RATE_BINS + 1)])
    avg: dict[str, list[RateSample]] = {}
    ce: dict[str, list[RateSample]] = {}
    for cell, hour, dl_load, ues, has_rate, mean_rate, counters in zip(
            kpis.ids, kpis.hour.tolist(), load.tolist(),
            kpis.column("rrc_ues").tolist(), active.tolist(), rate.tolist(),
            bins.tolist()):
        row = (cell, hour, min(dl_load, 1.0), ues)
        if has_rate:
            avg.setdefault(cell, []).append(
                RateSample(*row, max(mean_rate, 0.0)))
        if math.fsum(counters) > 0:
            ce.setdefault(cell, []).append(RateSample(
                *row, p5_rate_from_bins(counters)))
    return avg, ce


def mean_rate_by_cell(avg_samples: Mapping[str, Sequence[RateSample]],
                      ) -> dict[str, float]:
    """The baseline 'mean estimator': training-set mean rate per cell."""
    return {cell: float(np.mean([s.rate_mbps for s in rows]))
            for cell, rows in avg_samples.items() if rows}


# ---------------------------------------------------------------------------
# Model bundle file


# Version 3 stores each cell's grid: its two threshold arrays and its table,
# base64 of their little-endian float64 bytes.
def _array_text(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, "<f8").tobytes()).decode("ascii")


def _cell_payload(cm: CellRateModel):
    out = {}
    if cm.grid is not None:
        out["grid"] = {"thresholds": [_array_text(t)
                                      for t in cm.grid.thresholds],
                       "table": _array_text(cm.grid.table)}
    if cm.pmf is not None:
        out["pmf"] = {"bin_mbps": cm.pmf.bin_mbps,
                      "first_bin": cm.pmf.first_bin,
                      "counts": cm.pmf.counts.tolist()}
    return out


def _array(text, length=None) -> np.ndarray:
    data = base64.b64decode(text, validate=True)
    n = len(data) // 8 if length is None else length
    if len(data) != 8 * n:
        raise ValueError(f"an array of {len(data)} bytes, not {8 * n}")
    return np.frombuffer(data, "<f8")


def _cell_from_payload(payload) -> CellRateModel:
    grid = None
    if "grid" in payload:
        t0, t1 = (_array(t) for t in payload["grid"]["thresholds"])
        for t in (t0, t1):
            if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
                raise ValueError("thresholds not finite and increasing")
        table = _array(payload["grid"]["table"], (len(t0) + 1) * (len(t1) + 1))
        if not np.isfinite(table).all():
            raise ValueError("table not finite")
        grid = RateGrid((t0, t1), table.reshape(len(t0) + 1, len(t1) + 1))
    pmf = None
    if "pmf" in payload:
        p = payload["pmf"]
        pmf = RatePmf(bin_mbps=p["bin_mbps"], first_bin=p["first_bin"],
                      counts=np.array(p["counts"]))
    return CellRateModel(grid=grid, pmf=pmf)


def save_rate_model(path, model: RateModel) -> None:
    payload = {
        "version": _BUNDLE_VERSION,
        "cutoff": model.cutoff,
        "avg": {cell: _cell_payload(cm) for cell, cm in sorted(model.avg.items())},
        "ce": {cell: _cell_payload(cm) for cell, cm in sorted(model.ce.items())},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_rate_model(path) -> RateModel:
    """The model `save_rate_model` wrote. A bundle of an older version
    raises UnsupportedVersionError, a damaged one CorruptModelError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("version")
    except (ValueError, AttributeError) as exc:
        raise CorruptModelError(f"{path}: not a rate model ({exc})")
    if version != _BUNDLE_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported bundle version {version} "
            f"(expected {_BUNDLE_VERSION}; retrain the models)")
    try:
        return RateModel(
            **{target: {cell: _cell_from_payload(p)
                        for cell, p in payload[target].items()}
               for target in ("avg", "ce")},
            cutoff=float(payload["cutoff"]))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptModelError(f"{path}: corrupt rate model ({exc!r}); "
                                "retrain the models")
