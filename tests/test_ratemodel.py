import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriersim.ratemodel import (
    DEFAULT_BIN_EDGES,
    BoostedEnsemble,
    CellRateModel,
    RateGrid,
    RateHyper,
    RateModel,
    RateSample,
    RegressionTree,
    avg_rate_from_kpis,
    build_rate_samples,
    compile_grids,
    fit_boosted,
    fit_boosted_many,
    load_rate_model,
    mean_rate_by_cell,
    p5_rate_from_bins,
    predict_rate,
    predict_rates,
    save_rate_model,
    train_rate_model,
)
from carriersim.errors import (
    CorruptModelError,
    EmptyCountersError,
    UnknownCellError,
    UnsupportedVersionError,
    ZeroActiveTimeError,
)

from conftest import make_kpi, make_network, stack


class TestAvgRate:
    def test_formula(self):
        # (1e8 - 2e7) bits over 2 s = 40 Mbps
        k = make_kpi(dl_bits=1e8, dl_bits_lastslot=2e7, dl_active_time_s=2.0)
        assert avg_rate_from_kpis(k).tolist() == [40.0]

    def test_all_bits_in_lastslot_gives_zero(self):
        k = make_kpi(dl_bits=5e7, dl_bits_lastslot=5e7, dl_active_time_s=3.0)
        assert avg_rate_from_kpis(k).tolist() == [0.0]

    def test_zero_active_time_rejected(self):
        k = stack([make_kpi(), make_kpi(day=2, hour=7, dl_active_time_s=0.0)])
        with pytest.raises(ZeroActiveTimeError,
                           match="cell c1 day 2 hour 7: zero active time"):
            avg_rate_from_kpis(k)


class TestP5Rate:
    def test_single_bin_interpolation(self):
        # 100 samples in [0, 1): 5% point sits at 0.05
        assert p5_rate_from_bins([100.0], edges=(0.0, 1.0)) == pytest.approx(0.05)

    def test_boundary_hit_exactly(self):
        # cumulative reaches 5% exactly at the first bin edge
        assert p5_rate_from_bins([5.0, 95.0], edges=(0.0, 1.0, 2.0)) == \
            pytest.approx(1.0)

    def test_empty_counters_rejected(self):
        with pytest.raises(EmptyCountersError):
            p5_rate_from_bins([0.0] * 15)

    def test_mass_shift_upward_is_monotone(self):
        edges = DEFAULT_BIN_EDGES
        low = [10.0] * 15
        # move mass from the lowest to the highest bin
        high = [0.0] + [10.0] * 13 + [20.0]
        assert p5_rate_from_bins(high, edges) >= p5_rate_from_bins(low, edges)

    def test_default_edges_shape(self):
        edges = DEFAULT_BIN_EDGES
        assert len(edges) == 16
        assert edges[0] == 0.0
        assert edges[-1] == 300.0


def brute_force_tree(X, r, idx, max_depth, depth=0):
    """Independent oracle: exhaustive split search minimizing squared error."""
    node = {"value": float(np.mean(r[idx])), "feature": -1}
    if depth >= max_depth or len(idx) < 2:
        return node
    base_sse = float(np.sum((r[idx] - np.mean(r[idx])) ** 2))
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[idx, f]))
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            left = idx[X[idx, f] <= thr]
            right = idx[X[idx, f] > thr]
            sse = (np.sum((r[left] - np.mean(r[left])) ** 2)
                   + np.sum((r[right] - np.mean(r[right])) ** 2))
            if best is None or sse < best[0] - 1e-12:
                best = (float(sse), f, thr)
    if best is None or base_sse - best[0] <= 1e-12:
        return node
    _, f, thr = best
    node.update(feature=f, threshold=thr)
    node["left"] = brute_force_tree(X, r, idx[X[idx, f] <= thr], max_depth,
                                    depth + 1)
    node["right"] = brute_force_tree(X, r, idx[X[idx, f] > thr], max_depth,
                                     depth + 1)
    return node


def assert_same_structure(tree: RegressionTree, slot: int, oracle: dict):
    """Heap layout: slot i's children are 2i+1 and 2i+2; a leaf above the
    bottom level passes its value down to every slot below it."""
    feature = tree.feature[slot] if slot < len(tree.feature) else -1
    assert feature == oracle["feature"]
    if feature < 0:
        assert tree.value[slot] == pytest.approx(oracle["value"], rel=1e-12)
        assert_pass_through(tree, slot, tree.value[slot])
        return
    assert tree.threshold[slot] == pytest.approx(oracle["threshold"],
                                                 rel=1e-12)
    assert_same_structure(tree, 2 * slot + 1, oracle["left"])
    assert_same_structure(tree, 2 * slot + 2, oracle["right"])


def assert_pass_through(tree: RegressionTree, slot: int, value: float):
    assert tree.value[slot] == value
    if slot < len(tree.feature):
        assert tree.feature[slot] == -1
        assert tree.threshold[slot] == np.inf
        assert_pass_through(tree, 2 * slot + 1, value)
        assert_pass_through(tree, 2 * slot + 2, value)


class TestRegressionTree:
    def test_splits_match_exhaustive_search(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(3, 21))
            X = rng.normal(size=(n, 1)).round(2)
            r = rng.normal(size=n)
            tree = RegressionTree(max_depth=4)
            tree.fit(X, r)
            oracle = brute_force_tree(X, r, np.arange(n), max_depth=4)
            assert_same_structure(tree, 0, oracle)

    def test_depth_four_has_at_most_sixteen_leaves(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        r = rng.normal(size=300)
        tree = RegressionTree(max_depth=4)
        tree.fit(X, r)
        assert tree.n_leaves <= 16

    def test_predictions_piecewise_constant(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 1))
        r = rng.normal(size=50)
        tree = RegressionTree(max_depth=3)
        tree.fit(X, r)
        preds = tree.predict(np.linspace(-3, 3, 500).reshape(-1, 1))
        assert len(np.unique(preds)) <= tree.n_leaves

    def test_pure_node_stays_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        r = np.array([5.0, 5.0, 5.0])
        tree = RegressionTree(max_depth=4)
        tree.fit(X, r)
        assert tree.n_leaves == 1
        assert tree.feature[0] == -1
        assert tree.value[0] == 5.0
        assert_pass_through(tree, 0, 5.0)

    def test_fit_returns_training_leaf_values(self):
        rng = np.random.default_rng(6)
        X = rng.integers(0, 5, size=(40, 2)).astype(float)
        r = rng.normal(size=40)
        tree = RegressionTree(max_depth=4)
        leaf = tree.fit(X, r)
        assert tree.n_leaves < 16          # some nodes stop splitting early
        assert np.array_equal(leaf, tree.predict(X))


def staged_mse(ensemble, X, y) -> list[float]:
    """The training MSE after each tree, recomputed from the ensemble's
    arrays: its trees' leaf values added to the initial value in fit order,
    as the boosting loop adds them."""
    pred = np.full(len(y), ensemble.init_value)
    out = []
    for tree in ensemble.trees:
        pred = pred + ensemble.learning_rate * tree.predict(X)
        out.append(float(((y - pred) ** 2).mean()))
    return out


class TestBoosting:
    def test_constant_target_predicts_constant(self):
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        y = np.full(40, 7.0)
        ens = fit_boosted(X, y, RateHyper(n_estimators=10))
        assert np.allclose(ens.predict(X), 7.0)

    def test_training_mse_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(300, 2))
        y = 5.0 * X[:, 0] + rng.normal(0, 0.1, size=300)
        ens = fit_boosted(X, y, RateHyper(n_estimators=120))
        mse = np.array(staged_mse(ens, X, y))
        assert np.all(np.diff(mse) <= 1e-12)

    def test_linear_relationship_high_r2(self):
        rng = np.random.default_rng(4)
        n = 1000
        X = np.column_stack([rng.uniform(0, 1, n), rng.integers(1, 30, n)])
        y = 5.0 * X[:, 0] + rng.normal(0, 0.1, size=n)
        train, test = slice(0, 800), slice(800, None)
        ens = fit_boosted(X[train], y[train], RateHyper())
        pred = ens.predict(X[test])
        ss_res = np.sum((y[test] - pred) ** 2)
        ss_tot = np.sum((y[test] - y[test].mean()) ** 2)
        assert 1 - ss_res / ss_tot > 0.95


def frozen_data():
    """The data of tests/data/frozen_ensemble.json: few rows with tied
    features, so some nodes stop splitting above the bottom level."""
    rng = np.random.default_rng(20240101)
    n = 24
    load = rng.uniform(0.1, 1.0, n).round(1)
    ues = rng.integers(1, 5, n).astype(float)
    y = 60.0 * (1.0 - load) + 0.5 * ues + rng.normal(0.0, 2.0, n)
    return np.column_stack([load, ues]), y


def frozen_grid():
    load, ues = np.meshgrid(np.linspace(0.0, 1.0, 21), np.arange(0.0, 11.0))
    return np.column_stack([load.ravel(), ues.ravel()])


def assert_bundle_predicts(ensemble, frozen, X, tmp_path):
    """The ensemble's grid, saved and loaded, predicts the frozen values."""
    model = RateModel(avg={"c1": CellRateModel(compile_grids([ensemble])[0],
                                               None)}, ce={})
    save_rate_model(tmp_path / "rate.json", model)
    loaded = load_rate_model(tmp_path / "rate.json").avg["c1"].grid
    assert loaded.predict(frozen_grid()).tolist() == \
        frozen["grid_predictions"]
    assert loaded.predict(X).tolist() == frozen["train_predictions"]


class TestFrozenEnsemble:
    """50 trees of depth 4 fitted by the node-list implementation that the
    heap layout replaced; its outputs are stored as float.hex strings, and
    the current code must reproduce them bit for bit."""

    @pytest.fixture(scope="class")
    def frozen(self):
        path = Path(__file__).parent / "data" / "frozen_ensemble.json"
        return {k: [float.fromhex(v) for v in values]
                for k, values in json.loads(path.read_text()).items()}

    @pytest.fixture(scope="class")
    def ensemble(self):
        X, y = frozen_data()
        return fit_boosted(X, y, RateHyper(n_estimators=50, max_depth=4))

    def test_trees_stop_early(self, ensemble):
        assert all(t.n_leaves < 16 for t in ensemble.trees)

    def test_train_mse_bit_identical(self, ensemble, frozen):
        assert staged_mse(ensemble, *frozen_data()) == frozen["train_mse"]

    def test_grid_predictions_bit_identical(self, ensemble, frozen):
        assert ensemble.predict(frozen_grid()).tolist() == \
            frozen["grid_predictions"]

    def test_training_predictions_bit_identical(self, ensemble, frozen):
        X, _ = frozen_data()
        assert ensemble.predict(X).tolist() == frozen["train_predictions"]

    def test_loaded_bundle_bit_identical(self, ensemble, frozen, tmp_path):
        assert_bundle_predicts(ensemble, frozen, frozen_data()[0], tmp_path)


def frozen_large_data():
    """The data of tests/data/frozen_ensemble_large.json: 300 rows, more than
    numpy's 128-element pairwise-summation block, with continuous loads and
    tied UE counts."""
    rng = np.random.default_rng(20240301)
    n = 300
    load = rng.uniform(0.1, 1.0, n)
    ues = rng.integers(1, 9, n).astype(float)
    y = 60.0 * (1.0 - load) + 0.5 * ues + rng.normal(0.0, 2.0, n)
    return np.column_stack([load, ues]), y


class TestFrozenLargeEnsemble:
    """50 trees of depth 4 on 300 rows, fitted by the recursive node-by-node
    grower that the lockstep level-wise one replaced; stored as float.hex
    strings, reproduced bit for bit."""

    @pytest.fixture(scope="class")
    def frozen(self):
        path = Path(__file__).parent / "data" / "frozen_ensemble_large.json"
        return {k: [float.fromhex(v) for v in values]
                for k, values in json.loads(path.read_text()).items()}

    @pytest.fixture(scope="class")
    def ensemble(self):
        X, y = frozen_large_data()
        return fit_boosted(X, y, RateHyper(n_estimators=50, max_depth=4))

    def test_train_mse_bit_identical(self, ensemble, frozen):
        assert staged_mse(ensemble, *frozen_large_data()) == \
            frozen["train_mse"]

    def test_grid_predictions_bit_identical(self, ensemble, frozen):
        assert ensemble.predict(frozen_grid()).tolist() == \
            frozen["grid_predictions"]

    def test_training_predictions_bit_identical(self, ensemble, frozen):
        X, _ = frozen_large_data()
        assert ensemble.predict(X).tolist() == frozen["train_predictions"]

    def test_loaded_bundle_bit_identical(self, ensemble, frozen, tmp_path):
        assert_bundle_predicts(ensemble, frozen, frozen_large_data()[0],
                               tmp_path)


def assert_same_ensemble(a: BoostedEnsemble, b: BoostedEnsemble):
    assert a.init_value == b.init_value
    for name in ("feature", "threshold", "value"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestLockstepFit:
    @staticmethod
    def training_sets():
        rng = np.random.default_rng(77)
        sets = [(np.array([[0.5, 3.0]]), np.array([12.0])),          # n = 1
                (np.array([[0.2, 1.0], [0.7, 1.0]]), np.array([40.0, 9.0])),
                (np.column_stack([np.full(30, 0.4),                   # constant
                                  rng.integers(1, 6, 30)]), rng.normal(size=30)),
                (np.tile([0.3, 2.0], (12, 1)), rng.normal(size=12)),  # all tied
                frozen_large_data(),
                frozen_data()]
        X = rng.uniform(0.1, 1.0, (140, 2)).round(2)
        sets.append((X, 50.0 * X[:, 0] + rng.normal(size=140)))
        return sets

    def test_batch_equals_each_ensemble_alone(self):
        hyper = RateHyper(n_estimators=30, max_depth=4)
        sets = self.training_sets()
        together = fit_boosted_many(sets, hyper)
        assert len(together) == len(sets)
        for (X, y), ensemble in zip(sets, together):
            assert_same_ensemble(ensemble, fit_boosted(X, y, hyper))

    def test_chunked_batches_equal_one_batch(self, monkeypatch):
        from carriersim import ratemodel

        hyper = RateHyper(n_estimators=10, max_depth=3)
        sets = self.training_sets()
        whole = fit_boosted_many(sets, hyper)
        monkeypatch.setattr(ratemodel, "_LOCKSTEP_ENSEMBLES", 3)
        for a, b in zip(whole, fit_boosted_many(sets, hyper), strict=True):
            assert_same_ensemble(a, b)

    def test_batch_order_does_not_matter(self):
        hyper = RateHyper(n_estimators=10, max_depth=3)
        sets = self.training_sets()
        forward = fit_boosted_many(sets, hyper)
        backward = fit_boosted_many(sets[::-1], hyper)[::-1]
        for a, b in zip(forward, backward):
            assert_same_ensemble(a, b)

    def test_single_tree_matches_first_boosting_stage(self):
        X, y = frozen_large_data()
        ensemble = fit_boosted(X, y, RateHyper(n_estimators=1, max_depth=4))
        tree = RegressionTree(max_depth=4)
        tree.fit(X, y - ensemble.init_value)
        for name in ("feature", "threshold", "value"):
            assert np.array_equal(getattr(tree, name),
                                  getattr(ensemble, name)[0])

    def test_degenerate_sets_stay_single_leaves(self):
        ensembles = fit_boosted_many(self.training_sets()[:4],
                                     RateHyper(n_estimators=5))
        for ensemble in ensembles[:1] + ensembles[3:4]:
            assert all(t.n_leaves == 1 for t in ensemble.trees)
        assert all(t.n_leaves <= 2 for t in ensembles[1].trees)
        assert np.all(ensembles[2].feature != 0)    # load never splits

    def test_equal_scores_cut_at_the_first(self):
        tree = RegressionTree(max_depth=1)
        # cuts after x=0 and after x=2 both score 0/1 + 2^2/3
        tree.fit(np.array([[0.0], [1.0], [2.0], [3.0]]),
                 np.array([0.0, 1.0, 1.0, 0.0]))
        assert tree.threshold[0] == 0.5

    def test_equal_gains_split_on_the_lower_feature(self):
        rng = np.random.default_rng(5)
        load = rng.uniform(0.1, 1.0, 60).round(2)
        X = np.column_stack([load, 10.0 * load])    # the same partitions
        ensemble = fit_boosted(X, 30.0 * load + rng.normal(size=60),
                               RateHyper(n_estimators=20))
        assert np.any(ensemble.feature == 0)
        assert not np.any(ensemble.feature == 1)

    def test_no_training_sets(self):
        assert fit_boosted_many([], RateHyper(n_estimators=5)) == []


def grid_points(grid: RateGrid, rng) -> np.ndarray:
    """Random points, every cell's representative point, every threshold
    and the floats either side of it, signed zeros, and NaN and infinite
    UE counts."""
    axes = []
    for t in grid.thresholds:
        reps = np.append(t, np.nextafter(t[-1], np.inf) if len(t) else 0.0)
        axes.append(np.concatenate([reps, np.nextafter(t, -np.inf),
                                    np.nextafter(t, np.inf), [0.0, -0.0],
                                    rng.uniform(-1.0, 12.0, 20)]))
    axes[1] = np.append(axes[1], [np.nan, np.inf, -np.inf])
    load, ues = np.meshgrid(*axes)
    return np.column_stack([load.ravel(), ues.ravel()])


@st.composite
def training_sets(draw):
    """(X, y) with two features: few distinct values (ties), sometimes a
    constant feature, sometimes a single row."""
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    load = rng.integers(0, draw(st.integers(1, 12)), n) / 10.0
    ues = rng.integers(0, draw(st.integers(1, 8)), n).astype(float)
    y = rng.normal(20.0, 10.0, n).round(draw(st.integers(0, 3)))
    return np.column_stack([load, ues]), y


class TestRateGrid:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(training_sets(), min_size=1, max_size=4),
           st.integers(1, 25), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_grid_equals_predict_bit_for_bit(self, sets, n_trees, depth, seed):
        ensembles = fit_boosted_many(sets, RateHyper(n_trees, depth, 0.1))
        ensembles += fit_boosted_many(sets[:1], RateHyper(3, 2, 0.05))
        ensembles.append(BoostedEnsemble(init_value=7.25, learning_rate=0.1))
        rng = np.random.default_rng(seed)
        for ensemble, grid in zip(ensembles, compile_grids(ensembles),
                                  strict=True):
            X = grid_points(grid, rng)
            assert grid.predict(X).tobytes() == ensemble.predict(X).tobytes()

    def test_grid_shape_and_cell_boundaries(self):
        X, y = frozen_data()
        ensemble = fit_boosted(X, y, RateHyper(n_estimators=50))
        grid, = compile_grids([ensemble])
        t0, t1 = grid.thresholds
        assert t0.tolist() == np.unique(
            ensemble.threshold[ensemble.feature == 0]).tolist()
        assert grid.table.shape == (len(t0) + 1, len(t1) + 1)
        # x <= t goes left: a threshold belongs to the cell below it
        at = np.column_stack([t0, np.full(len(t0), t1[0])])
        assert grid.predict(at).tolist() == grid.table[:-1, 0].tolist()

    def test_batches_equal_one_batch(self, monkeypatch):
        from carriersim import ratemodel

        sets = TestLockstepFit.training_sets()
        ensembles = fit_boosted_many(sets, RateHyper(n_estimators=20))
        whole = compile_grids(ensembles)
        monkeypatch.setattr(ratemodel, "_COMPILE_ENSEMBLES", 2)
        monkeypatch.setattr(ratemodel, "_COMPILE_TREES", 7)
        for a, b in zip(whole, compile_grids(ensembles), strict=True):
            assert a.table.tobytes() == b.table.tobytes()
            assert all(np.array_equal(s, t) for s, t in
                       zip(a.thresholds, b.thresholds))

    def test_non_finite_threshold_rejected(self):
        ensemble = fit_boosted(np.array([[0.2, 1.0], [0.6, 2.0]]),
                               np.array([10.0, 30.0]),
                               RateHyper(n_estimators=2))
        ensemble.threshold[ensemble.feature >= 0] = np.inf
        with pytest.raises(ValueError, match="not finite"):
            compile_grids([ensemble])

    def test_no_ensembles(self):
        assert compile_grids([]) == []


def make_rate_samples(cell="c1", n_high=60, n_low=20, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_high):
        load = rng.uniform(0.1, 0.9)
        rows.append(RateSample(cell_id=cell, hour=1, dl_prb_load=load,
                               rrc_ues=float(rng.integers(1, 20)),
                               rate_mbps=60.0 * (1 - load)))
    for _ in range(n_low):
        rows.append(RateSample(cell_id=cell, hour=1,
                               dl_prb_load=rng.uniform(0.0, 0.0999),
                               rrc_ues=1.0, rate_mbps=rng.uniform(20, 60)))
    return rows


class TestRateModel:
    def test_cutoff_boundary_is_inclusive_for_ensemble(self):
        rows = make_rate_samples()
        hyper = RateHyper(n_estimators=30)
        model = train_rate_model({"c1": rows}, {"c1": rows}, hyper)
        rng = np.random.default_rng(0)
        at_cutoff, _ = predict_rate(model, "c1", 0.1, 5.0, rng)
        # ensemble path: value determined by the fitted curve, not a PMF draw
        again, _ = predict_rate(model, "c1", 0.1, 5.0, rng)
        assert at_cutoff == again

    def test_low_load_draws_from_pmf(self):
        rows = [RateSample(cell_id="c1", hour=1, dl_prb_load=0.05,
                           rrc_ues=1.0, rate_mbps=30.2)]
        model = train_rate_model({"c1": rows}, {"c1": rows},
                                 RateHyper(n_estimators=5))
        rng = np.random.default_rng(1)
        avg, ce = predict_rate(model, "c1", 0.05, 1.0, rng)
        assert 30.0 <= avg < 31.0
        assert 30.0 <= ce < 31.0

    def test_pmf_only_model_when_all_samples_low_load(self):
        rows = [RateSample(cell_id="c1", hour=1, dl_prb_load=0.01,
                           rrc_ues=1.0, rate_mbps=25.0) for _ in range(5)]
        model = train_rate_model({"c1": rows}, {}, RateHyper(n_estimators=5))
        assert model.avg["c1"].grid is None
        assert model.avg["c1"].pmf is not None
        # high-load queries fall back to the PMF rather than failing
        avg, _ = predict_rate(model, "c1", 0.5, 3.0, np.random.default_rng(0))
        assert 25.0 <= avg < 26.0

    def test_negative_ensemble_output_clamped(self):
        grid, = compile_grids([BoostedEnsemble(init_value=-4.0,
                                                learning_rate=0.01)])
        model = RateModel(avg={"c1": CellRateModel(grid=grid, pmf=None)},
                          ce={})
        avg, ce = predict_rate(model, "c1", 0.5, 2.0, np.random.default_rng(0))
        assert avg == 0.0

    def test_unknown_cell_rejected(self):
        model = train_rate_model({"c1": make_rate_samples()}, {},
                                 RateHyper(n_estimators=5))
        with pytest.raises(UnknownCellError):
            predict_rate(model, "zz", 0.5, 2.0, np.random.default_rng(0))

    def test_out_of_range_load_rejected(self):
        model = train_rate_model({"c1": make_rate_samples()}, {},
                                 RateHyper(n_estimators=5))
        with pytest.raises(ValueError):
            predict_rate(model, "c1", 1.5, 2.0, np.random.default_rng(0))

    def test_bundle_round_trip(self, tmp_path):
        rows = make_rate_samples()
        model = train_rate_model({"c1": rows}, {"c1": rows},
                                 RateHyper(n_estimators=20))
        path = tmp_path / "rate.json"
        save_rate_model(path, model)
        loaded = load_rate_model(path)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        assert predict_rate(model, "c1", 0.4, 6.0, rng1) == \
               predict_rate(loaded, "c1", 0.4, 6.0, rng2)
        save_rate_model(tmp_path / "again.json", loaded)
        assert (tmp_path / "rate.json").read_bytes() == \
               (tmp_path / "again.json").read_bytes()


class TestSampleExtraction:
    def test_build_rate_samples_splits_targets(self):
        cfg = make_network()
        kpis = stack([
            make_kpi(cell_id="c1", dl_prbs=54.0, dl_bits=1e8,
                     dl_bits_lastslot=2e7, dl_active_time_s=2.0),
            make_kpi(cell_id="c1", hour=2, dl_active_time_s=0.0,
                     rate_bins=[0.0] * 15),
        ])
        avg, ce = build_rate_samples(cfg, kpis)
        assert len(avg["c1"]) == 1
        assert avg["c1"][0].rate_mbps == 40.0
        assert avg["c1"][0].dl_prb_load == pytest.approx(0.2)
        assert len(ce["c1"]) == 1  # second row skipped for both targets

    def test_mean_rate_by_cell(self):
        rows = {"c1": [RateSample("c1", 1, 0.5, 2.0, 10.0),
                       RateSample("c1", 2, 0.6, 2.0, 20.0)]}
        assert mean_rate_by_cell(rows) == {"c1": 15.0}


class TestBatchedPrediction:
    def test_batch_equals_loop_of_predict_rate(self):
        c1 = make_rate_samples("c1", seed=0)
        pmf_only = [RateSample(cell_id="c2", hour=1, dl_prb_load=0.02,
                               rrc_ues=1.0, rate_mbps=v)
                    for v in (12.5, 14.0, 19.9)]
        model = train_rate_model({"c1": c1, "c2": pmf_only}, {"c1": c1},
                                 RateHyper(n_estimators=25))
        assert model.avg["c2"].grid is None and "c2" not in model.ce
        rng = np.random.default_rng(9)
        cells = list(rng.choice(["c1", "c2"], size=40))
        loads = rng.uniform(0.0, 0.4, size=40)    # both sides of the cutoff
        loads[:3] = [0.1, 0.0, 1.0]
        ues = rng.integers(1, 20, size=40).astype(float)
        rng_batch, rng_loop = (np.random.default_rng(3),
                               np.random.default_rng(3))
        avg, ce = predict_rates(model, cells, loads, ues, rng_batch)
        loop = [predict_rate(model, c, l, u, rng_loop)
                for c, l, u in zip(cells, loads, ues)]
        assert avg.tolist() == [a for a, _ in loop]
        assert ce.tolist() == [c for _, c in loop]
        assert rng_batch.random() == rng_loop.random()

    def test_empty_batch(self):
        model = train_rate_model({"c1": make_rate_samples()}, {},
                                 RateHyper(n_estimators=5))
        avg, ce = predict_rates(model, [], [], [], np.random.default_rng(0))
        assert avg.shape == ce.shape == (0,)

    def test_bad_row_rejected(self):
        model = train_rate_model({"c1": make_rate_samples()}, {},
                                 RateHyper(n_estimators=5))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            predict_rates(model, ["c1", "c1"], [0.5, float("nan")],
                          [2.0, 2.0], rng)
        with pytest.raises(UnknownCellError):
            predict_rates(model, ["c1", "zz"], [0.5, 0.5], [2.0, 2.0], rng)

    def test_trained_model_holds_grids_and_its_bundle_no_trees(self,
                                                               tmp_path):
        rows = make_rate_samples()
        model = train_rate_model({"c1": rows}, {"c1": rows},
                                 RateHyper(n_estimators=20))
        assert isinstance(model.ce["c1"].grid, RateGrid)
        save_rate_model(tmp_path / "rate.json", model)
        payload = json.loads((tmp_path / "rate.json").read_text())
        assert payload["version"] == 3 and "bin_edges" not in payload
        assert set(payload["avg"]["c1"]) == {"grid", "pmf"}
        assert set(payload["avg"]["c1"]["grid"]) == {"thresholds", "table"}

    def test_version_2_bundle_rejected(self, tmp_path):
        path = tmp_path / "rate.json"
        path.write_text(json.dumps({"version": 2, "cutoff": 0.1,
                                    "bin_edges": [], "avg": {}, "ce": {}}))
        with pytest.raises(UnsupportedVersionError, match="retrain"):
            load_rate_model(path)

    @pytest.mark.parametrize("damage", [
        lambda g: {**g, "table": g["table"][:-4]},           # a short array
        lambda g: {**g, "table": g["table"][:-1]},           # bad base64
        lambda g: {**g, "thresholds": g["thresholds"][:1]},
        lambda g: {**g, "thresholds": [
            base64.b64encode(np.array([0.5, 0.2], "<f8").tobytes()).decode(),
            g["thresholds"][1]]},                          # not increasing
        lambda g: {**g, "table": base64.b64encode(np.full(
            len(base64.b64decode(g["table"])) // 8, np.nan).tobytes())
            .decode()},
        lambda g: {"table": g["table"]},
    ])
    def test_corrupt_bundle_rejected(self, tmp_path, damage):
        rows = make_rate_samples()
        save_rate_model(tmp_path / "rate.json", train_rate_model(
            {"c1": rows}, {}, RateHyper(n_estimators=5)))
        payload = json.loads((tmp_path / "rate.json").read_text())
        payload["avg"]["c1"]["grid"] = damage(payload["avg"]["c1"]["grid"])
        (tmp_path / "rate.json").write_text(json.dumps(payload))
        with pytest.raises(CorruptModelError, match="rate.json: corrupt"):
            load_rate_model(tmp_path / "rate.json")

    def test_unreadable_bundle_rejected(self, tmp_path):
        (tmp_path / "rate.json").write_text('{"version": 3, "avg": {')
        with pytest.raises(CorruptModelError, match="rate.json"):
            load_rate_model(tmp_path / "rate.json")

    def test_old_bundle_version_rejected(self, tmp_path):
        path = tmp_path / "rate.json"
        path.write_text(json.dumps({"version": 1, "avg": {}, "ce": {}}))
        with pytest.raises(UnsupportedVersionError, match="version 1"):
            load_rate_model(path)
