import csv
import tracemalloc

import numpy as np
import pytest

from carriersim.abm import AbmConfig, simulate_day
from carriersim.datamodel import _CHUNK, parse_datasets, parse_kpis
from carriersim.errors import (
    EmptySeriesError,
    InvalidSpecError,
    KeyMismatchError,
    LengthMismatchError,
)
from carriersim.harness import (
    RateLaw,
    ScenarioSpec,
    align_to_truth,
    chronological_split,
    compare,
    diurnal_profile,
    generate_scenario,
    ground_truth_replay,
    mae_mape,
    prepare_network,
    read_truth,
    truth_tables_from_outputs,
    write_eval_report,
    write_truth,
)
from carriersim.harness import (_RATE_DRAWS, _TRAFFIC_DRAWS, _at_least,
                                _build_network, _build_true_traffic,
                                _drawn_block, _generate_mrs, _rate_bins)
from carriersim.ratemodel import DEFAULT_BIN_EDGES
from carriersim.rules import build_handover_model_for_hours

from conftest import make_kpi, report_pairs, stack


class TestMaeMape:
    def test_identical_series_zero_error(self):
        r = mae_mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.mae == 0.0
        assert r.mape == 0.0
        assert r.skipped == 0

    def test_hand_computed(self):
        r = mae_mape([2.0, 4.0], [1.0, 2.0])
        assert r.mae == 1.5
        assert r.mape == 100.0

    def test_zero_truth_skipped_from_mape_kept_in_mae(self):
        r = mae_mape([2.0, 5.0], [0.0, 4.0])
        assert r.mae == 1.5
        assert r.mape == 25.0
        assert r.skipped == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mae_mape([1.0], [1.0, 2.0])

    def test_empty_series(self):
        with pytest.raises(EmptySeriesError):
            mae_mape([], [])

    def test_translation_shifts_mae_by_constant_when_above(self):
        truth = [1.0, 2.0, 3.0]
        pred = [2.0, 3.0, 4.0]  # pred >= truth elementwise
        base = mae_mape(pred, truth).mae
        shifted = mae_mape([p + 0.5 for p in pred], truth).mae
        assert shifted == pytest.approx(base + 0.5)

    def test_mae_shift_bounded_by_constant(self):
        truth = [1.0, 5.0, 3.0]
        pred = [2.0, 4.0, 3.5]
        base = mae_mape(pred, truth).mae
        shifted = mae_mape([p + 0.3 for p in pred], truth).mae
        assert abs(shifted - base) <= 0.3 + 1e-12


def tiny_tables(value_abm=1.0, value_bench=2.0):
    keys = [("c1", h) for h in (1, 2)]
    truth = {k: 10.0 for k in keys}
    abm = {k: 10.0 + value_abm for k in keys}
    bench = {k: 10.0 + value_bench for k in keys}
    return ({"cs_minutes": abm}, {"cs_minutes": bench},
            {"cs_minutes": truth})


class TestCompare:
    def test_abm_equals_truth_gain_is_one(self):
        abm, bench, truth = tiny_tables(value_abm=0.0, value_bench=2.0)
        report = compare(abm, bench, truth)
        ev = report.kpis["cs_minutes"]
        assert ev.abm.mae == 0.0
        assert ev.gain_mae == 1.0

    def test_equal_estimators_gain_zero(self):
        abm, bench, truth = tiny_tables(value_abm=2.0, value_bench=2.0)
        ev = compare(abm, bench, truth).kpis["cs_minutes"]
        assert ev.gain_mae == 0.0

    def test_swapping_estimators_flips_gain_sign(self):
        abm, bench, truth = tiny_tables(value_abm=1.0, value_bench=3.0)
        forward = compare(abm, bench, truth).kpis["cs_minutes"]
        backward = compare(bench, abm, truth).kpis["cs_minutes"]
        assert forward.gain_mae > 0
        assert backward.gain_mae < 0

    def test_zero_benchmark_error_gain_undefined(self):
        abm, bench, truth = tiny_tables(value_abm=1.0, value_bench=0.0)
        ev = compare(abm, bench, truth).kpis["cs_minutes"]
        assert ev.gain_mae is None

    def test_disjoint_cells_raise_key_mismatch(self):
        abm, bench, truth = tiny_tables()
        abm["cs_minutes"] = {("zz", 1): 0.0, ("zz", 2): 0.0}
        with pytest.raises(KeyMismatchError):
            compare(abm, bench, truth)

    def test_profiles_are_hourly_means(self):
        abm, bench, truth = tiny_tables(value_abm=1.0, value_bench=2.0)
        report = compare(abm, bench, truth)
        rows = report.profiles["cs_minutes"]
        assert [r[0] for r in rows] == [1, 2]
        assert rows[0][1] == 10.0 and rows[0][2] == 11.0 and rows[0][3] == 12.0

    def test_report_files_written(self, tmp_path):
        abm, bench, truth = tiny_tables()
        report = compare(abm, bench, truth)
        write_eval_report(tmp_path, report)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "profiles.csv").read_text().startswith("kpi,hour")


class TestAlignToTruth:
    def test_cuts_to_the_shared_keys_and_reports_coverage(self):
        abm, bench, truth = tiny_tables()
        truth["cs_minutes"][("c1", 3)] = 10.0
        bench["cs_minutes"][("c1", 3)] = 12.0
        bench["cs_minutes"][("c1", 4)] = 12.0
        truth["rate_mbps"] = {("c1", 1): 5.0}
        abm["rate_mbps"] = {("c1", 1): 6.0}
        *aligned, coverage = align_to_truth(abm, bench, truth)
        for tables in aligned:
            assert list(tables) == ["cs_minutes"]
            assert set(tables["cs_minutes"]) == {("c1", 1), ("c1", 2)}
        assert coverage == [
            "cs_minutes: kept 2 of 3 keys; dropped 1 absent from abm, "
            "0 absent from benchmark",
            "rate_mbps: skipped, not predicted by benchmark"]
        assert compare(*aligned).kpis["cs_minutes"].abm.mae == 1.0

    def test_no_shared_key_raises(self):
        abm, bench, truth = tiny_tables()
        abm["cs_minutes"] = {("zz", 1): 0.0}
        with pytest.raises(KeyMismatchError, match="no overlapping keys"):
            align_to_truth(abm, bench, truth)


class TestChronologicalSplit:
    def test_first_four_of_five_days_train(self):
        rows = stack(make_kpi(day=day, hour=hour)
                     for day in (3, 1, 5, 2, 4) for hour in (1, 2))
        train, test = chronological_split(rows)
        assert train.day.tolist() == [3, 3, 1, 1, 2, 2, 4, 4]
        assert test.day.tolist() == [5, 5]

    def test_one_day_trains_and_tests_nothing(self):
        train, test = chronological_split(make_kpi(day=2))
        assert train.day.tolist() == [2] and len(test) == 0


def test_prepare_network_votes_handover_under_the_overrides(tmp_path):
    generate_scenario(ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1,
                                   reports_per_cell_hour=4), tmp_path, seed=2)
    cfg, kpis, _, mrs = parse_datasets(tmp_path)
    a4 = {c.id: {"threshold_dbm": 0.0} for c in cfg.cells}   # none passes
    plain, tm, handover = prepare_network(cfg, kpis, mrs, {})
    assert plain == cfg
    assert handover.probabilities == \
        build_handover_model_for_hours(cfg, mrs).probabilities
    assert tm.cells == tuple(dict.fromkeys(kpis.ids))
    blocked, _, handover = prepare_network(cfg, kpis, mrs, {"a4": a4})
    assert blocked.mobility["cap001"].threshold_dbm == 0.0
    assert not any(handover.probabilities.values())


class TestLaws:
    def test_energy_law_three_slopes(self):
        from carriersim.harness import _default_energy_law

        law = _default_energy_law()
        slopes = sorted(law.slope_by_pmax.values())
        assert len(set(slopes)) == 3

    def test_rate_law_monotone_decreasing_in_load(self):
        law = RateLaw()
        rates = [law.mean_rate(load, 5.0) for load in np.linspace(0, 1, 20)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_diurnal_profile_trough_and_peak(self):
        values = {h: diurnal_profile(h) for h in range(1, 25)}
        assert min(values, key=values.get) == 4
        assert max(values, key=values.get) == 16


    @pytest.mark.parametrize("spec", [
        ScenarioSpec(6, 3, 2),
        ScenarioSpec(3, 2, 2, peak_capacity_ues=1, traffic_noise=1.5),
        ScenarioSpec(40, 30, 1, peak_capacity_load=0.9, traffic_noise=0.0),
    ])
    def test_true_traffic_equals_the_cell_hour_loop(self, spec):
        """The array build against the cell-by-cell, hour-by-hour loop it
        replaced: same arrays bit for bit, same generator state after."""
        cfg = _build_network(spec)
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        traffic = _build_true_traffic(cfg, spec, rng)
        mean = np.empty((24, len(cfg.cells), 3))
        std = np.empty_like(mean)
        factors = {c.id: twin.uniform(0.75, 1.25) for c in cfg.cells}
        for k, cell in enumerate(cfg.cells):
            is_cap = cell.id in cfg.capacity_cells
            peak_load = (spec.peak_capacity_load if is_cap
                         else spec.peak_coverage_load)
            peak_ues = (spec.peak_capacity_ues if is_cap
                        else spec.peak_capacity_ues * 1.2)
            f = factors[cell.id]
            for hour in range(1, 25):
                p = diurnal_profile(hour)
                mu = (peak_ues * p * f, peak_load * cell.n_dl_prb * p * f,
                      0.4 * peak_load * cell.n_ul_prb * p * f)
                mean[hour - 1, k] = mu
                std[hour - 1, k] = [max(spec.traffic_noise * m, floor)
                                    for m, floor in zip(mu, (0.3, 0.5, 0.3))]
        assert traffic.cells == tuple(c.id for c in cfg.cells)
        assert traffic.mean.tobytes() == mean.tobytes()
        assert traffic.std.tobytes() == std.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


class TestGenerateScenario:
    def test_row_counts_match_spec(self, tmp_path):
        # 30 capacity + 20 coverage over 5 days: 50 * 24 * 5 KPI rows
        spec = ScenarioSpec(n_capacity=30, n_coverage=20, n_days=5,
                            reports_per_cell_hour=2)
        scenario = generate_scenario(spec, tmp_path, seed=5)
        cfg, kpis, energies, mrs = parse_datasets(tmp_path)
        assert len(cfg.cells) == 50
        assert len(kpis) == 50 * 24 * 5
        assert len(energies) == 50 * 24 * 5
        biased = parse_kpis(tmp_path / "kpi_biased.csv")
        assert len(biased) == 50 * 24 * 5
        # the parsed engineering file reproduces the in-memory network
        assert cfg == scenario.cfg

    def test_same_seed_bit_identical_files(self, tmp_path):
        spec = ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1)
        generate_scenario(spec, tmp_path / "a", seed=9)
        generate_scenario(spec, tmp_path / "b", seed=9)
        for name in ("engineering.csv", "kpi.csv", "energy.csv", "mr.csv",
                     "kpi_biased.csv", "energy_biased.csv", "scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_invalid_spec_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            generate_scenario(ScenarioSpec(n_coverage=0), tmp_path, seed=0)
        with pytest.raises(InvalidSpecError):
            generate_scenario(ScenarioSpec(n_days=0), tmp_path, seed=0)

    def test_reports_per_cell_hour_below_one_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError, match="measurement report"):
            generate_scenario(ScenarioSpec(2, 1, 1, reports_per_cell_hour=0),
                              tmp_path, seed=1)

    def test_memory_held_and_peak_are_bounded(self, tmp_path):
        """The KPI rows and the reports stay arrays until written, so the
        scenario holds its reports as columns and no campaign is ever a list
        of records. Measured 3.39 MB held and a 9.49 MB traced peak (record
        lists: 7.18 and 14.39 MB); the bounds add 25%."""
        np.random.default_rng(0)  # numpy.random imports on first use
        tracemalloc.start()
        try:
            scenario = generate_scenario(ScenarioSpec(64, 32, 2,
                                                      reports_per_cell_hour=8),
                                         tmp_path, seed=404)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scenario.mrs) == 64 * 24 * 8
        assert held < 1.25 * 3.39e6
        assert peak < 1.25 * 9.49e6

    def test_every_capacity_cell_has_feasible_handover(self, tmp_path):
        from carriersim.rules import build_handover_model_for_hours

        spec = ScenarioSpec(n_capacity=4, n_coverage=2, n_days=1,
                            reports_per_cell_hour=4)
        scenario = generate_scenario(spec, tmp_path, seed=3)
        handover = build_handover_model_for_hours(scenario.cfg, scenario.mrs)
        for cap in scenario.cfg.capacity_cells:
            for hour in range(1, 25):
                assert sum(handover.targets(cap, hour).values()) > 0, \
                    (cap, hour)

    def test_pairing_is_lower_frequency(self, tmp_path):
        spec = ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1)
        scenario = generate_scenario(spec, tmp_path, seed=1)
        for cap, cov in scenario.cfg.pairing.items():
            assert scenario.cfg.cell(cov).frequency_mhz < \
                scenario.cfg.cell(cap).frequency_mhz


class TestGroundTruthReplay:
    def test_same_seed_identical_replay(self, tmp_path):
        spec = ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1)
        scenario = generate_scenario(spec, tmp_path, seed=2)
        cfg = AbmConfig(runs=2, max_steps=50, seed=0)
        a = ground_truth_replay(scenario, cfg)
        b = ground_truth_replay(scenario, cfg)
        assert a == b

    def test_truth_round_trip(self, tmp_path):
        spec = ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1)
        scenario = generate_scenario(spec, tmp_path, seed=2)
        tables = ground_truth_replay(scenario, AbmConfig(runs=2, max_steps=50,
                                                         seed=0))
        path = tmp_path / "truth.csv"
        write_truth(path, tables)
        assert read_truth(path) == tables

    def test_truth_file_across_chunks_is_what_csv_writer_writes(self,
                                                                tmp_path):
        # one KPI spans three of the writer's chunks, ids need quoting, and
        # the values hold -0.0, ints and numpy floats
        entities = ["a,b", 'q"x', "c\nd", "plain"]
        tables = {"ue": {(entities[i % 4] + str(i // 4), 1 + i % 24):
                         [0.1 * i, -0.0, i, np.float64(1 / 3)][i % 4]
                         for i in range(2 * _CHUNK + 5)},
                  "cs_minutes": {("e", 2): 60.0}}
        path = tmp_path / "truth.csv"
        write_truth(path, tables)
        with open(tmp_path / "reference.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kpi", "entity", "hour", "value"])
            for kpi in sorted(tables):
                for (entity, hour), value in sorted(tables[kpi].items()):
                    writer.writerow([kpi, entity, hour, repr(float(value))])
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert read_truth(path) == tables
        write_truth(path, {})
        assert path.read_bytes() == b"kpi,entity,hour,value\r\n"
        assert read_truth(path) == {}

    def test_saturated_traffic_keeps_cells_active(self, tmp_path):
        spec = ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1,
                            peak_capacity_load=0.95, peak_coverage_load=0.95,
                            peak_capacity_ues=120.0, entry_ue=1.0,
                            entry_dl_prb=1.0, entry_ul_prb=1.0)
        scenario = generate_scenario(spec, tmp_path, seed=4)
        tables = ground_truth_replay(scenario, AbmConfig(runs=2, max_steps=50,
                                                         seed=0))
        assert all(v == 0.0 for v in tables["cs_minutes"].values())
        # energy equals the active law at the simulated loads
        for (radio, hour), value in tables["energy_wh"].items():
            assert value > scenario.energy_law.sleep_wh

    def test_idle_traffic_shuts_everything_down(self, tmp_path):
        spec = ScenarioSpec(n_capacity=2, n_coverage=1, n_days=1,
                            peak_capacity_load=0.02, peak_coverage_load=0.02,
                            peak_capacity_ues=1.0, traffic_noise=0.01,
                            entry_ue=1e6, entry_dl_prb=1e6, entry_ul_prb=1e6,
                            leave_ue=1e6, leave_dl_prb=1e6, leave_ul_prb=1e6)
        scenario = generate_scenario(spec, tmp_path, seed=4)
        tables = ground_truth_replay(scenario, AbmConfig(runs=2, max_steps=50,
                                                         seed=0))
        for (cell, hour), minutes in tables["cs_minutes"].items():
            if cell in scenario.cfg.capacity_cells:
                assert minutes == 60.0, (cell, hour)
        # with every capacity cell asleep its radio draws the sleep power
        for (radio, hour), value in tables["energy_wh"].items():
            if radio.startswith("ru-cap"):
                assert value == pytest.approx(scenario.energy_law.sleep_wh)


def _truth_tables_run_by_run(scenario, outputs):
    """Reference: the true laws called once per run, as in the per-run
    loop that truth_tables_from_outputs replaced."""
    cfg = scenario.cfg
    caps = {c.id: float(c.n_dl_prb) for c in cfg.cells}
    tables = {"cs_minutes": {}, "dl_load": {}, "ue": {}, "energy_wh": {},
              "rate_mbps": {}}
    for out in outputs:
        index = {cell: i for i, cell in enumerate(out.cells)}
        for cell, i in index.items():
            tables["cs_minutes"][(cell, out.hour)] = float(
                out.cs_minutes[:, i].mean())
            tables["dl_load"][(cell, out.hour)] = float(
                out.dl_prbs[:, i].mean() / caps[cell])
            tables["ue"][(cell, out.hour)] = float(out.ues[:, i].mean())
        for radio in cfg.radio_units:
            cells = [cfg.cell(cid) for cid in radio.cell_ids]
            per_run = []
            for r in range(out.runs):
                loads = {c.id: out.dl_prbs[r, index[c.id]] / caps[c.id]
                         for c in cells}
                fractions = {c.id: out.cs_minutes[r, index[c.id]] / 60.0
                             for c in cells}
                per_run.append(scenario.energy_law.radio_energy(
                    radio.radio_type, cells, loads, fractions))
            tables["energy_wh"][(radio.id, out.hour)] = float(
                np.mean(per_run))
        for cell, i in index.items():
            active = out.cs_minutes[:, i] < 60.0
            if not active.any():
                continue
            rates = [scenario.rate_law.mean_rate(
                out.dl_prbs[r, i] / caps[cell], out.ues[r, i])
                for r in np.flatnonzero(active)]
            tables["rate_mbps"][(cell, out.hour)] = float(np.mean(rates))
    return tables


def test_truth_tables_equal_run_by_run_laws(tmp_path):
    # whatif's network at R=20: above the 8 terms where numpy's pairwise
    # sum starts to differ from a sequential one
    scenario = generate_scenario(ScenarioSpec(2, 1, 3), tmp_path, seed=7)
    handover = build_handover_model_for_hours(scenario.cfg, scenario.mrs)
    outputs = simulate_day(scenario.traffic, scenario.cfg, handover,
                           AbmConfig(runs=20, max_steps=400, seed=7))
    got = truth_tables_from_outputs(scenario, outputs)
    want = _truth_tables_run_by_run(scenario, outputs)
    def hexed(tables):
        return {k: [(key, v.hex()) for key, v in t.items()]
                for k, t in tables.items()}

    assert hexed(got) == hexed(want)
    # some cell-hours are shut down in every run, so they have no rate
    always_off = [key for key, v in got["cs_minutes"].items() if v == 60.0]
    assert always_off
    assert not set(always_off) & set(got["rate_mbps"])


def _histogram_bins(values):
    """The generator's rate binning before searchsorted: np.histogram, with
    the values it drops added to the top bin."""
    counts, _ = np.histogram(values, bins=np.asarray(DEFAULT_BIN_EDGES))
    counts[-1] += len(values) - counts.sum()
    return counts


class TestRateBins:
    @staticmethod
    def crafted():
        values = [0.0, -0.0, -1e-300, -0.05, -7.5, 300.0, 300.0000000001,
                  1e9, float(np.nextafter(300.0, np.inf))]
        for edge in DEFAULT_BIN_EDGES:
            values += [edge, float(np.nextafter(edge, -np.inf)),
                       float(np.nextafter(edge, np.inf))]
        return np.array(values)

    def test_each_value_lands_where_histogram_puts_it(self):
        for v in self.crafted():
            values = np.array([v])
            assert _rate_bins(values).tolist() == \
                _histogram_bins(values).tolist(), v

    def test_crafted_and_drawn_counts_equal_histogram(self):
        values = self.crafted()
        got = _rate_bins(values)
        assert got.tolist() == _histogram_bins(values).tolist()
        assert got.sum() == len(values)
        rng = np.random.default_rng(3)
        for rate in (0.3, 4.0, 60.0, 250.0, 900.0):
            per_ue = np.maximum(rng.normal(rate, 0.45 * rate, size=100), 0.05)
            assert _rate_bins(per_ue).tolist() == \
                _histogram_bins(per_ue).tolist(), rate

    def test_rows_of_a_block_are_binned_one_by_one(self):
        rng = np.random.default_rng(4)
        rates = np.array([0.3, 4.0, 60.0, 250.0, 900.0])[:, None]
        block = np.maximum(rates + 0.45 * rates
                           * rng.standard_normal((5, 100)), 0.05)
        block[0, :len(self.crafted())] = self.crafted()
        assert _rate_bins(block).tolist() == \
            [_histogram_bins(row).tolist() for row in block]
        assert _rate_bins(np.empty((0, 100))).shape == (0, 15)


class TestNormalStream:
    """The generator's campaigns draw their normals in blocks of
    `standard_normal` and scale them, in place of one `normal` call per value:
    fixed rows of 104 normals per unbiased cell-hour, with no generator state
    restored."""

    CALLS = [(3.0, 2.0, None), (-1.5, 0.45, 100), (0.0, 0.03, None),
             (0, 3.0, None), (250.0, 112.5, 7), (1e-3, 1e6, None)] * 400

    def test_scalar_and_sized_normals_are_loc_plus_scale_z(self):
        per_call = np.random.default_rng(5)
        got = []
        for loc, scale, size in self.CALLS:
            if size is None:
                got.append(per_call.normal(loc, scale))
            else:
                got.extend(per_call.normal(loc, scale, size=size).tolist())
        block = np.random.default_rng(5)
        z = block.standard_normal(len(got))
        expected, i = [], 0
        for loc, scale, size in self.CALLS:
            k = 1 if size is None else size
            expected.extend((loc + scale * z[i:i + k]).tolist())
            i += k
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert per_call.bit_generator.state == block.bit_generator.state

    def test_unbiased_rows_draw_fixed_blocks_with_or_without_ues(self):
        spec = ScenarioSpec(3, 2, 2, peak_capacity_ues=1.0, traffic_noise=1.5)
        cfg = _build_network(spec)
        traffic = _build_true_traffic(cfg, spec, np.random.default_rng(11))
        prbs = np.array([(c.n_dl_prb, c.n_ul_prb) for c in cfg.cells])
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        block, rate_z = _drawn_block(traffic, prbs, rng, slice(0, 5))
        ues = block[0]
        assert 0 < np.count_nonzero(ues <= 0.0) < len(ues)
        z = twin.standard_normal((len(ues), _TRAFFIC_DRAWS + _RATE_DRAWS))
        mean = traffic.mean.transpose(1, 0, 2).reshape(-1, 3)
        std = traffic.std.transpose(1, 0, 2).reshape(-1, 3)
        expected = _at_least(mean[:, 0] + std[:, 0] * z[:, 0], 0.0)
        assert ues.tobytes() == expected.tobytes()
        assert rate_z.tobytes() == z[ues > 0.0, _TRAFFIC_DRAWS:].tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


def _reports(reports):
    """Each report's serving cell, hour and {cell: rsrp} pairs, read from
    the columns."""
    return zip([reports.cells[k] for k in reports.serving.tolist()],
               reports.hour.tolist(), report_pairs(reports))


def _extras(cfg, cap, rsrp):
    """A report's extra neighbours: its cells other than the serving cell
    `cap` and its paired one."""
    return [c for c in rsrp if c not in (cap, cfg.pairing[cap])]


class TestMeasurementReports:
    """Each capacity cell draws its reports as one block of array draws."""

    @staticmethod
    def twin_reports(cfg, spec, rng):
        """The block layout drawn again from `rng`, with Floyd's picks and
        the qualifier rule done report by report: {ue_id: (timestamp,
        rsrp)}."""
        coverage = sorted(cfg.coverage_cells)
        floor = spec.a4_threshold_dbm + spec.a4_hysteresis_db
        per_hour = spec.reports_per_cell_hour
        n = 24 * per_hour
        expected = {}
        for cap in sorted(cfg.capacity_cells):
            paired = cfg.pairing[cap]
            others = [c for c in coverage if c != paired]
            m = min(3, len(others))
            z = rng.standard_normal((n, 2 + m))
            n_extra = rng.integers(0, m + 1, size=n)
            picked = [[] for _ in range(n)]
            for s in range(m):
                rows = np.flatnonzero(n_extra > s)
                drawn = rng.integers(0, len(others) - n_extra[rows] + s + 1)
                for i, t in zip(rows.tolist(), drawn.tolist()):
                    j = len(others) - int(n_extra[i]) + s
                    picked[i].append(j if t in picked[i] else t)
            minutes = rng.integers(0, 60, size=n)
            for hour in range(1, 25):
                rows = range((hour - 1) * per_hour, hour * per_hour)
                hour_reports = []
                for k, i in enumerate(rows):
                    rsrp = {cap: -85.0 + 3.0 * z[i, 0],
                            paired: -95.0 + 4.0 * z[i, 1]}
                    for e, j in enumerate(picked[i]):
                        rsrp[others[j]] = -104.0 + 5.0 * z[i, 2 + e]
                    stamp = (f"2024-04-{1 + k % 28:02d}T{hour - 1:02d}:"
                             f"{minutes[i]:02d}:00")
                    hour_reports.append((f"ue-{cap}-{hour}-{k}", stamp, rsrp))
                if not any(v > floor for _, _, rsrp in hour_reports
                           for c, v in rsrp.items() if c != cap):
                    hour_reports[0][2][paired] = floor + 10.0
                expected.update((ue, (stamp, rsrp))
                                for ue, stamp, rsrp in hour_reports)
        return expected

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(6, 3, 2),
        # a floor that few paired RSRPs clear, so the qualifier rule acts
        ScenarioSpec(5, 6, 1, reports_per_cell_hour=3, a4_threshold_dbm=-90.0),
    ])
    def test_block_layout_of_every_cell(self, spec):
        cfg = _build_network(spec)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        reports = _generate_mrs(cfg, spec, rng)
        expected = self.twin_reports(cfg, spec, twin)
        got = dict(zip(reports.ue_ids,
                       zip(reports.timestamps, report_pairs(reports))))
        assert list(got) == list(expected)
        for ue, (stamp, rsrp) in expected.items():
            assert got[ue][0] == stamp, ue
            assert list(got[ue][1]) == list(rsrp), ue
            assert np.array(list(got[ue][1].values())).tobytes() \
                == np.array(list(rsrp.values())).tobytes(), ue
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_invariants(self):
        spec = ScenarioSpec(5, 6, 1, reports_per_cell_hour=3,
                            a4_threshold_dbm=-90.0)
        cfg = _build_network(spec)
        floor = spec.a4_threshold_dbm + spec.a4_hysteresis_db
        per_cell_hour, qualified, lifted = {}, set(), 0
        for cap, hour, rsrp in _reports(
                _generate_mrs(cfg, spec, np.random.default_rng(5))):
            paired = cfg.pairing[cap]
            key = (cap, hour)
            per_cell_hour[key] = per_cell_hour.get(key, 0) + 1
            assert cap in rsrp and paired in rsrp
            extras = _extras(cfg, cap, rsrp)
            assert len(extras) <= 3
            assert set(extras) <= cfg.coverage_cells
            if any(v > floor for c, v in rsrp.items() if c != cap):
                qualified.add(key)
            lifted += rsrp[paired] == floor + 10.0
        assert set(per_cell_hour) == {(c, h) for c in cfg.capacity_cells
                                      for h in range(1, 25)}
        assert set(per_cell_hour.values()) == {3}
        assert qualified == set(per_cell_hour)
        assert lifted > 0

    def test_extra_neighbours_follow_the_analytic_law(self):
        # 5 coverage cells besides the paired one, so m = 3: n_extra is
        # uniform on 0..3 and each other cell is picked with probability
        # E[n_extra] / 5 = 0.3 per report
        spec = ScenarioSpec(4, 6, 1, reports_per_cell_hour=50)
        cfg = _build_network(spec)
        n_extra, picks, per_cell = np.zeros(4), {}, {}
        for seed in (1, 2, 3):
            for cap, _, rsrp in _reports(
                    _generate_mrs(cfg, spec, np.random.default_rng(seed))):
                extras = _extras(cfg, cap, rsrp)
                n_extra[len(extras)] += 1
                per_cell[cap] = per_cell.get(cap, 0) + 1
                for c in extras:
                    key = (cap, c)
                    picks[key] = picks.get(key, 0) + 1

        def within_5_sigma(count, trials, p):
            return abs(count - trials * p) <= 5 * np.sqrt(trials * p * (1 - p))

        total = n_extra.sum()
        assert all(within_5_sigma(c, total, 0.25) for c in n_extra), n_extra
        assert len(picks) == 4 * 5
        for (cap, c), count in picks.items():
            assert c != cfg.pairing[cap]
            assert within_5_sigma(count, per_cell[cap], 0.3), (cap, c, count)
