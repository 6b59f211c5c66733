from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriersim.datamodel import (
    A4Params,
    Cell,
    NetworkConfig,
    RadioUnit,
    ShutdownThresholds,
)
from carriersim.rules import (
    a4_qualifies,
    build_handover_model,
    build_handover_model_for_hours,
    check_shutdown_entry,
    check_wakeup,
    transfer_candidates,
)

from conftest import make_network, make_reports

TH = ShutdownThresholds(entry_ue=10.0, entry_dl_prb=100.0, entry_ul_prb=50.0,
                        leave_ue=40.0, leave_dl_prb=100.0, leave_ul_prb=60.0)


class TestShutdownEntry:
    def test_all_conditions_hold(self):
        assert check_shutdown_entry(5, 20, 10, 5, 5, TH) is True

    def test_strict_inequality_at_ue_boundary(self):
        assert check_shutdown_entry(10, 20, 10, 5, 5, TH) is False

    def test_and_semantics_dl_over(self):
        assert check_shutdown_entry(5, 60, 60, 5, 5, TH) is False

    @given(ues=st.floats(0, 100), dl=st.floats(0, 300), dlp=st.floats(0, 300),
           ul=st.floats(0, 150), ulp=st.floats(0, 150),
           shrink=st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_load(self, ues, dl, dlp, ul, ulp, shrink):
        # decreasing any input never flips an eligible cell to ineligible
        before = check_shutdown_entry(ues, dl, dlp, ul, ulp, TH)
        after = check_shutdown_entry(ues * shrink, dl * shrink, dlp * shrink,
                                     ul * shrink, ulp * shrink, TH)
        if before:
            assert after

    def test_positive_margin_when_eligible(self):
        ues, dl, dlp, ul, ulp = 5, 20, 10, 5, 5
        assert check_shutdown_entry(ues, dl, dlp, ul, ulp, TH)
        assert TH.entry_dl_prb - (dl + dlp) > 0


class TestWakeup:
    def test_or_semantics(self):
        assert check_wakeup(0, 120, 0, TH) is True

    def test_all_equal_thresholds_is_false(self):
        assert check_wakeup(40, 100, 60, TH) is False

    def test_all_below_is_false(self):
        assert check_wakeup(1, 1, 1, TH) is False

    @given(ues=st.floats(0, 200), dl=st.floats(0, 300), ul=st.floats(0, 200),
           grow=st.floats(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_load(self, ues, dl, ul, grow):
        if check_wakeup(ues, dl, ul, TH):
            assert check_wakeup(ues * grow, dl * grow, ul * grow, TH)

    def test_positive_margin_when_dl_triggers(self):
        dl = 120.0
        assert check_wakeup(0, dl, 0, TH)
        assert dl - TH.leave_dl_prb > 0


class TestRulesOnArrays:
    """Array loads give the scalar predicate's result cell by cell, with the
    thresholds shared or per-cell arrays (the simulator's layout). Loads and
    thresholds come from one grid, so ties with the thresholds occur."""

    GRID = np.array([0.0, 5.0, 10.0, 20.0, 40.0, 50.0, 60.0, 90.0, 100.0])
    N = 500

    def thresholds(self, rng, shared):
        if shared:
            return TH, lambda i: TH
        arrays = {f.name: rng.choice(self.GRID, self.N)
                  for f in fields(ShutdownThresholds)}
        return SimpleNamespace(**arrays), lambda i: ShutdownThresholds(
            **{name: float(v[i]) for name, v in arrays.items()})

    @pytest.mark.parametrize("shared", [True, False])
    def test_shutdown_entry_matches_scalar(self, shared):
        rng = np.random.default_rng(11)
        th, cell_th = self.thresholds(rng, shared)
        loads = rng.choice(self.GRID, (5, self.N))
        got = check_shutdown_entry(*loads, th)
        want = [check_shutdown_entry(*map(float, loads[:, i]), cell_th(i))
                for i in range(self.N)]
        assert got.dtype == bool and got.tolist() == want
        assert 0 < sum(want) < self.N

    @pytest.mark.parametrize("shared", [True, False])
    def test_wakeup_matches_scalar(self, shared):
        rng = np.random.default_rng(12)
        th, cell_th = self.thresholds(rng, shared)
        loads = rng.choice(self.GRID, (3, self.N))
        got = check_wakeup(*loads, th)
        want = [check_wakeup(*map(float, loads[:, i]), cell_th(i))
                for i in range(self.N)]
        assert got.dtype == bool and got.tolist() == want
        assert 0 < sum(want) < self.N


class TestA4:
    def test_offsets_and_hysteresis(self):
        a4 = A4Params(threshold_dbm=-96.0, hysteresis_db=3.0,
                      freq_offset_db={"j": 2.0}, cell_offset_db={"j": 1.0})
        # -95 + 2 + 1 - 3 = -95 > -96
        assert a4_qualifies(-95.0, a4, "j") is True

    def test_strict_boundary(self):
        a4 = A4Params(threshold_dbm=-96.0, hysteresis_db=3.0,
                      freq_offset_db={"j": 2.0}, cell_offset_db={"j": 1.0})
        # -96 + 2 + 1 - 3 = -96, not strictly greater
        assert a4_qualifies(-96.0, a4, "j") is False

    def test_zero_offsets(self):
        a4 = A4Params(threshold_dbm=-100.0)
        assert a4_qualifies(-80.0, a4, "j") is True

    def test_missing_offset_reads_as_zero(self):
        a4 = A4Params(threshold_dbm=-100.0, hysteresis_db=0.0,
                      freq_offset_db={"other": 50.0})
        assert a4_qualifies(-99.9, a4, "j") is True
        assert a4_qualifies(-100.1, a4, "j") is False

    @given(rsrp=st.floats(-140, -40), tau=st.floats(-130, -60),
           k=st.floats(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_translation_covariance(self, rsrp, tau, k):
        a, b = A4Params(threshold_dbm=tau), A4Params(threshold_dbm=tau + k)
        assert a4_qualifies(rsrp, a, "j") == a4_qualifies(rsrp + k, b, "j")


def report(serving, rsrp, hour=13):
    """One make_reports row."""
    return (f"2024-03-04T{hour - 1:02d}:15:00", "u", serving, rsrp)


class TestHandoverModel:
    def test_vote_counting_matches_hand_enumeration(self):
        # three reports: b1 best-qualifying in two, b2 in one -> {b1: 2/3, b2: 1/3}
        cfg = make_network(n_capacity=1, n_coverage=2, a4_threshold=-110.0)
        mrs = [
            report("c1", {"c1": -80.0, "b1": -90.0, "b2": -100.0}),
            report("c1", {"c1": -80.0, "b1": -92.0}),
            report("c1", {"c1": -80.0, "b1": -105.0, "b2": -95.0}),
        ]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert model.targets("c1", 13) == {"b1": pytest.approx(2 / 3),
                                           "b2": pytest.approx(1 / 3)}

    def test_no_qualifying_neighbor_gives_zero_map(self):
        cfg = make_network(n_capacity=1, n_coverage=2, a4_threshold=-80.0)
        mrs = [report("c1", {"c1": -70.0, "b1": -95.0, "b2": -99.0})]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert model.targets("c1", 13) == {}

    def test_single_qualifying_neighbor_gets_probability_one(self):
        cfg = make_network(n_capacity=1, n_coverage=2, a4_threshold=-110.0)
        mrs = [report("c1", {"c1": -70.0, "b1": -95.0}) for _ in range(4)]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert model.targets("c1", 13)["b1"] == 1.0

    def test_only_voted_targets_are_stored(self):
        # b2 and b3 are candidates on the coverage layer but get no vote
        cfg = make_network(n_capacity=1, n_coverage=3, a4_threshold=-110.0)
        mrs = [report("c1", {"c1": -70.0, "b1": -95.0, "b2": -120.0})]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert model.targets("c1", 13) == {"b1": 1.0}

    def test_cell_without_reports_gets_zero_map(self):
        cfg = make_network(n_capacity=2, n_coverage=1)
        mrs = [report("c1", {"c1": -70.0, "b1": -95.0})]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert model.targets("c2", 13) == {}

    def test_tie_breaks_to_lowest_cell_id(self):
        cfg = make_network(n_capacity=1, n_coverage=3, a4_threshold=-110.0)
        mrs = [report("c1", {"c1": -70.0, "b3": -95.0, "b2": -95.0})]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert model.targets("c1", 13)["b2"] == 1.0

    def test_serving_cell_never_a_candidate(self):
        cfg = make_network(n_capacity=1, n_coverage=1)
        assert "c1" not in transfer_candidates(cfg, "c1")

    @given(st.lists(st.tuples(st.sampled_from(["c1", "c2"]),
                              st.floats(-130, -60), st.floats(-130, -60)),
                    max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_normalization_invariant(self, raw):
        cfg = make_network(n_capacity=2, n_coverage=2, a4_threshold=-100.0)
        mrs = [report(s, {s: -70.0, "b1": r1, "b2": r2}) for s, r1, r2 in raw]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        for cell in ("c1", "c2"):
            probs = model.targets(cell, 13)
            total = sum(probs.values())
            assert total == 0.0 or abs(total - 1.0) < 1e-9
            assert all(p >= 0 for p in probs.values())


def two_frequency_network():
    """c1 and c3 paired with b1 at 800 MHz, c2 and c4 with b2 at 1800 MHz,
    so capacity cells differ in their candidate layer."""
    cfg = make_network(n_capacity=4, n_coverage=2, a4_threshold=-105.0)
    cells = tuple(replace(c, frequency_mhz=1800.0) if c.id == "b2" else c
                  for c in cfg.cells)
    return replace(cfg, cells=cells)


def test_hourly_build_equals_merged_per_hour_builds():
    cfg = two_frequency_network()
    assert transfer_candidates(cfg, "c1") == ["b1"]
    assert transfer_candidates(cfg, "c2") == ["b2"]
    rng = np.random.default_rng(5)
    mrs = []
    for _ in range(600):
        serving = f"c{rng.integers(1, 5)}"
        rsrp = {serving: -70.0}
        for cell in ("b1", "b2", "c1", "c2", "c3", "c4"):
            if cell != serving and rng.random() < 0.7:
                rsrp[cell] = float(np.round(rng.normal(-100.0, 6.0)))
        mrs.append(report(serving, rsrp, hour=int(rng.integers(1, 25))))
    merged = {}
    for hour in range(1, 25):
        merged.update(build_handover_model(cfg, make_reports(
            m for m in mrs if m[0][11:13] == f"{hour - 1:02d}"),
            hour).probabilities)
    built = build_handover_model_for_hours(cfg, make_reports(mrs)).probabilities
    assert list(built.items()) == list(merged.items())
    voted = {j for pmf in built.values() for j in pmf}
    assert voted == {"b1", "b2"}
    assert all(set(built[(c, h)]) <= {"b2"}
               for c in ("c2", "c4") for h in range(1, 25))


def loop_vote(cfg, by_hour, hours):
    """The vote report by report, as it was written before the array vote:
    the reference that the array vote must equal bit for bit. `by_hour`
    maps an hour to its reports' (serving cell, {cell: rsrp}) tuples."""
    candidates = {c: set(transfer_candidates(cfg, c))
                  for c in cfg.capacity_cells}
    table = {}
    for hour in hours:
        counts = {c: {} for c in candidates}
        for serving, pairs in by_hour.get(hour, ()):
            if serving not in counts:
                continue
            a4, eligible = cfg.mobility[serving], candidates[serving]
            qualifying = [(-rsrp, j)
                          for j, rsrp in pairs.items()
                          if j in eligible
                          and (rsrp + a4.freq_offset_db.get(j, 0.0)
                               + a4.cell_offset_db.get(j, 0.0)
                               - a4.hysteresis_db) > a4.threshold_dbm]
            if qualifying:
                best = min(qualifying)[1]
                counts[serving][best] = counts[serving].get(best, 0) + 1
        for cell, votes in sorted(counts.items()):
            total = sum(votes.values())
            table[(cell, hour)] = {j: n / total
                                   for j, n in sorted(votes.items())}
    return table


def exact(table):
    """A handover table's keys, targets and probabilities, in order, with
    each probability's type and float.hex."""
    return [(key, [(j, type(p).__name__, p.hex()) for j, p in pmf.items()])
            for key, pmf in table.items()]


VOTE_IDS = ("a", "b", "c", "d", "e", "f")


@st.composite
def vote_inputs(draw):
    """A network of 2-6 cells on up to three frequencies (capacity cells may
    share the coverage frequency, coverage cells may not share one), and up
    to 40 (hour, serving cell, {cell: rsrp}) reports served by any cell,
    with pairs on any cell, the serving one (always) and an unknown one
    (which has no offsets) included. A capacity cell's threshold may sit exactly
    on the biased RSRP of one of its reports' candidate pairs. RSRPs and
    offsets are two-decimal values from a drawn seed, so that biased sums
    round differently in another order of operations (Hypothesis would
    shrink them to a few simple values); ties, 0.0 against -0.0 among them,
    come from a short list."""
    values = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def rsrp():
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from([0.0, -0.0, -95.5]))
        return int(values.integers(-12000, -6000)) / 100

    def offset():
        return int(values.integers(-600, 601)) / 100

    ids = tuple(draw(st.permutations(VOTE_IDS)))[:draw(st.integers(2, 6))]
    n_coverage = draw(st.integers(1, len(ids) - 1))
    coverage, capacity = ids[:n_coverage], ids[n_coverage:]
    freq = {c: draw(st.sampled_from([800.0, 1800.0, 3500.0])) for c in ids}
    reports = []
    for _ in range(draw(st.integers(0, 40))):
        hour = draw(st.integers(1, 24))
        serving = draw(st.sampled_from(ids))
        cells = draw(st.lists(st.sampled_from(ids + ("zz",)), unique=True,
                              max_size=5))
        if serving not in cells:   # mr.csv needs the serving cell's RSRP
            cells.insert(draw(st.integers(0, len(cells))), serving)
        reports.append((hour, serving, {c: rsrp() for c in cells}))
    pairing = {c: draw(st.sampled_from(coverage)) for c in capacity}
    mobility = {}
    for c in ids:
        offsets = [{j: offset() for j in ids} for _ in "fc"]
        a4 = A4Params(draw(st.sampled_from([-130.0, -100.0, -0.0, 0.0])),
                      draw(st.sampled_from([0.0, 0.3, 2.0])), *offsets)
        boundary = [(j, v) for _, serving, pairs in reports if serving == c
                    and c in pairing for j, v in pairs.items()
                    if j != c and freq.get(j) == freq[pairing[c]]]
        if boundary and draw(st.booleans()):
            j, v = draw(st.sampled_from(boundary))
            a4 = replace(a4, threshold_dbm=v + a4.freq_offset_db.get(j, 0.0)
                         + a4.cell_offset_db.get(j, 0.0) - a4.hysteresis_db)
        mobility[c] = a4
    cfg = NetworkConfig(
        radio_units=tuple(RadioUnit(f"ru-{c}", "r", 4, "4T4R", (c,))
                          for c in ids),
        cells=tuple(Cell(c, f"ru-{c}", freq[c], 20.0, 43.0, 100, 100)
                    for c in ids),
        capacity_cells=frozenset(capacity), coverage_cells=frozenset(coverage),
        pairing=pairing, mobility=mobility,
        energy_saving={c: ShutdownThresholds(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
                       for c in capacity})
    return cfg, reports


class TestArrayVote:
    """The vote on the report arrays equals the report-by-report loop."""

    @given(vote_inputs())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_report_loop(self, inputs):
        cfg, rows = inputs
        by_hour = {}
        for hour, *r in rows:
            by_hour.setdefault(hour, []).append(r)
        reports = make_reports(report(serving, pairs, hour)
                               for hour, serving, pairs in rows)
        expected = exact(loop_vote(cfg, by_hour, range(1, 25)))
        assert exact(build_handover_model_for_hours(
            cfg, reports).probabilities) == expected
        # one hour's model votes every report it is given
        assert exact(build_handover_model(cfg, reports, 7).probabilities) \
            == exact(loop_vote(cfg, {7: [r[1:] for r in rows]}, (7,)))

    def test_signed_zero_rsrps_tie_to_the_lowest_id(self):
        cfg = make_network(n_capacity=1, n_coverage=3, a4_threshold=-110.0)
        mrs = [report("c1", {"c1": -70.0, "b3": 0.0, "b2": -0.0}),
               report("c1", {"c1": -70.0, "b2": 0.0, "b1": -0.0, "b3": 0.0})]
        model = build_handover_model(cfg, make_reports(mrs), hour=13)
        assert exact(model.probabilities) == [
            (("c1", 13), [("b1", "float", (0.5).hex()),
                          ("b2", "float", (0.5).hex())])]


@given(vote_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_array_vote_reads_a_missing_offset_as_zero(inputs, data):
    """vote_inputs with each A4 offset map thinned to a drawn subset, plus
    offsets towards a cell the reports may name (zz) and one they never
    name (yy): still the report loop's table."""
    cfg, rows = inputs

    def thinned(offsets):
        kept = {j: v for j, v in offsets.items() if data.draw(st.booleans())}
        return {**kept, **data.draw(st.sampled_from(
            [{}, {"zz": 50.0}, {"yy": 50.0}]))}

    cfg = replace(cfg, mobility={
        c: replace(a4, freq_offset_db=thinned(a4.freq_offset_db),
                   cell_offset_db=thinned(a4.cell_offset_db))
        for c, a4 in cfg.mobility.items()})
    by_hour = {}
    for hour, *r in rows:
        by_hour.setdefault(hour, []).append(r)
    reports = make_reports(report(serving, pairs, hour)
                           for hour, serving, pairs in rows)
    assert exact(build_handover_model_for_hours(cfg, reports).probabilities) \
        == exact(loop_vote(cfg, by_hour, range(1, 25)))
