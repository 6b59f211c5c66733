import csv
import dataclasses
import io

import numpy as np
import pytest

from carriersim.abm import (
    AbmConfig,
    HourlyOutputs,
    SimNetwork,
    _apply_shutdown,
    _certified_pick,
    _coerce_start,
    _eligible_masks,
    _entry,
    _handover_targets,
    _live_targets,
    _new_state,
    _pick,
    _reactivate,
    _shutdown,
    _Uniforms,
    build_transfer_table,
    eligible_sets,
    mean_tables,
    read_mean_report,
    reactivate,
    replay_log,
    run_benchmark,
    run_monte_carlo,
    select_agent,
    simulate_day,
    transfer_users,
    write_hourly_report,
    write_run_dump,
)
from carriersim.datamodel import ShutdownThresholds
from carriersim.errors import EmptyCandidateSetError
from carriersim.rules import transfer_candidates

from conftest import make_handover, make_network, make_traffic


def fresh_state(cfg, traffic_values, hour=1, seed=0):
    net = SimNetwork(cfg)
    tm = make_traffic(cfg, traffic_values)
    return _new_state(net, tm, hour, np.random.default_rng(seed)), tm


def run_once(cfg, traffic_values, handover, seed=0, max_steps=400, hour=1,
             start=None, on_step=None, record=False):
    tm = make_traffic(cfg, traffic_values)
    abm_cfg = AbmConfig(runs=1, max_steps=max_steps, seed=seed)
    return run_monte_carlo(tm, cfg, handover, abm_cfg, start, hour,
                           np.random.default_rng(seed), on_step=on_step,
                           record=record)


def cofrequency_network():
    """c1 and c2 paired with b1, all three on b1's frequency, so each
    capacity cell is an A4 target of the other."""
    cfg = make_network(n_capacity=2, n_coverage=1)
    cells = tuple(dataclasses.replace(c, frequency_mhz=800.0)
                  for c in cfg.cells)
    cfg = dataclasses.replace(cfg, cells=cells)
    assert transfer_candidates(cfg, "c2") == ["b1", "c1"]
    return cfg


COFREQ_TRAFFIC = {"c1": (1, 5, 2), "c2": (3, 12, 5), "b1": (8, 20, 5)}


class TestEligibleSets:
    def test_heavily_loaded_network_has_no_candidates(self):
        cfg = make_network(n_capacity=2, n_coverage=1)
        state, _ = fresh_state(cfg, {"c1": (50, 200, 80), "c2": (50, 200, 80),
                                     "b1": (30, 80, 40)})
        assert eligible_sets(state) == (set(), set())

    def test_idle_capacity_cell_is_shutdown_candidate(self):
        cfg = make_network(n_capacity=2, n_coverage=1)
        state, _ = fresh_state(cfg, {"c1": (3, 12, 5), "c2": (50, 200, 80),
                                     "b1": (8, 20, 5)})
        assert eligible_sets(state) == ({"c1"}, set())

    def test_transfer_raising_coverage_load_triggers_wakeup(self):
        # c1 dumps 80 PRBs onto b1 (20 -> 100), crossing leave_dl 90
        cfg = make_network(n_capacity=1, n_coverage=1,
                           entry_ue=10, entry_dl=150, entry_ul=50,
                           leave_ue=200, leave_dl=90, leave_ul=100)
        state, _ = fresh_state(cfg, {"c1": (5, 80, 5), "b1": (8, 20, 5)})
        assert eligible_sets(state) == ({"c1"}, set())
        handover = make_handover({"c1": {"b1": 1.0}})
        assert transfer_users("c1", state, handover, 1, np.random.default_rng(0))
        sd, ac = eligible_sets(state)
        assert ac == {"c1"}
        assert sd == set()


class TestSelectAgent:
    TH = {
        "a": ShutdownThresholds(11, 11, 11, 0, 10, 1e9),
        "b": ShutdownThresholds(13, 13, 13, 0, 10, 1e9),
    }

    def test_two_candidate_distribution(self):
        # margins {a: 1, b: 3} -> P(a) = 0.25, P(b) = 0.75
        rng = np.random.default_rng(42)
        loads = {"a": 10.0, "b": 10.0}
        picks = [select_agent({"a", "b"}, set(), loads, self.TH, rng)
                 for _ in range(20000)]
        freq_a = picks.count("a") / len(picks)
        assert freq_a == pytest.approx(0.25, abs=0.02)

    def test_single_candidate_always_selected(self):
        rng = np.random.default_rng(0)
        assert select_agent({"a"}, set(), {"a": 10.0}, self.TH, rng) == "a"

    def test_empty_candidate_set_raises(self):
        with pytest.raises(EmptyCandidateSetError):
            select_agent(set(), set(), {}, {}, np.random.default_rng(0))

    def test_zero_total_margin_falls_back_to_uniform(self):
        # wakeup candidates qualified via non-DL conditions: distance <= 0
        rng = np.random.default_rng(7)
        loads = {"a": 5.0, "b": 5.0}  # below leave_dl 10 -> clamped to 0
        picks = [select_agent(set(), {"a", "b"}, loads, self.TH, rng)
                 for _ in range(4000)]
        assert picks.count("a") / len(picks) == pytest.approx(0.5, abs=0.05)


class TestTransferUsers:
    def test_conservation_single_target(self):
        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (3, 12, 6), "b1": (8, 20, 5)})
        before = state.totals()
        handover = make_handover({"c1": {"b1": 1.0}})
        assert transfer_users("c1", state, handover, 1, np.random.default_rng(1))
        i_c1 = state.net.index["c1"]
        i_b1 = state.net.index["b1"]
        assert state.ue[i_b1] == pytest.approx(11.0, abs=1e-6)
        assert state.dl[i_b1] == pytest.approx(32.0, abs=1e-6)
        assert state.ue[i_c1] == 0.0 and state.dl[i_c1] == 0.0
        assert state.t_cs[i_c1] == 60.0
        assert not state.x[state.net.cap_index["c1"]]
        after = state.totals()
        for b, a in zip(before, after):
            assert a == pytest.approx(b, rel=1e-12)

    def test_all_zero_probabilities_abort_leave_state_bit_identical(self):
        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (3, 12, 6), "b1": (8, 20, 5)})
        fp = state.fingerprint()
        handover = make_handover({"c1": {"b1": 0.0}})
        assert not transfer_users("c1", state, handover, 1,
                                  np.random.default_rng(1))
        assert state.fingerprint() == fp

    def test_zero_ue_cell_shuts_down_without_transfers(self):
        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (0, 0, 0), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        assert transfer_users("c1", state, handover, 1, np.random.default_rng(1))
        i_b1 = state.net.index["b1"]
        assert state.ue[i_b1] == pytest.approx(8.0, abs=1e-6)
        assert state.t_cs[state.net.index["c1"]] == 60.0

    def test_split_targets_conserve_totals(self):
        cfg = make_network(n_capacity=1, n_coverage=3)
        state, _ = fresh_state(cfg, {"c1": (9, 27, 9), "b1": (5, 10, 5),
                                     "b2": (5, 10, 5), "b3": (5, 10, 5)})
        before = state.totals()
        handover = make_handover({"c1": {"b1": 0.5, "b2": 0.3, "b3": 0.2}})
        assert transfer_users("c1", state, handover, 1, np.random.default_rng(3))
        after = state.totals()
        for b, a in zip(before, after):
            assert a == pytest.approx(b, rel=1e-12)

    def test_shut_down_capacity_target_is_dropped(self):
        cfg = cofrequency_network()
        state, _ = fresh_state(cfg, COFREQ_TRAFFIC)
        i = state.net.index
        rng = np.random.default_rng(5)
        assert transfer_users("c1", state, make_handover({"c1": {"b1": 1.0}}),
                              1, rng)
        before = state.totals()
        handover = make_handover({"c2": {"c1": 0.5, "b1": 0.5}})
        assert transfer_users("c2", state, handover, 1, rng)
        # c1 is off: every UE of c2 lands on b1, none on c1
        assert {move[1] for move in state.replay.events[-1][3]} == {i["b1"]}
        assert state.ue[i["c1"]] == 0.0 and state.dl[i["c1"]] == 0.0
        assert state.ue[i["b1"]] == pytest.approx(12.0, abs=1e-6)
        for b, a in zip(before, state.totals()):
            assert a == pytest.approx(b, rel=1e-12)

    def test_only_shut_down_targets_abandons(self):
        cfg = cofrequency_network()
        state, _ = fresh_state(cfg, COFREQ_TRAFFIC)
        rng = np.random.default_rng(5)
        transfer_users("c1", state, make_handover({"c1": {"b1": 1.0}}), 1, rng)
        fp = state.fingerprint()
        assert not transfer_users("c2", state,
                                  make_handover({"c2": {"c1": 1.0}}), 1, rng)
        assert state.fingerprint() == fp


class TestReactivate:
    def test_shutdown_then_reactivate_is_identity(self):
        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (3, 12, 6), "b1": (8, 20, 5)})
        fp = state.fingerprint()
        handover = make_handover({"c1": {"b1": 1.0}})
        transfer_users("c1", state, handover, 1, np.random.default_rng(1))
        reactivate("c1", state)
        assert state.fingerprint() == fp

    def test_only_first_cells_ues_return(self):
        # hand-traced: c1 (3 UEs, 12 PRBs) and c2 (2 UEs, 8 PRBs) both shut
        # down onto b1 (10 UEs, 20 PRBs); reactivating c1 leaves c2's UEs there
        cfg = make_network(n_capacity=2, n_coverage=1)
        state, _ = fresh_state(cfg, {"c1": (3, 12, 0), "c2": (2, 8, 0),
                                     "b1": (10, 20, 0)})
        handover = make_handover({"c1": {"b1": 1.0}, "c2": {"b1": 1.0}})
        rng = np.random.default_rng(0)
        transfer_users("c1", state, handover, 1, rng)
        transfer_users("c2", state, handover, 1, rng)
        i = state.net.index
        assert state.ue[i["b1"]] == pytest.approx(15.0, abs=1e-6)
        assert state.dl[i["b1"]] == pytest.approx(40.0, abs=1e-6)
        reactivate("c1", state)
        assert state.ue[i["c1"]] == pytest.approx(3.0, abs=1e-6)
        assert state.dl[i["c1"]] == pytest.approx(12.0, abs=1e-6)
        assert state.ue[i["b1"]] == pytest.approx(12.0, abs=1e-6)
        assert state.dl[i["b1"]] == pytest.approx(28.0, abs=1e-6)
        assert state.ue[i["c2"]] == 0.0

    def test_reactivate_empty_ue_set_flips_flag_only(self):
        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (0, 0, 0), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        transfer_users("c1", state, handover, 1, np.random.default_rng(1))
        fp_b1 = state.ue[state.net.index["b1"]]
        reactivate("c1", state)
        assert state.x[state.net.cap_index["c1"]]
        assert state.t_cs[state.net.index["c1"]] == 0.0
        assert state.ue[state.net.index["b1"]] == fp_b1

    def test_reactivate_active_cell_rejected(self):
        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (3, 12, 6), "b1": (8, 20, 5)})
        with pytest.raises(ValueError):
            reactivate("c1", state)

    def test_corrupted_ledger_raises_inconsistent_replay(self):
        from carriersim.errors import InconsistentReplayError

        cfg = make_network()
        state, _ = fresh_state(cfg, {"c1": (3, 12, 6), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        transfer_users("c1", state, handover, 1, np.random.default_rng(1))
        # a host holding a negative contribution means the log is corrupt
        i_b1 = state.net.index["b1"]
        state.contribs[i_b1].append((0, -1000, -1e6, -1e6))
        with pytest.raises(InconsistentReplayError):
            state._refold(i_b1)


class TestRunMonteCarlo:
    def test_nothing_qualifies_returns_at_step_one(self):
        cfg = make_network(n_capacity=2, n_coverage=1)
        handover = make_handover({"c1": {"b1": 1.0}, "c2": {"b1": 1.0}})
        result = run_once(cfg, {"c1": (50, 200, 80), "c2": (50, 200, 80),
                                "b1": (30, 80, 40)}, handover)
        assert result.stable
        assert result.steps == 1
        assert np.asarray(result.state.x).all()

    def test_single_idle_cell_stable_at_step_two(self):
        cfg = make_network()
        handover = make_handover({"c1": {"b1": 1.0}})
        result = run_once(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)}, handover)
        assert result.stable
        assert result.steps == 2
        assert not result.state.x[0]
        assert result.state.t_cs[result.state.net.index["c1"]] == 60.0

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            AbmConfig(runs=0)
        with pytest.raises(ValueError):
            AbmConfig(max_steps=0)

    def test_everything_shuts_down_within_capacity_steps(self):
        # entry thresholds huge, leave thresholds huge: all cells shut once
        n = 6
        cfg = make_network(n_capacity=n, n_coverage=2, entry_ue=1e9,
                           entry_dl=1e9, entry_ul=1e9, leave_ue=1e9,
                           leave_dl=1e9, leave_ul=1e9)
        handover = make_handover(
            {f"c{i + 1}": {"b1": 0.5, "b2": 0.5} for i in range(n)})
        values = {f"c{i + 1}": (4, 15, 6) for i in range(n)}
        values.update({"b1": (8, 20, 5), "b2": (8, 20, 5)})
        result = run_once(cfg, values, handover)
        assert result.stable
        assert not np.asarray(result.state.x).any()
        assert result.steps <= n + 1

    def test_zero_entry_thresholds_freeze_configuration(self):
        cfg = make_network(entry_ue=0.0, entry_dl=0.0, entry_ul=0.0)
        handover = make_handover({"c1": {"b1": 1.0}})
        result = run_once(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)}, handover)
        assert result.stable and np.asarray(result.state.x).all()

    def test_stability_means_no_candidates_on_recheck(self):
        cfg = make_network(n_capacity=3, n_coverage=2)
        handover = make_handover(
            {"c1": {"b1": 1.0}, "c2": {"b1": 0.5, "b2": 0.5}, "c3": {"b2": 1.0}})
        values = {"c1": (3, 12, 5), "c2": (20, 60, 20), "c3": (4, 18, 6),
                  "b1": (8, 20, 5), "b2": (6, 15, 4)}
        result = run_once(cfg, values, handover, seed=5)
        assert result.stable
        assert eligible_sets(result.state) == (set(), set())

    def test_conservation_at_every_step_with_wakeups(self):
        # low leave thresholds force reactivations; totals must stay constant
        cfg = make_network(n_capacity=4, n_coverage=2, entry_ue=20,
                           entry_dl=120, entry_ul=60, leave_ue=14,
                           leave_dl=40, leave_ul=30)
        handover = make_handover(
            {f"c{i + 1}": {"b1": 0.6, "b2": 0.4} for i in range(4)})
        values = {f"c{i + 1}": (5, 18, 7) for i in range(4)}
        values.update({"b1": (8, 20, 5), "b2": (6, 15, 4)})
        tm = make_traffic(cfg, values)
        for seed in range(10):
            totals = []
            abm_cfg = AbmConfig(runs=1, max_steps=60, seed=seed)
            result = run_monte_carlo(
                tm, cfg, handover, abm_cfg, None, 1, np.random.default_rng(seed),
                on_step=lambda st, t: totals.append(st.totals()))
            assert totals, "expected at least one acted step"
            first = totals[0]
            for tot in totals:
                for a, b in zip(first, tot):
                    assert b == pytest.approx(a, rel=1e-9)

    def test_replay_reproduces_final_state(self):
        cfg = make_network(n_capacity=4, n_coverage=2, entry_ue=20,
                           entry_dl=120, entry_ul=60, leave_ue=14,
                           leave_dl=40, leave_ul=30)
        handover = make_handover(
            {f"c{i + 1}": {"b1": 0.6, "b2": 0.4} for i in range(4)})
        values = {f"c{i + 1}": (5, 18, 7) for i in range(4)}
        values.update({"b1": (8, 20, 5), "b2": (6, 15, 4)})
        for seed in range(20):
            result = run_once(cfg, values, handover, seed=seed, max_steps=50,
                              record=True)
            replayed = replay_log(result.state.replay, result.state.net)
            assert replayed.fingerprint() == result.state.fingerprint()

    def test_unrecorded_run_logs_no_events_and_cannot_be_replayed(self):
        cfg = _oscillating(4, 2)
        handover = make_handover(
            {f"c{i + 1}": {"b1": 0.6, "b2": 0.4} for i in range(4)})
        values = {f"c{i + 1}": (5, 18, 7) for i in range(4)}
        values.update({"b1": (8, 20, 5), "b2": (6, 15, 4)})
        result = run_once(cfg, values, handover, max_steps=50)
        assert result.steps > 1
        log = result.state.replay
        assert log.events is None
        # the drawn base is kept either way
        assert log.base_ue.tolist() == result.state.base_ue
        with pytest.raises(ValueError, match="recorded no replay events"):
            replay_log(log, result.state.net)


class TestRollIn:
    """A rolled-in capacity cell with no live transfer target for the hour:
    today the roll-in drops its shutdown without a trace, so the run starts
    from another configuration than its pool entry (ROADMAP item 2b)."""

    @pytest.mark.parametrize("pmfs", [
        {"c1": {"b1": 1.0}, "c2": {}, "c3": {"b1": 1.0}},
        # c2's one target is c1, which the roll-in shut down before c2
        {"c1": {"b1": 1.0}, "c2": {"c1": 1.0}, "c3": {"b1": 1.0}},
    ], ids=["no-target", "target-rolled-in"])
    def test_the_cell_stays_active_and_the_others_shut_down(self, pmfs):
        # no cell may shut down or wake up: the run ends as its roll-in does
        cfg = make_network(n_capacity=3, n_coverage=1, entry_ue=0.0,
                           entry_dl=0.0, entry_ul=0.0, leave_ue=1e9,
                           leave_dl=1e9, leave_ul=1e9)
        values = {"c1": (4, 14, 5), "c2": (5, 16, 6), "c3": (3, 9, 4),
                  "b1": (7, 22, 6)}
        result = run_once(cfg, values, make_handover(pmfs), max_steps=5,
                          start=[False, False, False], record=True)
        state, net = result.state, result.state.net
        assert (result.steps, result.stable) == (1, True)
        assert dict(zip(net.cap_ids, state.x)) \
            == {"c1": False, "c2": True, "c3": False}
        assert [(e[0], e[1], net.cap_ids[e[2]]) for e in state.replay.events] \
            == [("sd", 0, "c1"), ("sd", 0, "c3")]
        c2, b1 = net.index["c2"], net.index["b1"]
        assert (state.ue[c2], state.dl[c2], state.ul[c2], state.t_cs[c2]) \
            == (state.base_ue[c2], state.base_dl[c2], state.base_ul[c2], 0.0)
        assert state.ue[b1] == 7 + 4 + 3
        assert replay_log(state.replay, net).fingerprint() \
            == state.fingerprint()


# The stepper as it was before selection state was kept incrementally:
# eligibility and margins recomputed over every capacity cell at each step.
# Copied verbatim so that run_monte_carlo can be held to it bit for bit.


def _reference_pick(margins, rng):
    weights = np.maximum(margins, 0.0)
    total = weights.sum()
    if total <= 0.0:
        cum = np.arange(1, len(weights) + 1) / len(weights)
    else:
        cum = np.cumsum(weights / total)
    cum[-1] = 1.0
    k = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(k, len(weights) - 1)


def _reference_select(state, sd, ac, rng):
    net = state.net
    cap, paired = net.cap_global, net.paired_global
    d = np.zeros(net.n_cap)
    # shutdown margin on the frozen draws, wakeup margin on current counters
    d[sd] = (net.th.entry_dl_prb[sd]
             - (np.asarray(state.base_dl)[cap]
                + np.asarray(state.base_dl)[paired])[sd])
    d[ac] = np.asarray(state.dl)[paired][ac] - net.th.leave_dl_prb[ac]
    idx = np.flatnonzero(sd | ac)
    return int(idx[_reference_pick(d[idx], rng)])


def _reference_draw_moves(state, a, targets, cum, rng):
    net = state.net
    g = net.cap_global[a]
    n_ue = int(round(state.ue[g]))
    if n_ue == 0:
        return []
    m_dl = state.dl[g] / n_ue
    m_ul = state.ul[g] / n_ue
    groups = [(a, int(round(state.base_ue[g])))]
    groups += [(origin, n) for origin, n, _, _ in state.contribs[g]]
    moves = []
    for origin, count in groups:
        if count == 0:
            continue
        picks = np.searchsorted(cum, rng.random(count), side="right")
        np.minimum(picks, len(targets) - 1, out=picks)
        counts = np.bincount(picks, minlength=len(targets))
        for slot in np.flatnonzero(counts):
            n = int(counts[slot])
            moves.append((origin, int(targets[slot]), n, n * m_dl, n * m_ul))
    return moves


def _reference_transfer(state, a, entry, rng, step):
    entry = _live_targets(state.net, state.x, entry)
    if entry is None:
        return False
    targets, _, cum, _ = entry
    moves = _reference_draw_moves(state, a, targets, cum, rng)
    for h in _apply_shutdown(state, a, moves, step):
        state._refold(h)
    return True


def reference_run(tm, cfg, handover, abm_cfg, starting_x, hour, rng):
    """(state, steps, stable, candidate count of every acted step)."""
    net = SimNetwork(cfg)
    table = build_transfer_table(net, handover, hour)
    start = _coerce_start(net, starting_x)
    state = _new_state(net, tm, hour, rng)
    for a in np.flatnonzero(~start):
        _reference_transfer(state, int(a), table[a], rng, step=0)
    n_cand = []
    for t in range(1, abm_cfg.max_steps + 1):
        sd, ac = _eligible_masks(state)
        if not sd.any() and not ac.any():
            return state, t, True, n_cand
        n_cand.append(int((sd | ac).sum()))
        a = _reference_select(state, sd, ac, rng)
        if state.x[a]:
            _reference_transfer(state, a, table[a], rng, step=t)
        else:
            _reactivate(state, a, step=t)
    return state, abm_cfg.max_steps, False, n_cand


def _oscillating(n_capacity, n_coverage):
    """Low leave thresholds: shutdowns push coverage cells into wakeups."""
    return make_network(n_capacity=n_capacity, n_coverage=n_coverage,
                        entry_ue=20, entry_dl=120, entry_ul=60, leave_ue=14,
                        leave_dl=40, leave_ul=30)


REFERENCE_CASES = {
    # multi-target PMFs, capacity cells as targets, chained foreign UEs
    # (c1 -> c2 -> c3 -> b2), and c4 whose shutdowns are always abandoned
    "mixed": (_oscillating(4, 2),
              {"c1": {"c2": 0.5, "b1": 0.5}, "c2": {"c3": 0.7, "b1": 0.3},
               "c3": {"b2": 0.6, "c4": 0.4}, "c4": {}},
              {"c1": (5, 18, 7), "c2": (4, 12, 5), "c3": (6, 20, 8),
               "c4": (3, 10, 4), "b1": (8, 20, 5), "b2": (6, 15, 4)}),
    # one capacity cell with one target: single-candidate, single-target
    "single": (_oscillating(1, 1), {"c1": {"b1": 1.0}},
               {"c1": (5, 18, 7), "b1": (8, 30, 5)}),
    # a capacity target that is itself shut down drops out of the PMF, and
    # c3's only target is c1, so c3 abandons while c1 is off
    "chain": (_oscillating(3, 1),
              {"c1": {"c2": 1.0}, "c2": {"c3": 0.5, "b1": 0.5},
               "c3": {"c1": 1.0}},
              {"c1": (4, 14, 5), "c2": (5, 16, 6), "c3": (3, 9, 4),
               "b1": (7, 22, 6)}),
    # c1 carries about 150 UEs, so one group's draws span uniform-buffer
    # refills; its shutdown pushes b1 and b2 past leave_ue = 60
    "crowd": (make_network(n_capacity=3, n_coverage=2, entry_ue=200,
                           entry_dl=260, entry_ul=200, leave_ue=60,
                           leave_dl=150, leave_ul=150),
              {"c1": {"b1": 0.5, "b2": 0.3, "c2": 0.2},
               "c2": {"b2": 0.6, "c1": 0.4}, "c3": {"b1": 1.0}},
              {"c1": (150, 120, 60), "c2": (8, 20, 10), "c3": (5, 15, 6),
               "b1": (10, 30, 10), "b2": (12, 25, 8)}),
}


def _assert_counters_are_folds(state, t):
    """Every active cell's counters are, bit for bit, its drawn base plus the
    contributions its ledger holds, added in ledger order; a shut-down cell's
    are zero and it hosts nothing."""
    net = state.net
    for g in range(net.n_cells):
        k = net.cap_of_global[g]
        if k >= 0 and not state.x[k]:
            assert not state.contribs.get(g), (t, g)
            want = (0.0, 0.0, 0.0)
        else:
            ue, dl, ul = state.base_ue[g], state.base_dl[g], state.base_ul[g]
            for _, n, dla, ula in state.contribs.get(g, ()):
                ue += n
                dl += dla
                ul += ula
            want = (ue, dl, ul)
        got = (state.ue[g], state.dl[g], state.ul[g])
        assert [float(v).hex() for v in got] \
            == [float(v).hex() for v in want], (t, g)


class TestIncrementalStepperMatchesReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_bit_identical_for_seeds_0_to_49(self, case):
        cfg, pmfs, values = REFERENCE_CASES[case]
        tm = make_traffic(cfg, values, std=2.0)
        handover = make_handover(pmfs)
        abm_cfg = AbmConfig(runs=1, max_steps=60)
        seen = {"ac": 0, "foreign": 0, "cap_target": 0, "multi_target": 0,
                "abandoned": 0, "one_candidate": 0, "many_candidates": 0,
                "crowd": 0, "rollin_abandoned": 0, "rollin_foreign": 0}
        for seed in range(50):
            n_cap = len(cfg.capacity_cells)
            start = np.random.default_rng(1000 + seed).random(n_cap) < 0.4
            rng = np.random.default_rng(seed)
            got = run_monte_carlo(tm, cfg, handover, abm_cfg, start, 1, rng,
                                  on_step=_assert_counters_are_folds,
                                  record=True)
            state, steps, stable, n_cand = reference_run(
                tm, cfg, handover, abm_cfg, start, 1,
                np.random.default_rng(seed))
            assert got.state.fingerprint() == state.fingerprint()
            assert got.state.replay.events == state.replay.events
            assert (got.steps, got.stable) == (steps, stable)
            # recording changes nothing the run computes or draws
            bare_rng = np.random.default_rng(seed)
            bare = run_monte_carlo(tm, cfg, handover, abm_cfg, start, 1,
                                   bare_rng)
            assert bare.state.replay.events is None
            assert bare.state.fingerprint() == state.fingerprint()
            assert (bare.steps, bare.stable) == (steps, stable)
            assert bare_rng.bit_generator.state == rng.bit_generator.state
            net = state.net
            acted = [e for e in state.replay.events if e[1] > 0]
            seen["ac"] += sum(e[0] == "ac" for e in acted)
            seen["abandoned"] += len(n_cand) - len(acted)
            seen["one_candidate"] += n_cand.count(1)
            seen["many_candidates"] += sum(n > 1 for n in n_cand)
            # roll-in shutdowns are logged at step 0; a rolled cell with no
            # feasible target stays active
            rolled = [e for e in state.replay.events if e[1] == 0]
            seen["rollin_abandoned"] += int((~start).sum()) - len(rolled)
            seen["rollin_foreign"] += sum(any(m[0] != e[2] for m in e[3])
                                          for e in rolled)
            for e in state.replay.events:
                if e[0] != "sd":
                    continue
                seen["foreign"] += any(m[0] != e[2] for m in e[3])
                seen["cap_target"] += any(net.is_capacity[m[1]] for m in e[3])
                seen["multi_target"] += len({m[1] for m in e[3]}) > 1
                seen["crowd"] += sum(m[2] for m in e[3]) >= 100
        wanted = {"mixed": set(seen) - {"one_candidate", "crowd"},
                  "single": {"ac", "one_candidate"},
                  "chain": {"ac", "foreign", "cap_target", "multi_target",
                            "abandoned", "many_candidates",
                            "rollin_abandoned", "rollin_foreign"},
                  "crowd": {"ac", "foreign", "cap_target", "multi_target",
                            "many_candidates", "crowd", "rollin_foreign"}}[case]
        assert {k for k in wanted if seen[k] == 0} == set(), seen

    def test_pick_with_one_candidate_draws_once(self):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        th = {"a": ShutdownThresholds(1, 1, 1, 0, 10, 1e9)}
        assert select_agent({"a"}, set(), {"a": 4.0}, th, rng) == "a"
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state


class _Served:
    """Serves fixed uniforms in order, as a generator (`random`) and as a
    run's _Uniforms (`take`)."""

    def __init__(self, values):
        self.values = list(values)

    def take(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return out

    def random(self, n):
        return np.array(self.take(n))


class _FixedUniform:
    """Stands in for a generator whose next random() is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _margin_cases(rng, lengths=range(1, 301)):
    """Margin vectors of every length 1..300, more of them at 7, 8 and 9
    (where numpy's sum switches to pairwise): positive, with zeros, mixed
    signs, and all non-positive (the uniform fallback)."""
    for n in lengths:
        for r in range(24 if n in (7, 8, 9) else 4):
            m = rng.normal(0.0, 10.0, n) * rng.choice([1e-3, 1.0, 1e3], n)
            kind = r % 4
            if kind == 0:
                m = np.abs(m)
            elif kind == 1:
                m = np.abs(m)
                m[rng.random(n) < 0.5] = 0.0
            elif kind == 3:
                m = -np.abs(m)
                m[rng.random(n) < 0.3] = 0.0
            yield m


def _boundary_uniforms(margins, rng):
    """Random uniforms plus each sampled cumulative-PMF entry and its two
    neighbouring doubles, with the PMF computed as _reference_pick does."""
    w = np.maximum(margins, 0.0)
    total = w.sum()
    n = len(margins)
    cum = np.arange(1, n + 1) / n if total <= 0.0 else np.cumsum(w / total)
    us = [0.0, np.nextafter(1.0, 0.0), *rng.random(4)]
    for c in rng.choice(cum[:-1], min(n - 1, 12), replace=False):
        us += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
    return [float(u) for u in us if 0.0 <= u < 1.0]


class TestExactness:
    def test_pick_equals_reference_pick(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for margins in _margin_cases(rng):
            for u in _boundary_uniforms(margins, rng):
                want = _reference_pick(margins, _FixedUniform(u))
                assert _pick(margins, u) == want, (margins.tolist(), u)
                assert _pick(margins.tolist(), u) == want
                checked += 1
        assert checked > 10_000

    def test_certified_pick_decides_only_what_pick_draws(self):
        # the candidates' clamped margins spread over an array with zeros
        # between them, as a run keeps them; every all-non-positive case is
        # an all-zero array
        rng = np.random.default_rng(23)
        seen = {"decided": 0, "fallback": 0, "all_zero": 0}
        lengths = [*range(8, 40), *range(40, 401, 9), 400]
        for margins in _margin_cases(rng, lengths):
            n = len(margins)
            cells = np.sort(rng.choice(2 * n, n, replace=False))
            w = np.zeros(2 * n)
            w[cells] = np.where(margins > 0.0, margins, 0.0)
            seen["all_zero"] += not w.any()
            for u in _boundary_uniforms(margins, rng):
                got = _certified_pick(w, n, u)
                if got is None:
                    seen["fallback"] += 1
                    continue
                assert got == cells[_pick(margins, u)], (margins.tolist(), u)
                seen["decided"] += 1
        assert min(seen.values()) > 0, seen

    def test_live_targets_equal_numpy_renormalisation(self):
        cfg = make_network(n_capacity=12, n_coverage=12)
        net = SimNetwork(cfg)
        rng = np.random.default_rng(99)
        seen = {"none": 0, "same": 0, "short": 0, "long": 0}
        for _ in range(3000):
            n = int(rng.integers(1, net.n_cells + 1))
            targets = sorted(rng.choice(net.n_cells, n, replace=False).tolist())
            probs = rng.random(n) * rng.choice([1e-3, 1.0, 1e3], n)
            probs /= probs.sum()
            entry = _entry(net, targets, probs.tolist())
            x = (rng.random(net.n_cap) < rng.random()).tolist()
            got = _live_targets(net, x, entry)
            t = np.array(targets)
            alive = ~net.is_capacity[t] | np.asarray(x)[net.cap_of_global[t]]
            if not alive.any():
                assert got is None
                seen["none"] += 1
                continue
            if alive.all():
                assert got is entry
                seen["same"] += 1
                continue
            q = probs[alive] / probs[alive].sum()
            cum = np.cumsum(q)
            cum[-1] = 1.0
            assert got[0] == t[alive].tolist()
            assert np.array(got[1]).tobytes() == q.tobytes()
            assert np.array(got[2]).tobytes() == cum.tobytes()
            seen["long" if alive.sum() >= 8 else "short"] += 1
        assert min(seen.values()) > 0, seen

    def test_draw_moves_equal_searchsorted_on_boundaries(self):
        cfg = make_network(n_capacity=1, n_coverage=3)
        state, _ = fresh_state(cfg, {"c1": (12, 40, 12), "b1": (5, 10, 5),
                                     "b2": (5, 10, 5), "b3": (5, 10, 5)})
        handover = make_handover({"c1": {"b1": 0.1, "b2": 0.2, "b3": 0.7}})
        entry = build_transfer_table(state.net, handover, 1)[0]
        targets, _, cum, _ = entry
        assert cum[1] == 0.30000000000000004
        values = [0.0, float(np.nextafter(1.0, 0.0))]
        for c in cum[:-1]:
            values += [c, float(np.nextafter(c, 0.0)),
                       float(np.nextafter(c, 1.0))]
        values += [0.5] * (12 - len(values))
        want = _reference_draw_moves(state, 0, targets, cum, _Served(values))
        _shutdown(state, 0, entry, _Served(values), step=1)
        got = state.replay.events[-1][3]
        assert list(got) == want
        assert len(got) == 3

    def test_uniforms_read_in_blocks_keep_the_stream(self):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        uniforms = _Uniforms(rng, block=4)
        got = uniforms.take(3) + uniforms.take(1) + uniforms.take(9)
        got += uniforms.take(1) + uniforms.take(0)
        assert got == twin.random(14).tolist()
        # 14 uniforms used, 16 drawn: a draw longer than a block, and the
        # generator less than one block ahead
        assert rng.random() == twin.random(3)[-1]


class TestSimulateDay:
    def test_all_active_everywhere_gives_zero_shutdown_minutes(self):
        cfg = make_network(n_capacity=2, n_coverage=1, entry_ue=0.0,
                           entry_dl=0.0, entry_ul=0.0)
        tm = make_traffic(cfg, {"c1": (5, 15, 5), "c2": (5, 15, 5),
                                "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}, "c2": {"b1": 1.0}})
        outputs = simulate_day(tm, cfg, handover, AbmConfig(runs=4, seed=1))
        assert len(outputs) == 24
        for out in outputs:
            assert out.ues.shape == (4, 3)
            assert np.all(out.cs_minutes == 0.0)

    def test_deterministic_single_shutdown_gives_sixty_minutes_every_hour(self):
        cfg = make_network()
        tm = make_traffic(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        outputs = simulate_day(tm, cfg, handover, AbmConfig(runs=5, seed=3))
        i_c1 = outputs[0].cells.index("c1")
        for out in outputs:
            assert out.mean_cs_minutes[i_c1] == 60.0
            assert out.mean_ues[i_c1] == 0.0

    def test_fixed_seed_reproducible(self):
        cfg = make_network(n_capacity=3, n_coverage=2)
        values = {"c1": (3, 12, 5), "c2": (30, 90, 30), "c3": (4, 14, 6),
                  "b1": (8, 20, 5), "b2": (6, 15, 4)}
        tm = make_traffic(cfg, values, std=2.0)
        handover = make_handover(
            {"c1": {"b1": 1.0}, "c2": {"b1": 0.5, "b2": 0.5}, "c3": {"b2": 1.0}})
        a = simulate_day(tm, cfg, handover, AbmConfig(runs=6, seed=11))
        b = simulate_day(tm, cfg, handover, AbmConfig(runs=6, seed=11))
        for out_a, out_b in zip(a, b):
            assert np.array_equal(out_a.ues, out_b.ues)
            assert np.array_equal(out_a.dl_prbs, out_b.dl_prbs)
            assert np.array_equal(out_a.cs_minutes, out_b.cs_minutes)

    def test_runs_record_no_replay_events(self, monkeypatch):
        # through the module global, as a tracer wrapping the name sees it
        from carriersim import abm

        results, original = [], abm.run_monte_carlo

        def traced(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(abm, "run_monte_carlo", traced)
        cfg = make_network()
        tm = make_traffic(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)})
        simulate_day(tm, cfg, make_handover({"c1": {"b1": 1.0}}),
                     AbmConfig(runs=2, seed=3))
        assert len(results) == 48
        assert all(r.state.replay.events is None for r in results)
        # c1 shuts down in every run, moving its UEs onto b1
        assert all(r.state.ue[r.state.net.index["b1"]]
                   > r.state.base_ue[r.state.net.index["b1"]]
                   for r in results)


class TestBenchmark:
    def test_no_cell_satisfies_rule_at_mean_loads(self):
        cfg = make_network(n_capacity=2, n_coverage=1)
        tm = make_traffic(cfg, {"c1": (50, 200, 80), "c2": (50, 200, 80),
                                "b1": (30, 80, 40)})
        handover = make_handover({"c1": {"b1": 1.0}, "c2": {"b1": 1.0}})
        for out in run_benchmark(tm, cfg, handover):
            assert np.all(out.cs_minutes == 0.0)

    def test_matches_deterministic_monte_carlo_fixture(self):
        cfg = make_network()
        tm = make_traffic(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        bench = run_benchmark(tm, cfg, handover)
        mc = simulate_day(tm, cfg, handover, AbmConfig(runs=3, seed=0))
        i_c1 = bench[0].cells.index("c1")
        for b, m in zip(bench, mc):
            assert b.cs_minutes[0, i_c1] == 60.0
            assert m.mean_cs_minutes[i_c1] == 60.0

    def test_repeated_execution_bit_identical(self):
        cfg = make_network(n_capacity=3, n_coverage=2)
        values = {"c1": (3, 12, 5), "c2": (6, 30, 9), "c3": (4, 14, 6),
                  "b1": (8, 20, 5), "b2": (6, 15, 4)}
        tm = make_traffic(cfg, values)
        handover = make_handover(
            {"c1": {"b1": 1.0}, "c2": {"b1": 0.5, "b2": 0.5}, "c3": {"b2": 1.0}})
        a = run_benchmark(tm, cfg, handover)
        b = run_benchmark(tm, cfg, handover)
        for out_a, out_b in zip(a, b):
            assert out_a.ues.tobytes() == out_b.ues.tobytes()
            assert out_a.dl_prbs.tobytes() == out_b.dl_prbs.tobytes()
            assert out_a.cs_minutes.tobytes() == out_b.cs_minutes.tobytes()

    def test_abandons_when_no_feasible_target(self):
        cfg = make_network()
        tm = make_traffic(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 0.0}})
        for out in run_benchmark(tm, cfg, handover):
            assert np.all(out.cs_minutes == 0.0)

    @pytest.mark.parametrize("pmf, c2_off", [({"c1": 1.0}, False),
                                              ({"c1": 0.5, "b1": 0.5}, True)])
    def test_never_moves_load_onto_shut_down_cells(self, pmf, c2_off):
        # c1 has the larger margin, shuts down first; c2's PMF points at c1
        cfg = cofrequency_network()
        tm = make_traffic(cfg, COFREQ_TRAFFIC)
        handover = make_handover({"c1": {"b1": 1.0}, "c2": pmf})
        for out in run_benchmark(tm, cfg, handover):
            i = {c: out.cells.index(c) for c in ("c1", "c2", "b1")}
            assert out.cs_minutes[0, i["c1"]] == 60.0
            assert out.ues[0, i["c1"]] == 0.0 and out.dl_prbs[0, i["c1"]] == 0.0
            assert out.cs_minutes[0, i["c2"]] == (60.0 if c2_off else 0.0)
            assert out.ues[0, i["b1"]] == pytest.approx(12.0 if c2_off else 9.0)
            assert out.ues.sum() == pytest.approx(12.0)
            assert out.dl_prbs.sum() == pytest.approx(37.0)
            assert out.ul_prbs.sum() == pytest.approx(12.0)


class TestReports:
    def test_report_round_trip(self, tmp_path):
        cfg = make_network()
        tm = make_traffic(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        outputs = simulate_day(tm, cfg, handover, AbmConfig(runs=3, seed=0))
        path = tmp_path / "abm.csv"
        write_hourly_report(path, outputs, cfg)
        tables = read_mean_report(path)
        i_c1 = outputs[0].cells.index("c1")
        assert tables["cs_minutes"][("c1", 1)] == outputs[0].mean_cs_minutes[i_c1]
        assert set(tables) == {"ue", "dl_prbs", "dl_load", "cs_minutes"}

        bench = run_benchmark(tm, cfg, handover)
        bpath = tmp_path / "bench.csv"
        write_hourly_report(bpath, bench, cfg)
        btables = read_mean_report(bpath)
        assert btables["cs_minutes"][("c1", 1)] == 60.0

        dump = tmp_path / "runs.csv"
        write_run_dump(dump, outputs)
        lines = dump.read_text().splitlines()
        assert len(lines) == 1 + 24 * 3 * 2

    def test_run_dump_bytes_equal_the_row_loop(self, tmp_path):
        """write_run_dump against the csv.writer row loop it replaced, on
        hours of more runs x cells than a writer chunk, ids to quote, -0.0,
        nan, and an hour of int arrays (written as floats)."""
        rng = np.random.default_rng(8)
        pool = np.array([0.0, -0.0, 5e-324, 1e16, 3.0, 0.1, np.nan, np.inf])
        outputs = []
        for hour, cells, runs in ((1, ("c,1", 'b"2', "\u00e9"), 600),
                                  (2, ("c1",), 3), (24, ("a", "b"), 0)):
            values = pool[rng.integers(len(pool), size=(4, runs, len(cells)))]
            outputs.append(HourlyOutputs(hour, cells, *values))
        outputs.append(HourlyOutputs(3, ("c1", "b1"), *rng.integers(
            -5, 60, size=(4, 800, 2))))
        dump = tmp_path / "runs.csv"
        write_run_dump(dump, outputs)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["hour", "run", "cell_id", "ues", "dl_prbs",
                         "cs_minutes"])
        for out in outputs:
            for run in range(out.runs):
                for i, cell in enumerate(out.cells):
                    writer.writerow([
                        out.hour, run, cell, repr(float(out.ues[run, i])),
                        repr(float(out.dl_prbs[run, i])),
                        repr(float(out.cs_minutes[run, i]))])
        assert dump.read_bytes() == expected.getvalue().encode("utf-8")

    def test_mean_tables_equal_report_read_back(self, tmp_path):
        cfg = make_network()
        tm = make_traffic(cfg, {"c1": (3, 12, 5), "b1": (8, 20, 5)})
        handover = make_handover({"c1": {"b1": 1.0}})
        outputs = simulate_day(tm, cfg, handover, AbmConfig(runs=7, seed=2))
        path = tmp_path / "abm.csv"
        write_hourly_report(path, outputs, cfg)
        tables = mean_tables(outputs, cfg)
        assert tables == read_mean_report(path)
        assert list(tables["ue"]) == [(c, o.hour) for o in outputs
                                      for c in o.cells]
        assert all(type(v) is float for t in tables.values()
                   for v in t.values())


def test_transfer_tables_are_cached_per_network_and_hour():
    cfg = make_network(n_capacity=2, n_coverage=2)
    handover = make_handover({"c1": {"b1": 0.25, "b2": 0.5, "c2": 0.25},
                              "c2": {"b2": 1.0}})
    net = SimNetwork(cfg)
    table = build_transfer_table(net, handover, 3)
    assert build_transfer_table(net, handover, 3) is table
    assert build_transfer_table(SimNetwork(cfg), handover, 3) is table
    # the same handover model on a reordered network gets its own entries
    other = SimNetwork(dataclasses.replace(
        cfg, cells=tuple(reversed(cfg.cells))))
    assert other.index != net.index
    assert build_transfer_table(other, handover, 3) == [
        _handover_targets(other, handover, cid, 3) for cid in other.cap_ids]
