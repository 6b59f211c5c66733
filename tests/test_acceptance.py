"""Acceptance criteria, one test per criterion with a printed PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria with stated runtime bounds measure wall time.
"""

import time

import numpy as np
import pytest

from carriersim.abm import (
    AbmConfig,
    SimNetwork,
    build_transfer_table,
    eligible_sets,
    reactivate,
    run_benchmark,
    run_monte_carlo,
    select_agent,
    simulate_day,
    transfer_users,
)
from carriersim.datamodel import ShutdownThresholds
from carriersim.energymodel import (
    EnergyHyper,
    RadioHourSample,
    encode_features,
    fit_feature_schema,
    nll_gradient,
    nll_loss,
    predict_energy,
    train_energy_model,
)
from carriersim.harness import (
    RateLaw,
    ScenarioSpec,
    compare,
    generate_scenario,
    ground_truth_replay,
    truth_tables_from_outputs,
)
from carriersim.ratemodel import (
    RateHyper,
    RateSample,
    predict_rate,
    train_rate_model,
)
from carriersim.rules import build_handover_model_for_hours

from conftest import make_handover, make_network, make_traffic


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def scenario50(tmp_path_factory):
    """50-cell synthetic network with its true traffic and handover model."""
    out = tmp_path_factory.mktemp("scenario50")
    spec = ScenarioSpec(n_capacity=30, n_coverage=20, n_days=1,
                        reports_per_cell_hour=4)
    scenario = generate_scenario(spec, out, seed=101)
    handover = build_handover_model_for_hours(scenario.cfg, scenario.mrs)
    return scenario, handover


@pytest.fixture(scope="module")
def batch50(scenario50):
    """1000 randomized runs with per-step totals, shared by criteria 2 and 4."""
    scenario, handover = scenario50
    net = SimNetwork(scenario.cfg)
    meta_rng = np.random.default_rng(7)
    records = []
    start_time = time.perf_counter()
    for i in range(1000):
        hour = int(meta_rng.integers(1, 25))
        start = None
        if i % 3 == 1:
            start = meta_rng.random(net.n_cap) < 0.7
        totals = []
        result = run_monte_carlo(
            scenario.traffic, scenario.cfg, handover,
            AbmConfig(runs=1, max_steps=120, seed=0), start, hour,
            np.random.default_rng([11, i]),
            on_step=lambda st, t: totals.append(st.totals()), _net=net)
        base = (float(result.state.replay.base_ue.sum()),
                float(result.state.replay.base_dl.sum()),
                float(result.state.replay.base_ul.sum()))
        records.append((result, base, totals))
    return records, time.perf_counter() - start_time


# ---------------------------------------------------------------------------
# Criteria


class TestCriterion1:
    def test_loss_gradient_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        n = 1000
        start = time.perf_counter()
        worst = 0.0
        for _ in range(n):
            y = float(rng.uniform(-5, 5))
            mu = y + float(rng.choice([-1, 1])) * float(rng.uniform(0.1, 3.0))
            sigma = float(rng.uniform(0.5, 2.5))
            dmu, dsigma = nll_gradient(y, mu, sigma)
            fd_mu = (nll_loss(y, mu + h, sigma)
                     - nll_loss(y, mu - h, sigma)) / (2 * h)
            fd_sigma = (nll_loss(y, mu, sigma + h)
                        - nll_loss(y, mu, sigma - h)) / (2 * h)
            for a, f in ((dmu, fd_mu), (dsigma, fd_sigma)):
                denom = max(abs(a), abs(f), 1e-12)
                worst = max(worst, abs(a - f) / denom)
        elapsed = time.perf_counter() - start
        report(1, "analytic loss gradient matches finite differences",
               worst < 1e-4 and elapsed < 1.0,
               f"max rel err {worst:.2e}, {elapsed:.2f}s")


class TestCriterion2:
    def test_conservation_every_step(self, batch50):
        records, elapsed = batch50
        worst = 0.0
        steps_checked = 0
        for result, base, totals in records:
            for tot in totals:
                steps_checked += 1
                for b, t in zip(base, tot):
                    worst = max(worst, abs(t - b) / max(abs(b), 1.0))
        report(2, "UE and PRB totals conserved at every step",
               worst < 1e-9 and elapsed < 30.0,
               f"{len(records)} runs, {steps_checked} steps, "
               f"worst rel drift {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3:
    def test_shutdown_reactivate_round_trips(self, scenario50):
        scenario, handover = scenario50
        rng = np.random.default_rng(3)
        start = time.perf_counter()
        pairs = 0
        exact = True
        while pairs < 1000:
            hour = int(rng.integers(1, 25))
            result = run_monte_carlo(
                scenario.traffic, scenario.cfg, handover,
                AbmConfig(runs=1, max_steps=int(rng.integers(1, 25)), seed=0),
                None, hour, np.random.default_rng([13, pairs]))
            state = result.state
            active = [c for k, c in enumerate(state.net.cap_ids) if state.x[k]]
            rng.shuffle(active)
            for cell in active[:10]:
                before = state.fingerprint()
                if not transfer_users(cell, state, handover, hour, rng):
                    continue
                reactivate(cell, state)
                pairs += 1
                if state.fingerprint() != before:
                    exact = False
                if pairs >= 1000:
                    break
        elapsed = time.perf_counter() - start
        report(3, "shutdown/reactivate pairs restore state exactly",
               exact and elapsed < 10.0, f"{pairs} pairs, {elapsed:.1f}s")


class TestCriterion4:
    def test_stable_runs_have_no_candidates_on_recheck(self, batch50):
        records, _ = batch50
        stable_runs = 0
        violations = 0
        for result, _, _ in records:
            if not result.stable:
                continue
            stable_runs += 1
            sd, ac = eligible_sets(result.state)
            if sd or ac:
                violations += 1
        report(4, "stable terminations pass the eligibility re-check",
               stable_runs > 0 and violations == 0,
               f"{stable_runs} stable runs, {violations} violations")


class TestCriterion5:
    def test_agent_selection_distribution(self):
        thresholds = {
            "a": ShutdownThresholds(1, 11.0, 1, 0, 1e9, 1e9),
            "b": ShutdownThresholds(1, 12.0, 1, 0, 1e9, 1e9),
            "c": ShutdownThresholds(1, 17.0, 1, 0, 1e9, 1e9),
        }
        loads = {"a": 10.0, "b": 10.0, "c": 10.0}  # margins 1, 2, 7
        rng = np.random.default_rng(42)
        n = 100_000
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(n):
            counts[select_agent({"a", "b", "c"}, set(), loads, thresholds,
                                rng)] += 1
        freqs = {k: v / n for k, v in counts.items()}
        expected = {"a": 0.1, "b": 0.2, "c": 0.7}
        worst = max(abs(freqs[k] - expected[k]) for k in expected)
        report(5, "margin-weighted selection matches the exact PMF",
               worst < 0.01,
               f"freqs {freqs['a']:.3f}/{freqs['b']:.3f}/{freqs['c']:.3f}, "
               f"worst dev {worst:.4f}")


def _micro_chain_distribution(entry_dl, leave_dl, draws, t_max):
    """Brute-force enumeration of the two-cell Markov chain under degenerate
    draws: counters are pure functions of the configuration, so the chain
    lives on the four configurations."""
    u1, d1, _ = draws["c1"]
    u2, d2, _ = draws["c2"]
    ub, db, _ = draws["b1"]

    def coverage_dl(x):
        return db + (0.0 if x[0] else d1) + (0.0 if x[1] else d2)

    def transitions(x):
        sd = [i for i in (0, 1) if x[i]]          # frozen entry always holds
        ac = [i for i in (0, 1)
              if not x[i] and coverage_dl(x) > leave_dl]
        cands = sd + ac
        if not cands:
            return None
        weights = []
        for i in sd:
            own = d1 if i == 0 else d2
            weights.append(max(entry_dl - (own + db), 0.0))
        for i in ac:
            weights.append(max(coverage_dl(x) - leave_dl, 0.0))
        total = sum(weights)
        if total <= 0:
            weights = [1.0 / len(cands)] * len(cands)
        else:
            weights = [w / total for w in weights]
        out = []
        for i, w in zip(cands, weights):
            flipped = list(x)
            flipped[i] = not x[i]
            out.append((w, tuple(flipped)))
        return out

    alive = {(True, True): 1.0}
    absorbed: dict[tuple, float] = {}
    for _ in range(t_max):
        nxt: dict[tuple, float] = {}
        for x, p in alive.items():
            tr = transitions(x)
            if tr is None:
                absorbed[x] = absorbed.get(x, 0.0) + p
                continue
            for w, x2 in tr:
                nxt[x2] = nxt.get(x2, 0.0) + p * w
        alive = nxt
    final = dict(absorbed)
    for x, p in alive.items():
        final[x] = final.get(x, 0.0) + p
    return final


class TestCriterion6:
    def test_micro_oracle_total_variation(self):
        draws = {"c1": (4, 30.0, 5.0), "c2": (6, 50.0, 8.0),
                 "b1": (10, 30.0, 10.0)}
        entry_dl, leave_dl = 100.0, 95.0
        cfg = make_network(n_capacity=2, n_coverage=1, entry_ue=20.0,
                           entry_dl=entry_dl, entry_ul=50.0, leave_ue=1e9,
                           leave_dl=leave_dl, leave_ul=1e9)
        tm = make_traffic(cfg, draws)
        handover = make_handover({"c1": {"b1": 1.0}, "c2": {"b1": 1.0}})
        t_max = 15
        oracle = _micro_chain_distribution(entry_dl, leave_dl, draws, t_max)

        runs = 100_000
        abm_cfg = AbmConfig(runs=1, max_steps=t_max, seed=0)
        net = SimNetwork(cfg)
        table = build_transfer_table(net, handover, 1)
        counts: dict[tuple, int] = {}
        for i in range(runs):
            result = run_monte_carlo(tm, cfg, handover, abm_cfg, None, 1,
                                     np.random.default_rng([17, i]),
                                     _net=net, _table=table)
            key = tuple(bool(v) for v in result.state.x)
            counts[key] = counts.get(key, 0) + 1
        states = [(a, b) for a in (True, False) for b in (True, False)]
        tv = 0.5 * sum(abs(counts.get(s, 0) / runs - oracle.get(s, 0.0))
                       for s in states)
        detail = ", ".join(
            f"{''.join('1' if v else '0' for v in s)}: "
            f"{counts.get(s, 0) / runs:.4f}/{oracle.get(s, 0.0):.4f}"
            for s in states)
        report(6, "empirical configuration distribution matches enumeration",
               tv <= 0.02, f"TV {tv:.4f}; empirical/oracle {detail}")


class TestCriterion7:
    def test_three_slope_energy_recovery(self):
        from carriersim.datamodel import Cell, RadioUnit

        rng = np.random.default_rng(77)
        start = time.perf_counter()
        # three max-power tiers, each with its own linear slope and idle draw
        tiers = {"c1": (40.0, 90.0, 240.0), "c2": (43.0, 130.0, 260.0),
                 "c3": (46.0, 170.0, 290.0)}
        cells = {}
        radios = {}
        for cid, (pmax, _, _) in tiers.items():
            cells[cid] = Cell(id=cid, radio_unit=f"ru-{cid}",
                              frequency_mhz=3500.0, bandwidth_mhz=100.0,
                              max_tx_power_dbm=pmax, n_dl_prb=270,
                              n_ul_prb=135)
            radios[cid] = RadioUnit(id=f"ru-{cid}", radio_type="aau-x",
                                    n_trx=32, carrier_tx_mode="32T32R",
                                    cell_ids=(cid,))
        rows = []
        n = 10_000
        cap_ids = ["c1", "c2", "c3"]
        for i in range(n):
            cid = cap_ids[i % 3]
            _, slope, idle = tiers[cid]
            load = float(rng.uniform(0.0, 1.0))
            energy = idle + slope * load + float(rng.normal(0.0, 2.0))
            rows.append(RadioHourSample(
                radio=radios[cid], cells=(cells[cid],),
                dl_loads={cid: load}, cs_fractions={cid: 0.0},
                energy_wh=max(energy, 0.0)))
        schema = fit_feature_schema(rows, max_carriers=6)
        pairs = [(encode_features(schema, r.radio, r.cells, r.dl_loads,
                                  r.cs_fractions), r.energy_wh) for r in rows]
        split = int(0.8 * n)
        model = train_energy_model(pairs[:split],
                                   EnergyHyper(max_epochs=800, patience=200,
                                               seed=1), schema=schema)
        preds = np.array([predict_energy(model, vec)[0]
                          for vec, _ in pairs[split:]])
        truths = np.array([y for _, y in pairs[split:]])
        mape = 100.0 * float(np.mean(np.abs(preds - truths) / truths))
        elapsed = time.perf_counter() - start
        report(7, "three-slope energy law recovered by the network",
               mape <= 10.0 and elapsed <= 300.0,
               f"held-out MAPE {mape:.2f}%, {elapsed:.0f}s")


class TestCriterion8:
    def test_rate_model_synthetic_recovery(self):
        rng = np.random.default_rng(88)
        law = RateLaw()
        high = []
        for _ in range(1000):
            load = float(rng.uniform(0.1, 0.95))
            ues = float(rng.integers(1, 30))
            rate = law.mean_rate(load, ues) * (1 + rng.normal(0, 0.02))
            high.append(RateSample("c1", 1, load, ues, max(rate, 0.0)))
        low_values = np.clip(rng.normal(40.0, 8.0, size=2000), 0.5, None)
        low = [RateSample("c1", 1, float(rng.uniform(0.0, 0.0999)), 1.0,
                          float(v)) for v in low_values]
        train = high[:800] + low
        model = train_rate_model({"c1": train}, {"c1": train}, RateHyper())

        rng_eval = np.random.default_rng(5)
        preds, truths = [], []
        for s in high[800:]:
            value, _ = predict_rate(model, "c1", s.dl_prb_load, s.rrc_ues,
                                    rng_eval)
            preds.append(value)
            truths.append(s.rate_mbps)
        preds, truths = np.array(preds), np.array(truths)
        ss_res = float(np.sum((truths - preds) ** 2))
        ss_tot = float(np.sum((truths - truths.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot

        draws = np.array([predict_rate(model, "c1", 0.05, 1.0, rng_eval)[0]
                          for _ in range(10_000)])
        ks = _ks_statistic(draws, low_values)
        report(8, "rate law recovered and low-load draws follow the PMF",
               r2 > 0.95 and ks < 0.1,
               f"held-out R2 {r2:.4f}, KS {ks:.4f}")


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    values = np.concatenate([a, b])
    values.sort()
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.fixture(scope="module")
def convergence_setup(tmp_path_factory):
    out = tmp_path_factory.mktemp("convergence")
    spec = ScenarioSpec(n_capacity=240, n_coverage=80, n_days=1,
                        reports_per_cell_hour=4)
    scenario = generate_scenario(spec, out, seed=202)
    handover = build_handover_model_for_hours(scenario.cfg, scenario.mrs)
    return scenario, handover


class TestCriterion9:
    def test_step_cap_convergence_curve(self, convergence_setup):
        scenario, handover = convergence_setup
        reference = simulate_day(
            scenario.traffic, scenario.cfg, handover,
            AbmConfig(runs=40, max_steps=800, seed=99))
        ref_tables = truth_tables_from_outputs(scenario, reference)
        maes = {}
        for t_max in (50, 150, 400, 800):
            outputs = simulate_day(scenario.traffic, scenario.cfg, handover,
                                   AbmConfig(runs=6, max_steps=t_max, seed=1))
            tables = truth_tables_from_outputs(scenario, outputs)
            keys = sorted(ref_tables["cs_minutes"])
            errs = [abs(tables["cs_minutes"][k] - ref_tables["cs_minutes"][k])
                    for k in keys]
            maes[t_max] = float(np.mean(errs))
        plateau = maes[800]
        rel_gap = abs(maes[400] - plateau) / max(plateau, 1e-9)
        below_ok = maes[50] >= min(maes[400], maes[800]) - 1e-12
        detail = ", ".join(f"t_max={t}: {maes[t]:.3f}" for t in sorted(maes))
        report(9, "error converges at the 400-step cap",
               rel_gap <= 0.05 and below_ok,
               f"{detail}; gap(400 vs 800) {100 * rel_gap:.2f}%")


class TestCriterion10:
    def test_abm_beats_benchmark_over_seeds(self, tmp_path_factory):
        wins = []
        for seed in range(5):
            out = tmp_path_factory.mktemp(f"seed{seed}")
            spec = ScenarioSpec(n_capacity=8, n_coverage=4, n_days=1,
                                reports_per_cell_hour=4)
            scenario = generate_scenario(spec, out, seed=300 + seed)
            handover = build_handover_model_for_hours(scenario.cfg,
                                                      scenario.mrs)
            abm_cfg = AbmConfig(runs=12, max_steps=400, seed=seed)
            truth = ground_truth_replay(scenario, abm_cfg, handover)
            outputs = simulate_day(scenario.traffic, scenario.cfg, handover,
                                   abm_cfg)
            abm_tables = truth_tables_from_outputs(scenario, outputs)
            bench = run_benchmark(scenario.traffic, scenario.cfg, handover)
            caps = {c.id: float(c.n_dl_prb) for c in scenario.cfg.cells}
            bench_tables = {"cs_minutes": {}, "dl_load": {}}
            for out_h in bench:
                for i, cell in enumerate(out_h.cells):
                    bench_tables["cs_minutes"][(cell, out_h.hour)] = float(
                        out_h.cs_minutes[0, i])
                    bench_tables["dl_load"][(cell, out_h.hour)] = float(
                        out_h.dl_prbs[0, i] / caps[cell])
            kpis = ("cs_minutes", "dl_load")
            rep = compare({k: abm_tables[k] for k in kpis},
                          {k: bench_tables[k] for k in kpis},
                          {k: truth[k] for k in kpis})
            wins.append((seed,
                         rep.kpis["cs_minutes"].abm.mae,
                         rep.kpis["cs_minutes"].benchmark.mae,
                         rep.kpis["dl_load"].abm.mae,
                         rep.kpis["dl_load"].benchmark.mae))
        ok = all(a_cs <= b_cs and a_ld <= b_ld
                 for _, a_cs, b_cs, a_ld, b_ld in wins)
        detail = "; ".join(
            f"seed {s}: cs {a_cs:.2f}<={b_cs:.2f}, load {a_ld:.4f}<={b_ld:.4f}"
            for s, a_cs, b_cs, a_ld, b_ld in wins)
        report(10, "simulation at least matches the baseline on every seed",
               ok, detail)


class TestCriterion11:
    def test_runtime_envelope_full_scale(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fullscale")
        spec = ScenarioSpec(n_capacity=375, n_coverage=282, n_days=1,
                            reports_per_cell_hour=4)
        scenario = generate_scenario(spec, out, seed=404)
        handover = build_handover_model_for_hours(scenario.cfg, scenario.mrs)
        start = time.perf_counter()
        outputs = simulate_day(scenario.traffic, scenario.cfg, handover,
                               AbmConfig(runs=50, max_steps=400, seed=2))
        elapsed = time.perf_counter() - start
        assert len(outputs) == 24
        report(11, "657-cell day at R=50 within the runtime envelope",
               elapsed <= 120.0, f"{elapsed:.1f}s")


class TestCriterion12:
    def test_cli_commands_byte_identical(self, tmp_path_factory):
        import json

        from click.testing import CliRunner

        from carriersim.cli import main

        root = tmp_path_factory.mktemp("cli12")
        spec_path = root / "spec.json"
        spec_path.write_text(json.dumps({
            "n_capacity": 2, "n_coverage": 1, "n_days": 2,
            "reports_per_cell_hour": 4}))

        def run(*args):
            r = CliRunner().invoke(main, [str(a) for a in args])
            assert r.exit_code == 0, r.output

        def tree_bytes(d):
            return {p.name: p.read_bytes() for p in sorted(d.iterdir())
                    if p.is_file()}

        mismatches = []
        for attempt in ("one", "two"):
            base = root / attempt
            run("--seed", 21, "--runs", 3, "--max-steps", 60, "generate",
                "--spec", spec_path, "--out", base / "data")
            run("--seed", 21, "train", "--data", base / "data",
                "--out", base / "models")
            run("--seed", 21, "--runs", 3, "--max-steps", 60, "simulate",
                "--data", base / "data", "--models", base / "models",
                "--out", base / "abm")
            run("--seed", 21, "benchmark", "--data", base / "data",
                "--models", base / "models", "--out", base / "bench")
            run("compare", "--abm", base / "abm",
                "--benchmark", base / "bench",
                "--truth", base / "data" / "truth.csv",
                "--out", base / "report")
        for sub in ("data", "models", "abm", "bench", "report"):
            a = tree_bytes(root / "one" / sub)
            b = tree_bytes(root / "two" / sub)
            if a != b:
                mismatches.append(sub)
        report(12, "repeated CLI commands are byte-identical",
               not mismatches, f"mismatches: {mismatches or 'none'}")
