"""The two workloads, each a closed loop with one client.

The client waits for each answer before it asks the next question,
and one carriersim process runs at a time. Untraced runs drive the CLI stages
as child processes, as a user would; traced runs drive the same stages
in-process through `carriersim.cli.main(..., standalone_mode=False)` with the
layers wrapped (see tracing.py).

Every function here returns a `Result`: end-to-end metrics (untraced) or
per-layer metrics (traced), plus the named figures and sample counts that
the run prints before its result line.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
STAGE_TIMEOUT_S = 150.0

# whatif's operator network: 2 capacity cells and 1 coverage cell over 3 days
# (the fewest that keep a held-out day for training and more than one
# shutdown agent). The network and its training data are fixed, so a run's
# cost depends on the questions asked, not on which network was drawn.
SMALL_SPEC = {"n_capacity": 2, "n_coverage": 1, "n_days": 3}
SMALL_SCENARIO_SEED = 7
REFERENCE_RUNS = 2        # `generate --runs`: the truth replay uses 10x this
TRAIN_SEED = 7
QUERY_RUNS = 20
QUERY_SEED = 7

# fullday: acceptance criterion 11's operator-scale network, generated from
# that criterion's seed; the workload seed picks the ABM's seed.
FULL_SPEC = {"n_capacity": 375, "n_coverage": 282, "n_days": 1,
             "reports_per_cell_hour": 4}
FULL_SCENARIO_SEED = 404
FULLDAY_RUNS = 5
MAX_STEPS = 400


@dataclass
class Run:
    seed: int
    seconds: float
    work: Path
    ledger: checks.Ledger = field(default_factory=checks.Ledger)
    logs: itertools.count = field(default_factory=itertools.count)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    figures: dict[str, object] = field(default_factory=dict)


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None




def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CARRIERSIM_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


@dataclass
class Stage:
    ok: bool
    wall_s: float
    rss_mb: float
    message: str = ""


def run_child(run: Run, args) -> Stage:
    """One CLI stage as a child process; wall time from spawn to reaping."""
    log = run.work / f"stage{next(run.logs)}.log"
    cmd = [sys.executable, "-m", "carriersim", *map(str, args)]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=cli_env(), cwd=run.work,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    message = "" if proc.returncode == 0 else (
        f"exit {proc.returncode}: "
        + log.read_text(errors="replace").strip()[-200:])
    return Stage(proc.returncode == 0, wall, usage.ru_maxrss / 1024.0, message)


def run_inprocess(tracer, args) -> Stage:
    """One CLI stage in this process, as a root span when traced."""
    from carriersim import cli

    out = io.StringIO()
    span = tracer.stage("cli") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            cli.main([str(a) for a in args], standalone_mode=False)
        ok, message = True, ""
    except SystemExit as exc:
        ok = exc.code in (0, None)
        message = f"exit {exc.code}: {out.getvalue().strip()[-200:]}"
    except Exception as exc:  # a crashing stage is one failed operation
        ok, message = False, repr(exc)[-200:]
    wall = time.perf_counter() - start
    return Stage(ok, wall, 0.0, message)


def _stage_problems(stage: Stage) -> list[str]:
    return [] if stage.ok else [stage.message or "stage failed"]


def _checked(run: Run, op: str, stage: Stage, check) -> Stage:
    """Record one operation: the stage must succeed and its output pass."""
    problems = _stage_problems(stage)
    if not problems:
        try:
            problems = check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"[:200]]
    run.ledger.record(op, problems)
    return stage


def _same(run: Run, op: str, digests) -> None:
    distinct = len(set(digests))
    run.ledger.record(op, [] if distinct <= 1 else
                      [f"{distinct} different outputs from {len(digests)} "
                       "identical invocations"])


def _fill(seconds, step, walls, reserve=0) -> None:
    """Append step()'s wall times to `walls` for one slice of `seconds`: at
    least one call, then another while at least half of a median call (plus
    `reserve` calls kept for later) is left, so slices average `seconds`."""
    start = time.perf_counter()
    while True:
        walls.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + (0.5 + reserve) * statistics.median(walls) > seconds:
            return


# Override queries follow a Halton sequence, randomly shifted (mod 1) by a
# vector drawn from the workload seed: every prefix of a run's queries then
# covers the parameter ranges evenly, so the run's mix of quickly-settling and
# oscillating queries, and with it the run's cost, depends little on the seed.
HALTON_BASES = (2, 3, 5, 7, 11, 13)    # 3 coordinates per capacity cell


def _radical_inverse(i: int, base: int) -> float:
    x, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        x += digit * scale
        scale /= base
    return x


def _halton_point(i: int, shift) -> list[float]:
    return [(_radical_inverse(i, b) + s) % 1.0
            for b, s in zip(HALTON_BASES, shift)]


def _overrides(point, capacity) -> dict:
    """One query's overrides from a point of [0, 1)^(3 x capacity cells).

    A cell's first coordinate is its stress: below 1/4 the cell is left
    alone (unless no cell would be patched); above, its DL PRB entry/leave
    gap grows from -50 (settles at once) to +50 (oscillates up to the step
    cap) around a midpoint in [80, 110]. The defaults are 95/92, a gap of 3.
    The third coordinate sets the A4 trigger in [-110, -92] dBm."""
    n = len(capacity)
    stress, level, trigger = point[:n], point[n:2 * n], point[2 * n:3 * n]
    top = max(range(n), key=stress.__getitem__)
    thresholds, a4 = {}, {}
    for j, cell in enumerate(capacity):
        if stress[j] < 0.25 and j != top:
            continue
        gap = -50.0 + 100.0 * max(stress[j] - 0.25, 0.0) / 0.75
        mid = 80.0 + 30.0 * level[j]
        thresholds[cell] = {"entry_dl_prb": round(mid + gap / 2, 1),
                            "leave_dl_prb": round(mid - gap / 2, 1)}
        a4[cell] = {"threshold_dbm": round(-110.0 + 18.0 * trigger[j], 1)}
    return {"thresholds": thresholds, "a4": a4}


def _bundle_bytes(models: Path) -> dict[str, int]:
    return {name: (models / name).stat().st_size
            for name in ("rate_model.json", "energy_model.json")
            if (models / name).is_file()}


def _import_s(repeats=3) -> float:
    """Median wall time of `import carriersim.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import carriersim.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# whatif: the planner's question loop


def _small_setup(run: Run, stage, base: Path) -> list[Stage]:
    """generate, then train, the small network into `base`."""
    spec = run.work / "spec.json"
    spec.write_text(json.dumps(SMALL_SPEC))
    data, models = base / "data", base / "models"
    return [
        _checked(run, "generate", stage(
            ["--seed", SMALL_SCENARIO_SEED, "--runs", REFERENCE_RUNS,
             "generate", "--spec", spec, "--out", data]),
            lambda: checks.check_dataset(data)),
        _checked(run, "train", stage(
            ["--seed", TRAIN_SEED, "train", "--data", data, "--out", models]),
            lambda: checks.check_models(models)),
    ]


def _overhead(tracer: tracing.Tracer, operations) -> float:
    """Time operations(i, tracer-or-None) untraced, traced, then untraced
    again, and return the traced pass against the mean untraced one. The
    untraced passes bracket the traced one so that warm-up in the first pass
    does not read as negative overhead. Only the traced pass is counted."""
    first = operations(0, None)
    with tracer.installed():
        traced = operations(1, tracer)
    second = operations(2, None)
    return traced / ((first + second) / 2.0) - 1.0


def _held_out(models: Path) -> dict[str, float]:
    """The train stage's held-out errors, from train_metrics.json."""
    path = models / "train_metrics.json"
    if not path.is_file():
        return {}
    metrics = json.loads(path.read_text())
    return {"energy_test_mape_pct": metrics.get("energy_test_mape_percent"),
            "rate_test_mae_mbps": metrics.get("rate_test_mae_mbps")}


def _metrics_digest(models: Path) -> str | None:
    path = models / "train_metrics.json"
    return checks.digest(path) if path.is_file() else None


def _query_digest(out: Path) -> str | None:
    files = [out / "abm_outputs.csv", out / "predictions.csv"]
    return checks.digest(*files) if all(f.is_file() for f in files) else None


class _Planner:
    """Sends what-if queries to one trained network."""

    def __init__(self, run: Run, stage, base: Path, tag: str):
        self.run, self.stage, self.tag = run, stage, tag
        self.data, self.models = base / "data", base / "models"
        self.capacity = checks.network_ids(self.data)[1]
        rng = random.Random(run.seed)
        self.shift = [rng.random() for _ in range(3 * len(self.capacity))]
        self.stages: list[Stage] = []

    def query(self, i: int, overrides: bool) -> Stage:
        out = self.run.work / f"{self.tag}-q{i}"
        args = ["--seed", QUERY_SEED, "--runs", QUERY_RUNS,
                "--max-steps", MAX_STEPS, "simulate", "--data", self.data,
                "--models", self.models, "--out", out]
        if overrides:
            path = self.run.work / f"{self.tag}-overrides{i}.json"
            path.write_text(json.dumps(_overrides(
                _halton_point(i, self.shift), self.capacity)))
            args += ["--overrides", path]
        stage = _checked(self.run, "simulate", self.stage(args),
                         lambda: checks.check_estimate(
                             out, "abm_outputs.csv", self.data))
        self.stages.append(stage)
        return stage

    def evaluate(self) -> list[Stage]:
        """Score the no-override query (q0) with the baseline and compare."""
        bench = self.run.work / f"{self.tag}-bench"
        report = self.run.work / f"{self.tag}-report"
        b = _checked(self.run, "benchmark", self.stage(
            ["--seed", QUERY_SEED, "benchmark", "--data", self.data,
             "--models", self.models, "--out", bench]),
            lambda: checks.check_estimate(bench, "benchmark_outputs.csv",
                                          self.data))
        c = _checked(self.run, "compare", self.stage(
            ["compare", "--abm", self.run.work / f"{self.tag}-q0",
             "--benchmark", bench, "--truth", self.data / "truth.csv",
             "--out", report]),
            lambda: checks.check_report(report))
        return [b, c]

    def accuracy(self) -> dict[str, float]:
        path = self.run.work / f"{self.tag}-report" / "report.json"
        if not path.is_file():
            return {}
        report = json.loads(path.read_text())
        return {name: report.get(kpi, {}).get("abm", {}).get("mae")
                for name, kpi in (("energy_mae_wh", "energy_wh"),
                                  ("rate_mae_mbps", "rate_mbps"),
                                  ("cs_minutes_mae", "cs_minutes"))}


def whatif(run: Run) -> Result:
    """Each set-up is followed by a slice of the timed queries, so that the
    query samples spread over the whole run rather than one stretch of it."""
    stage = functools.partial(run_child, run)
    setups, trains, metric_digests, walls = [], [], [], []
    planner = None
    for i in range(SETUP_REPEATS):
        base = run.work / f"setup{i}"
        generate, train = _small_setup(run, stage, base)
        setups.append(generate.wall_s + train.wall_s)
        trains.append(train.wall_s)
        metric_digests.append(_metrics_digest(base / "models"))
        if planner is None:
            if not (base / "data" / "engineering.csv").is_file():
                break
            planner = _Planner(run, stage, base, "untraced")
        # q0 has no overrides; later queries draw theirs from the seed. The
        # last slice keeps room for a closing repeat of q0 (determinism).
        _fill(run.seconds / SETUP_REPEATS,
              lambda: planner.query(len(walls), len(walls) > 0).wall_s,
              walls, reserve=int(i == SETUP_REPEATS - 1))
    _same(run, "train determinism", metric_digests)
    if planner is None:
        return Result(metrics={"op_s": (None, "s"),
                               "setup_s": (_median(setups), "s"),
                               "peak_rss_mb": (None, "MB")})
    last = len(walls)
    planner.query(last, overrides=False)
    _same(run, "simulate determinism",
          [_query_digest(run.work / f"untraced-q{i}") for i in (0, last)])
    evaluation = planner.evaluate()
    timed = planner.stages + evaluation
    query_s = _median(s.wall_s for s in planner.stages)
    return Result(
        metrics={"op_s": (query_s, "s"),
                 "setup_s": (_median(setups), "s"),
                 "peak_rss_mb": (max(s.rss_mb for s in timed), "MB")},
        figures={"query_s": query_s,
                 "query_walls_s": [s.wall_s for s in planner.stages],
                 "evaluate_s": sum(s.wall_s for s in evaluation),
                 "setup_walls_s": setups,
                 "train_s": _median(trains),
                 **planner.accuracy(),
                 **_held_out(run.work / "setup0" / "models"),
                 "bundle_bytes": _bundle_bytes(run.work / "setup0" / "models"),
                 })


def whatif_traced(run: Run, tracer: tracing.Tracer) -> float:
    """Set up once traced; then q0, one override query, benchmark and
    compare in-process, in three passes (see _overhead)."""
    base = run.work / "setup0"
    with tracer.installed():
        _small_setup(run, functools.partial(run_inprocess, tracer), base)

    def operations(i, active):
        planner = _Planner(run, functools.partial(run_inprocess, active),
                           base, f"pass{i}")
        start = time.perf_counter()
        planner.query(0, overrides=False)
        planner.query(1, overrides=True)
        planner.evaluate()
        return time.perf_counter() - start

    overhead = _overhead(tracer, operations)
    _same(run, "simulate determinism",
          [_query_digest(run.work / f"pass{i}-q0") for i in range(3)])
    return overhead


# ---------------------------------------------------------------------------
# fullday: the ABM at operator scale through the library API


def _build_network(run: Run, i: int):
    """generate_scenario plus the handover build; None if either fails.
    Module attributes are looked up per call so traced runs see wrappers."""
    from carriersim import harness, rules

    try:
        scenario = harness.generate_scenario(
            harness.ScenarioSpec(**FULL_SPEC), run.work / f"net{i}",
            seed=FULL_SCENARIO_SEED)
        handover = rules.build_handover_model_for_hours(scenario.cfg,
                                                        scenario.mrs)
    except Exception as exc:  # a crashing set-up is one failed operation
        run.ledger.record("generate_scenario", [repr(exc)[-200:]])
        return None
    run.ledger.record("generate_scenario", [])
    return scenario, handover


def _day(run: Run, network, abm_seed: int) -> tuple[float, str | None]:
    from carriersim import abm

    scenario, handover = network
    config = abm.AbmConfig(runs=FULLDAY_RUNS, max_steps=MAX_STEPS,
                           seed=abm_seed)
    start = time.perf_counter()
    try:
        outputs = abm.simulate_day(scenario.traffic, scenario.cfg, handover,
                                   config)
    except Exception as exc:  # a crashing day is one failed operation
        run.ledger.record("simulate_day", [repr(exc)[-200:]])
        return time.perf_counter() - start, None
    wall = time.perf_counter() - start
    ok = run.ledger.record("simulate_day", checks.check_day(
        outputs, FULLDAY_RUNS, len(scenario.cfg.cells)))
    return wall, checks.day_digest(outputs) if ok else None


def fullday(run: Run) -> Result:
    """Set-ups and slices of timed days alternate, as in whatif. Every set-up
    builds the same network, from the scenario seed. Each day draws its own
    ABM seed from the workload seed, so the median day averages over the
    step counts of several seeds (they vary by about 4% between seeds). The
    last day repeats the first day's seed, to check determinism."""
    rng = random.Random(run.seed)
    seeds, digests, setups, walls = [], [], [], []
    network = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = _build_network(run, i)
        setups.append(time.perf_counter() - start)
        if built is None:
            continue
        network = built

        def step():
            seeds.append(rng.randrange(2 ** 31))
            wall, digest = _day(run, network, seeds[-1])
            digests.append(digest)
            return wall

        _fill(run.seconds / SETUP_REPEATS, step, walls,
              reserve=int(i == SETUP_REPEATS - 1))
    if seeds:
        wall, digest = _day(run, network, seeds[0])
        walls.append(wall)
        _same(run, "simulate_day determinism", [digests[0], digest])
    fullday_s = _median(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Result(
        metrics={"op_s": (fullday_s, "s"),
                 "setup_s": (_median(setups), "s"),
                 "peak_rss_mb": (peak, "MB")},
        figures={"fullday_s": fullday_s, "day_walls_s": walls,
                 "setup_walls_s": setups, "runs_per_hour": FULLDAY_RUNS,
                 "cells": FULL_SPEC["n_capacity"] + FULL_SPEC["n_coverage"]})


def fullday_traced(run: Run, tracer: tracing.Tracer) -> float:
    abm_seed = random.Random(run.seed).randrange(2 ** 31)
    with tracer.installed():
        network = _build_network(run, 0)
    if network is None:
        return 0.0
    digests = []

    def operations(i, active):
        wall, digest = _day(run, network, abm_seed)
        digests.append(digest)
        return wall

    overhead = _overhead(tracer, operations)
    _same(run, "simulate_day determinism", digests)
    return overhead


UNTRACED = {"whatif": whatif, "fullday": fullday}
TRACED = {"whatif": whatif_traced, "fullday": fullday_traced}


def traced(workload: str, run: Run) -> Result:
    tracer = tracing.Tracer()
    overhead = TRACED[workload](run, tracer)
    values, absent = tracing.layer_values(tracer, _import_s(), overhead)
    return Result(
        metrics={name: (value, tracing.LAYER_METRICS[name][0])
                 for name, value in values.items()},
        figures={"absent_metrics": absent,
                 "missing_functions": tracer.missing})
