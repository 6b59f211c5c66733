"""Per-layer tracing by wrapping carriersim's functions from outside.

Nothing in the package is edited: `Tracer.install` replaces each target
function with a wrapper in every `carriersim` module that holds it (the
defining module, the package re-exports and the names imported into `cli`,
`abm` and `harness`), and `uninstall` puts the originals back. A target that
no longer exists is recorded as missing and its metrics are left out, so the
benchmark keeps running across refactors.

Timed wrappers keep a stack of open spans. A span's self time is its duration
minus the durations of the timed spans nested in it, so each second of the
traced run is counted once, in the innermost timed layer. Counting wrappers
(tree walks, boosting calls) are not spans: their time stays with the caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager


def _rows(tracer, args, result):
    tracer.add("datamodel.parse_rows", len(result))


def _cells(tracer, args, result):
    tracer.add("datamodel.parse_rows", len(result.cells))


def _run(tracer, args, result):
    tracer.add("abm.steps", result.steps)
    tracer.add("abm.stable", int(result.stable))


def _dump(tracer, args, result):
    tracer.add("abm.run_dump_bytes", os.path.getsize(args[0]))
    tracer.add("abm.run_dumps", 1)


def _trees(tracer, args, result):
    tracer.add("ratemodel.trees", len(result.trees))


def _walk(tracer, args, result):
    tracer.add("ratemodel.walk_rows", len(args[1]))


def _bundle(key):
    def hook(tracer, args, result):
        tracer.sizes[key] = os.path.getsize(args[0])
    return hook


# (module, attribute, bucket, timed, hook). A bucket sums the self times and
# call counts of its functions; hooks add work counts from arguments/results.
TARGETS = [
    ("datamodel", "parse_datasets", "datamodel.parse", True, None),
    ("datamodel", "parse_engineering", "datamodel.parse", True, _cells),
    ("datamodel", "parse_kpis", "datamodel.parse", True, _rows),
    ("datamodel", "parse_energy", "datamodel.parse", True, _rows),
    ("datamodel", "parse_mrs", "datamodel.parse", True, _rows),
    ("datamodel", "fit_traffic_model", "datamodel.traffic_fit", True, None),
    ("datamodel", "draw_inputs", "datamodel.draw", True, None),
    ("datamodel", "write_datasets", "datamodel.write", True, None),
    ("datamodel", "write_engineering", "datamodel.write", True, None),
    ("datamodel", "write_kpis", "datamodel.write", True, None),
    ("datamodel", "write_energy", "datamodel.write", True, None),
    ("datamodel", "write_mrs", "datamodel.write", True, None),
    ("rules", "build_handover_model_for_hours", "rules.handover", True, None),
    ("rules", "build_handover_model", "rules.handover", True, None),
    ("abm", "run_monte_carlo", "abm.run", True, _run),
    ("abm", "simulate_day", "abm.day", True, None),
    ("abm", "run_benchmark", "abm.baseline", True, None),
    ("abm", "write_hourly_report", "abm.report_write", True, None),
    ("abm", "write_point_report", "abm.report_write", True, None),
    ("abm", "write_run_dump", "abm.report_write", True, _dump),
    ("abm", "read_mean_report", "abm.report_read", True, None),
    ("ratemodel", "train_rate_model", "ratemodel.fit", True, None),
    ("ratemodel", "fit_boosted", "ratemodel.fit_boosted", False, _trees),
    ("ratemodel", "predict_rate", "ratemodel.predict", True, None),
    ("ratemodel", "RegressionTree.predict", "ratemodel.tree_walk", False,
     _walk),
    ("ratemodel", "save_rate_model", "ratemodel.save", True,
     _bundle("ratemodel")),
    ("ratemodel", "load_rate_model", "ratemodel.load", True,
     _bundle("ratemodel")),
    ("energymodel", "fit_radio_energy_model", "energymodel.fit", True, None),
    ("energymodel", "predict_energy", "energymodel.predict", True, None),
    ("energymodel", "save_energy_model", "energymodel.save", True,
     _bundle("energymodel")),
    ("energymodel", "load_energy_model", "energymodel.load", True,
     _bundle("energymodel")),
    ("harness", "generate_scenario", "harness.generate", True, None),
    ("harness", "ground_truth_replay", "harness.replay", True, None),
    ("harness", "compare", "harness.compare", True, None),
    ("harness", "write_eval_report", "harness.compare", True, None),
    ("harness", "read_truth", "harness.truth_io", True, None),
    ("harness", "write_truth", "harness.truth_io", True, None),
]


class Tracer:
    """Wraps the TARGETS and accumulates self time, calls and work counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.sizes: dict[str, int] = {}
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, bucket: str, start: float) -> None:
        duration = time.perf_counter() - start
        nested = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        self.self_s[bucket] = self.self_s.get(bucket, 0.0) + duration - nested

    def _wrap(self, fn, bucket, timed, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if timed:
                tracer._stack.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(bucket, start)
            else:
                result = fn(*args, **kwargs)
            tracer.calls[bucket] = tracer.calls.get(bucket, 0) + 1
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    @contextmanager
    def stage(self, bucket: str):
        """A root span, e.g. one in-process CLI stage: its self time is the
        stage's wall time outside every wrapped layer."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(bucket, start)

    def install(self) -> None:
        importlib.import_module("carriersim.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "carriersim"
                                         or name.startswith("carriersim."))]
        for module_name, attr, bucket, timed, hook in TARGETS:
            module = importlib.import_module(f"carriersim.{module_name}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if not callable(original):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self.present.add(bucket)
            wrapper = self._wrap(original, bucket, timed, hook)
            if owner_name:
                self._patch(owner, name, original, wrapper)
                continue
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# Per-layer metrics: name -> (unit, bucket whose functions must exist).
# The bucket None marks metrics measured outside the wrappers.
LAYER_METRICS = {
    "cli.import_s": ("s", None),
    "cli.self_s": ("s", None),
    "datamodel.parse_s": ("s", "datamodel.parse"),
    "datamodel.parse_rows": ("count", "datamodel.parse"),
    "datamodel.traffic_fit_s": ("s", "datamodel.traffic_fit"),
    "datamodel.draw_calls": ("count", "datamodel.draw"),
    "datamodel.draw_s": ("s", "datamodel.draw"),
    "datamodel.write_s": ("s", "datamodel.write"),
    "rules.handover_s": ("s", "rules.handover"),
    "abm.runs": ("count", "abm.run"),
    "abm.steps": ("count", "abm.run"),
    "abm.stable_frac": ("ratio", "abm.run"),
    "abm.run_s": ("s", "abm.run"),
    "abm.us_per_step": ("us", "abm.run"),
    "abm.day_s": ("s", "abm.day"),
    "abm.baseline_s": ("s", "abm.baseline"),
    "abm.report_write_s": ("s", "abm.report_write"),
    "abm.report_read_s": ("s", "abm.report_read"),
    "abm.run_dump_bytes": ("bytes", "abm.report_write"),
    "ratemodel.fit_s": ("s", "ratemodel.fit"),
    "ratemodel.fit_boosted_calls": ("count", "ratemodel.fit_boosted"),
    "ratemodel.trees": ("count", "ratemodel.fit_boosted"),
    "ratemodel.predict_calls": ("count", "ratemodel.predict"),
    "ratemodel.predict_s": ("s", "ratemodel.predict"),
    "ratemodel.us_per_predict": ("us", "ratemodel.predict"),
    "ratemodel.tree_walks": ("count", "ratemodel.tree_walk"),
    "ratemodel.rows_per_walk": ("count", "ratemodel.tree_walk"),
    "ratemodel.save_s": ("s", "ratemodel.save"),
    "ratemodel.load_s": ("s", "ratemodel.load"),
    "ratemodel.bundle_bytes": ("bytes", "ratemodel.save"),
    "energymodel.fit_s": ("s", "energymodel.fit"),
    "energymodel.predict_calls": ("count", "energymodel.predict"),
    "energymodel.predict_s": ("s", "energymodel.predict"),
    "energymodel.save_s": ("s", "energymodel.save"),
    "energymodel.load_s": ("s", "energymodel.load"),
    "energymodel.bundle_bytes": ("bytes", "energymodel.save"),
    "harness.generate_s": ("s", "harness.generate"),
    "harness.replay_s": ("s", "harness.replay"),
    "harness.compare_s": ("s", "harness.compare"),
    "harness.truth_io_s": ("s", "harness.truth_io"),
    "trace.overhead_frac": ("ratio", None),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, import_s: float, overhead_frac: float,
                 ) -> tuple[dict[str, float], list[str]]:
    """Every LAYER_METRICS value, and the names left out because the
    functions behind them no longer exist."""
    s = tracer.self_s.get
    n = tracer.calls.get
    c = tracer.counts.get
    runs = n("abm.run", 0)
    steps = c("abm.steps", 0)
    predicts = n("ratemodel.predict", 0)
    walks = n("ratemodel.tree_walk", 0)
    values = {
        "cli.import_s": import_s,
        "cli.self_s": s("cli", 0.0),
        "datamodel.parse_s": s("datamodel.parse", 0.0),
        "datamodel.parse_rows": c("datamodel.parse_rows", 0),
        "datamodel.traffic_fit_s": s("datamodel.traffic_fit", 0.0),
        "datamodel.draw_calls": n("datamodel.draw", 0),
        "datamodel.draw_s": s("datamodel.draw", 0.0),
        "datamodel.write_s": s("datamodel.write", 0.0),
        "rules.handover_s": s("rules.handover", 0.0),
        "abm.runs": runs,
        "abm.steps": steps,
        "abm.stable_frac": _ratio(c("abm.stable", 0), runs),
        "abm.run_s": s("abm.run", 0.0),
        "abm.us_per_step": 1e6 * _ratio(s("abm.run", 0.0), steps),
        "abm.day_s": s("abm.day", 0.0),
        "abm.baseline_s": s("abm.baseline", 0.0),
        "abm.report_write_s": s("abm.report_write", 0.0),
        "abm.report_read_s": s("abm.report_read", 0.0),
        "abm.run_dump_bytes": _ratio(c("abm.run_dump_bytes", 0),
                                     c("abm.run_dumps", 0)),
        "ratemodel.fit_s": s("ratemodel.fit", 0.0),
        "ratemodel.fit_boosted_calls": n("ratemodel.fit_boosted", 0),
        "ratemodel.trees": c("ratemodel.trees", 0),
        "ratemodel.predict_calls": predicts,
        "ratemodel.predict_s": s("ratemodel.predict", 0.0),
        "ratemodel.us_per_predict": 1e6 * _ratio(s("ratemodel.predict", 0.0),
                                                 predicts),
        "ratemodel.tree_walks": walks,
        "ratemodel.rows_per_walk": _ratio(c("ratemodel.walk_rows", 0), walks),
        "ratemodel.save_s": s("ratemodel.save", 0.0),
        "ratemodel.load_s": s("ratemodel.load", 0.0),
        "ratemodel.bundle_bytes": tracer.sizes.get("ratemodel", 0),
        "energymodel.fit_s": s("energymodel.fit", 0.0),
        "energymodel.predict_calls": n("energymodel.predict", 0),
        "energymodel.predict_s": s("energymodel.predict", 0.0),
        "energymodel.save_s": s("energymodel.save", 0.0),
        "energymodel.load_s": s("energymodel.load", 0.0),
        "energymodel.bundle_bytes": tracer.sizes.get("energymodel", 0),
        "harness.generate_s": s("harness.generate", 0.0),
        "harness.replay_s": s("harness.replay", 0.0),
        "harness.compare_s": s("harness.compare", 0.0),
        "harness.truth_io_s": s("harness.truth_io", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    absent = [name for name, (_, bucket) in LAYER_METRICS.items()
              if bucket is not None and bucket not in tracer.present]
    for name in absent:
        del values[name]
    return values, absent
