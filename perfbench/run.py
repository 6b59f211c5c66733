"""carriersim benchmark: one workload per invocation.

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory, nothing needs installing beyond numpy and click. With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics instead. The lines before it name the workload's own
figures (query_s, train_s, accuracy, ...) and the run's provenance. Scratch
files go to `.perfbench_work/` in the checkout and are removed at exit.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import workloads

ROOT = workloads.ROOT
SRC = workloads.SRC


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance() -> dict:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "git_commit": _git_commit(ROOT),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.UNTRACED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carriersim" / "__init__.py").is_file():
        print(f"error: no carriersim package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CARRIERSIM_CONFIG", None)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    run = workloads.Run(seed=args.seed, seconds=args.seconds, work=work)
    try:
        if args.trace:
            result = workloads.traced(args.workload, run)
        else:
            result = workloads.UNTRACED[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass    # another run still uses it

    ledger = run.ledger
    figures = dict(result.figures,
                   failed_frac=ledger.failed / max(ledger.attempted, 1),
                   failures=ledger.failures)
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in figures.items():
        print(f"  {name}: {value}")
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
