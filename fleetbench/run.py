"""Fleet benchmark: one whole-path run of the monitoring system.

Usage (from the repository root)::

    python3 fleetbench/run.py --workload live_fleet --seed 1 \\
        --seconds 3 --trace 0

Prints every metric with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  Exits 1 when a correctness check
fails, 2 when the program under test is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def stop_processes() -> None:
    """Stop and reap every child process the run started, then the
    multiprocessing resource tracker (started by the shard workers'
    shared memory), so that no process outlives the run."""
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # finalizers that release shared memory talk to the tracker: run
    # them before it stops, or the first one would start a new tracker
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    from config import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"fleetbench: no program under test at {src}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import phases

    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # anything the program puts in a temp dir stays inside the checkout
    old_tmpdir = os.environ.get("TMPDIR")
    tempfile.tempdir = os.environ["TMPDIR"] = str(workdir)
    try:
        outcome, metrics, facts = phases.run(
            wl, args.seed, args.seconds, workdir / "run",
            OUT / f"spans-{wl.name}.npz" if args.trace else None,
        )
    finally:
        tempfile.tempdir = None
        if old_tmpdir is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = old_tmpdir
        shutil.rmtree(workdir, ignore_errors=True)
        stop_processes()

    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    spec = END_TO_END if not args.trace else PER_LAYER
    units = {row[0]: row[1] for row in spec}
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name, *_ in spec
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "facts": facts, "checks": outcome.checks,
                    "problems": outcome.problems, **result}, indent=2)
        + "\n"
    )
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("run: " + " ".join(f"{k}={v:.3f}" if isinstance(v, float)
                             else f"{k}={v}" for k, v in facts.items()))
    for name, check_ok in sorted(outcome.checks.items()):
        print(f"check {'ok  ' if check_ok else 'FAIL'} {name}")
    for problem in outcome.problems:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
