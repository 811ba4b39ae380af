"""CI gate: self-observability must stay under 5 % of ingest cost.

`repro.obs` promises "one dict lookup plus a float add per event"
(docs/observability.md).  This gate holds it to that: the same store
is ingested by ``parallel_ingest_jobs`` (the production ETL) with the
registry enabled and disabled, and the run fails if the instrumented
pipeline is more than 5 % slower.

One batched pass over this corpus takes only ~10–20 ms, and on a
shared 2-vCPU host the CPU speed drifts by up to 1.6x on a scale of
milliseconds, so a single-pass ratio (or a best-of-N of either mode)
swings by ±20 % on noise alone.  Each timed sample is therefore
``passes`` ingest passes into fresh databases, sized from a warm-up
so that a sample lasts at least ``SAMPLE_S``; the two modes alternate
pass by pass (ABBA order) so both samples of a round see the same host
speed; and the gated ratio — instrumented time over disabled time —
is the median over ``ROUNDS`` rounds.
"""

import math
import statistics
import time

from benchmarks._support import report
from repro import obs
from repro.db import Database
from repro.pipeline import parallel_ingest_jobs
from tests.test_pipeline.test_parallel import build_store

ROUNDS = 9
BUDGET = 1.05  # instrumented may cost at most 5 % more
SAMPLE_S = 0.06  # minimum length of one timed sample


def timed_ingest(store, enabled: bool) -> float:
    """One pass into a fresh database, obs on or off."""
    obs.set_enabled(enabled)
    obs.reset()
    db = Database()
    t0 = time.perf_counter()
    parallel_ingest_jobs(store, None, db)
    elapsed = time.perf_counter() - t0
    db.close()
    return elapsed


def test_obs_overhead_within_budget(tmp_path):
    store = build_store(tmp_path / "store", hosts=8, samples=48)
    was_enabled = obs.get_registry().enabled
    try:
        # warm caches before either mode is timed, and size the samples
        single = min(timed_ingest(store, True) for _ in range(3))
        passes = max(1, math.ceil(SAMPLE_S / single))
        off, on = [], []
        for _ in range(ROUNDS):
            t_off = t_on = 0.0
            for k in range(passes):
                if k % 2 == 0:
                    t_off += timed_ingest(store, False)
                    t_on += timed_ingest(store, True)
                else:
                    t_on += timed_ingest(store, True)
                    t_off += timed_ingest(store, False)
            off.append(t_off)
            on.append(t_on)
        ratio = statistics.median(b / a for a, b in zip(off, on))
        report(
            "obs overhead gate (parallel_ingest_jobs, %d passes per "
            "sample, median of %d rounds)" % (passes, ROUNDS),
            [("disabled", f"{statistics.median(off) * 1e3:.1f} ms", ""),
             ("enabled", f"{statistics.median(on) * 1e3:.1f} ms",
              f"{(ratio - 1) * 100:+.1f} %")],
            ["mode", "median sample", "overhead"],
        )
        assert ratio <= BUDGET, (
            f"instrumented ingest is {(ratio - 1) * 100:.1f} % slower "
            f"(budget {(BUDGET - 1) * 100:.0f} %)"
        )
    finally:
        obs.set_enabled(was_enabled)
        obs.reset()
