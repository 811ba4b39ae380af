"""Tests of the fleet benchmark itself.

Run from the repository root::

    python3 -m pytest fleetbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import config  # noqa: E402
import phases  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: a workload small enough for a test: every phase runs, every check
#: applies, and no phase is stretched by a time budget
TINY = config.Workload(
    name="tiny", why="test", nodes=8, hours=2, read_every=config.INTERVAL,
    tsdb_reads=2, fleet_every=4, population=300, battery=30, pages=60,
    primary="live",
)


def test_metric_names_units_and_caps():
    e2e = [row[0] for row in config.END_TO_END]
    layer = [row[0] for row in config.PER_LAYER]
    assert len(e2e) <= config.MAX_END_TO_END
    assert len(layer) <= config.MAX_PER_LAYER
    names = e2e + layer + list(config.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert config.NAME_RE.match(name), name
    for _, unit, better, *bound in config.END_TO_END + config.PER_LAYER:
        assert config.UNIT_RE.match(unit), unit
        assert better in ("higher", "lower")
    bounds = {n: b for n, _, _, b in config.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for w in config.WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why


def test_benchmark_json_is_the_config():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == config.benchmark_spec()
    assert 1 <= spec["run_seconds"] <= 60


def test_self_time_subtracts_children():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()
            return sum(self.gen())

        def inner(self):
            time.sleep(0.01)

        def gen(self):
            for i in range(3):
                time.sleep(0.01)
                yield i

    rec = SpanRecorder("test")
    rec.wrap(Layer, "outer", "outer")
    rec.wrap(Layer, "inner", "inner")
    rec.wrap(Layer, "gen", "gen")
    try:
        assert Layer().outer() == 3
    finally:
        rec.unwrap()
    assert rec.calls == {"outer": 1, "inner": 2, "gen": 4}
    assert rec.self_s["outer"] < 0.01
    assert rec.total_s["outer"] == pytest.approx(
        rec.self_s["outer"] + rec.total_s["inner"] + rec.total_s["gen"])
    outer_id = rec.span_id[list(rec.name_id).index(rec.names.index("outer"))]
    assert all(p == outer_id for p, n in zip(rec.parent, rec.name_id)
               if rec.names[n] != "outer")


def test_scaled_time_leaves_out_probes_and_scales_by_their_ends():
    from speed import REF_PROBE_S, Speed

    speed = Speed()
    # probes over [0, 1) at half reference speed and over [2, 3) at it
    speed.starts, speed.ends = [0.0, 2.0], [1.0, 3.0]
    speed.times = [2 * REF_PROBE_S, REF_PROBE_S]
    assert speed.scaled(1.0, 2.0) == pytest.approx(1 / 1.5)
    # the probe inside is left out; past the last probe its speed holds
    assert speed.scaled(1.0, 5.0) == pytest.approx(1 / 1.5 + 2.0)
    assert speed.scaled(3.5, 4.0) == pytest.approx(0.5)
    assert Speed(enabled=False).scaled(1.0, 5.0) == 4.0
    live = Speed()
    live.probe()
    live.probe()
    assert len(live.times) == 2 and live.starts[1] >= live.ends[0]


def test_one_cpu_pins_every_thread_and_releases_them():
    import os
    import threading

    from speed import ALL_CPUS, one_cpu

    def affinities():
        return {frozenset(os.sched_getaffinity(int(tid)))
                for tid in os.listdir("/proc/self/task")}

    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        with one_cpu():
            assert affinities() == {frozenset({min(ALL_CPUS)})}
        assert affinities() == {ALL_CPUS}
    finally:
        stop.set()
        worker.join()


def test_stop_processes_reaps_children_and_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker, shared_memory

    import run

    shm = shared_memory.SharedMemory(create=True, size=4096)
    shm.close()
    shm.unlink()
    proc = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(30,))
    proc.start()
    run.stop_processes()
    assert not multiprocessing.active_children()
    assert proc.exitcode is not None
    assert resource_tracker._resource_tracker._pid is None


def test_page_mix_outgrows_the_page_cache_and_differs_per_client():
    from repro.portal.loadgen import default_paths

    jobids = [str(2_000_000 + i) for i in range(400)]
    mix = phases.PageMix(7, jobids)
    assert mix.distinct() > 256
    assert sorted(p for pages in mix.pages.values() for p in pages) == sorted(
        default_paths(jobids, with_tsdb=True))
    assert set(mix.routes) == {"front", "search", "job", "fleet", "tsdb"}
    assert sorted(mix.site_wide + mix.pages["job"]) == sorted(
        default_paths(jobids, with_tsdb=True))
    a, b = random.Random("client:7:0"), random.Random("client:7:1")
    seq_a = [mix.draw(a) for _ in range(50)]
    seq_b = [mix.draw(b) for _ in range(50)]
    assert seq_a != seq_b
    again = random.Random("client:7:0")
    assert seq_a == [mix.draw(again) for _ in range(50)]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = {}
    for trace in (False, True):
        tmp = tmp_path_factory.mktemp(f"trace{int(trace)}")
        out[trace] = phases.run(TINY, 5, 0.0, tmp / "run",
                                tmp / "spans.npz" if trace else None)
    return out


def test_traced_and_untraced_runs_agree(tiny_runs):
    (plain, e2e, plain_facts), (traced, layer, traced_facts) = (
        tiny_runs[False], tiny_runs[True])
    assert plain.correct and traced.correct, plain.problems + traced.problems
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted
    assert plain.checks == traced.checks
    counts = ("rounds", "deliveries", "fresh_reads", "raw_samples",
              "battery_queries", "browse_requests", "distinct_pages")
    assert ({k: plain_facts[k] for k in counts}
            == {k: traced_facts[k] for k in counts})
    assert set(e2e) == {row[0] for row in config.END_TO_END}
    assert set(layer) == {row[0] for row in config.PER_LAYER}
    assert all(v > 0 for v in e2e.values())
    assert layer["collector.calls"] == layer["broker.published"]
    assert layer["db.rows"] > 0 and layer["tsdb.put_many_calls"] > 0
    assert plain.checks["archive.load_repeats_start_alike"]


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "fleetbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", "live_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

