"""Workload table and metric catalogue of the fleet benchmark.

Every run drives the whole monitoring path once (see README.md):

1. **live** — a daemon-mode fleet replayed as fast as the simulator
   allows, with the live stream attached and portal reads after every
   read round;
2. then ``ROUNDS`` rounds of: the nightly job ETL over the raw store
   the live phase archived, a bulk load of that store into an 8-shard
   TSDB behind 2 worker processes, a slice of a cold query battery
   against it, and a slice of two closed-loop clients browsing the
   served portal while nothing it reads is written.

A workload fixes the inputs; every phase runs in every workload
because every run reports every end-to-end metric.  Each phase has a
floor of work (rounds, queries, requests, repeats) that fixes the
run's length; ``--seconds`` only stretches the workload's primary phase
when it is longer than that phase's floor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: BENCHMARK.json run_seconds: the least time the primary phase
#: measures.  The floors of work of every other phase, and the live
#: phase's floor, take longer than this; a run measures about 50 s
RUN_SECONDS = 3
#: the simulated fleet is the same cluster on every seed, so the amount
#: and shape of live and ETL work do not vary with it; the seed varies
#: the job table, the battery, the page mix and every read sequence
FLEET_SEED = 20151001
#: sim seconds between collections (the paper's 10-minute cadence)
INTERVAL = 600
#: sim seconds of history a post-write /tsdb read plots
FRESH_WINDOW = 2 * 3600
#: load shape fixed by the benchmark: one load process, 2 HTTP
#: connections, 2 render threads, 2 shard workers over 8 shards
CONNECTIONS = 2
RENDER_THREADS = 2
SHARDS = 8
SHARD_WORKERS = 2
#: setups per run; setup_s is their median
SETUP_REPEATS = 3
#: rounds of archive and browse work after the live phase: one ETL and
#: one bulk load each (their medians are reported), and a slice of the
#: battery and of the browse requests
ROUNDS = 6
#: browse requests per connection between two speed probes, and live
#: deliveries between two
BROWSE_SLICE = 25
DELIVERY_PROBE_EVERY = 4
#: battery queries re-checked against an in-process store
CHECKED_QUERIES = 12
#: Zipf exponent of page popularity within a portal route: the top of
#: the 0.64-0.83 range Breslau et al. (INFOCOM 1999) measured for web
#: page requests
ZIPF_S = 0.8


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; every field is fixed, the seed varies."""

    name: str
    why: str
    #: live phase: fleet width and replayed sim hours
    nodes: int
    hours: int
    #: sim seconds between read rounds, per-host /tsdb plots read per
    #: round, and rounds between /fleet reads (/fleet charts the whole
    #: live TSDB, up to 1 s at 32 nodes, so it is not read every round)
    read_every: int
    tsdb_reads: int
    fleet_every: int
    #: job-table size the portal serves (generate_population)
    population: int
    #: archive phase: cold battery size floor
    battery: int
    #: browse phase: request floor
    pages: int
    #: the phase --seconds stretches beyond its floor
    primary: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="live_fleet",
        why="a 32-node daemon-mode fleet with portal reads after every "
            "collection: collector, broker, store, stream and TSDB writes "
            "dominate and every read lands on a cold cache",
        nodes=32, hours=5, read_every=INTERVAL, tsdb_reads=4, fleet_every=5,
        population=2000, battery=200, pages=5000, primary="live",
    ),
    Workload(
        name="archive_day",
        why="an 8-node fleet-day archived, then ETL, an 8-shard bulk load "
            "over 2 workers and a cold query battery that runs for --seconds "
            "(at least 200 queries)",
        nodes=8, hours=24, read_every=3600, tsdb_reads=5, fleet_every=4,
        population=2000, battery=200, pages=5000, primary="archive",
    ),
)}


#: (name, unit, better, bound) — printed with --trace 0
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("live_samples_per_s", "samples/s", "higher", 0.25),
    ("delivery_ms_p50", "ms", "lower", 0.25),
    ("delivery_ms_p95", "ms", "lower", 0.25),
    ("fresh_page_ms_p50", "ms", "lower", 0.25),
    ("fresh_page_ms_p90", "ms", "lower", 0.25),
    ("fleet_page_ms_mean", "ms", "lower", 0.25),
    ("etl_samples_per_s", "samples/s", "higher", 0.25),
    ("load_points_per_s", "points/s", "higher", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("query_ms_p95", "ms", "lower", 0.25),
    ("bytes_per_point", "B/pt", "lower", 0.05),
    ("page_ms_p50", "ms", "lower", 0.25),
    ("page_ms_p99", "ms", "lower", 0.25),
    ("pages_per_s", "pages/s", "higher", 0.25),
]

#: portal routes split out in portal.render_s.<route>
ROUTES = ("front", "search", "job", "fleet", "tsdb", "other")


def route_of(url: str) -> str:
    """The route of a portal URL, one of ``ROUTES``."""
    seg = url.split("?", 1)[0].lstrip("/").split("/", 1)[0]
    if seg == "":
        return "front"
    return seg if seg in ("search", "job", "fleet", "tsdb") else "other"

#: (name, unit, better) — printed with --trace 1
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cluster.self_s", "s", "lower"),
    ("daemon.record_s", "s", "lower"),
    ("collector.collect_s", "s", "lower"),
    ("collector.calls", "count", "lower"),
    ("broker.publish_s", "s", "lower"),
    ("broker.published", "count", "higher"),
    ("broker.dead_lettered", "count", "lower"),
    ("broker.redelivered", "count", "lower"),
    ("store.append_s", "s", "lower"),
    ("store.bytes", "B", "lower"),
    ("stream.deliver_self_s", "s", "lower"),
    ("stream.parse_s", "s", "lower"),
    ("stream.analyze_s", "s", "lower"),
    ("stream.retain_put_s", "s", "lower"),
    ("stream.alert_route_s", "s", "lower"),
    ("analytics.observe_s", "s", "lower"),
    ("tsdb.put_many_s", "s", "lower"),
    ("tsdb.put_many_calls", "count", "lower"),
    ("tsdb.points_per_put", "points", "higher"),
    ("tsdb.query_s", "s", "lower"),
    ("tsdb.result_cache_hit_ratio", "ratio", "higher"),
    ("tsdb.buffer_cache_hit_ratio", "ratio", "higher"),
    ("tsdb.chunks_decoded", "count", "lower"),
    ("tsdb.preagg_chunks_skipped", "count", "higher"),
    *[(f"portal.render_s.{r}", "s", "lower") for r in ROUTES],
    ("portal.page_cache_hit_ratio", "ratio", "higher"),
    ("portal.queue_wait_s", "s", "lower"),
    ("portal.shed", "count", "lower"),
    ("portal.deadline", "count", "lower"),
    ("db.search_s", "s", "lower"),
    ("analysis.fleet_report_s", "s", "lower"),
    ("pipeline.parse_s", "s", "lower"),
    ("pipeline.assemble_s", "s", "lower"),
    ("metrics.compute_s", "s", "lower"),
    ("metrics.flags_s", "s", "lower"),
    ("db.bulk_create_s", "s", "lower"),
    ("db.rows", "count", "higher"),
    ("pipeline.jobs_ok_ratio", "ratio", "higher"),
    ("shard.ingest_s", "s", "lower"),
    ("shard.scan_s", "s", "lower"),
    ("shard.window_stats_s", "s", "lower"),
    ("shard.select_s", "s", "lower"),
    ("shard.rpc_roundtrips", "count", "lower"),
    ("shard.rpc_wire_bytes_per_point", "B/pt", "lower"),
    ("shard.arena_hit_ratio", "ratio", "higher"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "fleetbench/run.py"],
        "paths": ["fleetbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }

