"""One whole-path run: set-up, the live phase, the archive and browse
rounds, and their checks.

Only the system's public entry points are driven:
``monitoring_session``, ``StreamPipeline``, ``parallel_ingest_jobs``,
``ShardedTSDB``, ``PortalServer``/``PortalApp`` and
``generate_population``.  Load comes from this one process.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import random
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from config import (
    BROWSE_SLICE,
    CHECKED_QUERIES,
    CONNECTIONS,
    DELIVERY_PROBE_EVERY,
    FLEET_SEED,
    FRESH_WINDOW,
    INTERVAL,
    RENDER_THREADS,
    ROUNDS,
    ROUTES,
    ZIPF_S,
    SETUP_REPEATS,
    SHARD_WORKERS,
    SHARDS,
    Workload,
    route_of,
)
from spans import SpanRecorder, install_layers
from speed import Speed, one_cpu
from webclient import Clients, Fetch

_EPOCH_RE = re.compile(r"store epoch (\d+)")

#: metric name of the timed bulk loads; pruned after each one
COPY_METRIC = "stats.load"

#: sensor types the cold battery cycles through, five queries each.  The
#: per-core types (cpu, intel_snb: 100+ series per host) are left out:
#: a fleet-wide query over them costs 10-20x the others, so they would
#: sit alone above the 95th percentile and make it jump between runs.
BATTERY_TYPES = ("llite", "osc", "mdc", "mem", "ib", "lnet", "block",
                 "numa")


#: (start, end) of one timed section, in time.perf_counter() seconds
Interval = Tuple[float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0–100)."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


@dataclass
class Outcome:
    """Operations attempted and failed, and the checks, of one run."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.problems.append(f"{name}: {detail}")

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


class DeliveryTimer:
    """Times every live-stream delivery from the broker's side.

    The stream's consumer callback is wrapped as the broker receives
    it, so one timing runs from the broker invoking the consumer to its
    return: parse → analyze → TSDB write → alerts.  With a recorder
    attached each delivery is also a ``stream.deliver`` span.  A speed
    probe follows every ``DELIVERY_PROBE_EVERY``-th delivery.
    """

    def __init__(self, speed: Speed) -> None:
        #: (start, end) of every delivery
        self.intervals: List[Interval] = []
        self.rec: Optional[SpanRecorder] = None
        self.speed = speed

    def start(self, stream, broker) -> None:
        real_channel = broker.channel

        def channel():
            ch = real_channel()
            consume = ch.basic_consume

            def basic_consume(queue, callback, auto_ack=False):
                return consume(queue, self._timed(callback), auto_ack)

            ch.basic_consume = basic_consume
            return ch

        broker.channel = channel
        try:
            stream.start()
        finally:
            del broker.channel

    def _timed(self, callback):
        def timed(channel, delivery):
            rec = self.rec
            span = rec.open_span() if rec is not None else None
            t0 = time.perf_counter()
            try:
                callback(channel, delivery)
            finally:
                t1 = time.perf_counter()
                if span is not None:
                    rec.close_span(*span, "stream.deliver", t0, t1)
                self.intervals.append((t0, t1))
                if len(self.intervals) % DELIVERY_PROBE_EVERY == 0:
                    self.speed.probe()

        return timed


class Rig:
    """Everything one setup builds; :meth:`close` releases all of it."""

    def __init__(self, wl: Workload, seed: int, workdir: Path,
                 speed: Speed) -> None:
        from repro import monitoring_session
        from repro.analysis.popgen import generate_population
        from repro.cluster.workload import DEFAULT_MIX, WorkloadGenerator
        from repro.db import Database
        from repro.portal.app import PortalApp
        from repro.portal.server import PortalServer
        from repro.shard import ShardedTSDB
        from repro.stream import FleetAnalytics, StreamPipeline

        self.workdir = workdir
        self.speed = speed
        self.db = Database()
        generate_population(self.db, wl.population, seed=seed)
        speed.probe()
        self.sess = monitoring_session(
            nodes=wl.nodes, seed=FLEET_SEED, interval=INTERVAL,
            store_dir=str(workdir / "store"),
        )
        self.start_time = self.sess.cluster.clock.now()
        # wired as `repro serve --live-nodes` wires its live stream
        self.stream = StreamPipeline(
            self.sess.broker, jobs=self.sess.cluster.jobs,
            analytics=FleetAnalytics(min_jobs=4),
        )
        self.deliveries = DeliveryTimer(speed)
        self.deliveries.start(self.stream, self.sess.broker)
        speed.probe()
        # a steady submission stream (no diurnal dip) at more node-hours
        # than the fleet has: every seed keeps every node busy, so the
        # amount of work does not vary with the seed.  Submissions cover
        # twice the replay, so an extended run stays busy too.
        WorkloadGenerator(
            self.sess.cluster, DEFAULT_MIX, rate_per_hour=wl.nodes / 2,
            diurnal=False,
        ).run(2 * wl.hours * 3600)
        speed.probe()
        self.app = PortalApp(self.db, stream=self.stream)
        self.server = PortalServer(self.app, workers=RENDER_THREADS)
        self.clients: Optional[Clients] = None
        self.sharded = None
        try:
            host, port = self.server.start_background()
            self.clients = Clients(host, port, CONNECTIONS)
            self.clients.round(["/healthz"] * CONNECTIONS)
            speed.probe()
            self.sharded = ShardedTSDB(shards=SHARDS, workers=SHARD_WORKERS)
            # worker spawn is lazy in effect until the first reply: one
            # real scatter round-trip makes the load start warm (flush()
            # does nothing while no write is un-acked)
            self.sharded.window_stats("stats")
        except BaseException:
            self.close()
            raise

    def worker_peak_kb(self) -> int:
        """Sum of the live shard workers' peak RSS (VmHWM), in KiB."""
        total = 0
        for proc in multiprocessing.active_children():
            try:
                status = Path(f"/proc/{proc.pid}/status").read_text()
            except OSError:
                continue
            m = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
            if m:
                total += int(m.group(1))
        return total

    def close(self) -> None:
        if self.clients is not None:
            self.clients.close()
            self.clients = None
            # let the server's connection handlers see EOF and return
            # before shutdown cancels them
            time.sleep(0.2)
        self.server.close()
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup(wl: Workload, seed: int, workdir: Path,
          speed: Speed) -> Tuple[Rig, List[Interval]]:
    """Set up ``SETUP_REPEATS`` times; keep the last rig.  Returns the
    (start, end) of every set-up."""
    times: List[Interval] = []
    rig: Optional[Rig] = None
    for k in range(SETUP_REPEATS):
        if rig is not None:
            rig.close()
            rig = None
        # each timed section starts from a collected heap, so the cost
        # of garbage made earlier (a closed rig, the previous repeat)
        # does not land in it
        gc.collect()
        speed.probe()
        t0 = time.perf_counter()
        rig = Rig(wl, seed, workdir / f"setup{k}", speed)
        t1 = time.perf_counter()
        speed.probe()
        times.append((t0, t1))
    return rig, times


# -- live phase ----------------------------------------------------------------

@dataclass
class LiveResult:
    #: (start, end) of every Cluster.run_for call
    runs: List[Interval] = field(default_factory=list)
    fresh: List[Fetch] = field(default_factory=list)
    rounds: int = 0


def _fresh_paths(wl: Workload, hosts: Sequence[str], r: int,
                 now: int) -> List[str]:
    """Read round ``r``: a host's recent plots, and /fleet every
    ``fleet_every`` rounds.

    A plot covers the trailing FRESH_WINDOW: over the whole replay its
    cost would grow with the hour, and the latency tail would be the
    last few reads of the phase alone.
    """
    paths = ["/fleet"] if r % wl.fleet_every == 0 else []
    for i in range(wl.tsdb_reads):
        host = hosts[(r * wl.tsdb_reads + i) % len(hosts)]
        paths.append(f"/tsdb?tag.host={host}&tag.type=cpu&group_by=event"
                     f"&range={now - FRESH_WINDOW}:{now}")
    return paths


def live_phase(rig: Rig, wl: Workload, budget: float, seed: int,
               out: Outcome) -> LiveResult:
    """Replay the fleet; read the portal after every read round."""
    from repro import obs

    cluster = rig.sess.cluster
    hosts = sorted(cluster.nodes)
    read_order = list(hosts)
    random.Random(f"reads:{seed}").shuffle(read_order)
    res = LiveResult()
    floor_rounds = wl.hours * 3600 // wl.read_every
    speed = rig.speed
    gc.collect()
    t_phase = time.perf_counter()
    while (res.rounds < floor_rounds
           or time.perf_counter() - t_phase < budget):
        speed.probe()
        t0 = time.perf_counter()
        cluster.run_for(wl.read_every)
        t1 = time.perf_counter()
        res.runs.append((t0, t1))
        speed.probe()
        epoch = rig.stream.tsdb.epoch
        paths = _fresh_paths(wl, read_order, res.rounds,
                             int(cluster.clock.now()))
        # /fleet is read on its own, so that its render does not share
        # the interpreter with a /tsdb render
        fetched: List[Fetch] = []
        with one_cpu():
            speed.probe()
            if "/fleet" in paths:
                fetched += rig.clients.round(["/fleet"])
                speed.probe()
            fetched += rig.clients.round(
                [p for p in paths if p != "/fleet"])
            speed.probe()
        for f in fetched:
            res.fresh.append(f)
            if f.ok and f.path.startswith("/tsdb"):
                m = _EPOCH_RE.search(f.body)
                out.check(
                    "live.tsdb_page_epoch_current",
                    m is not None and int(m.group(1)) == epoch,
                    f"{f.path} shows {m and m.group(1)}, store is {epoch}",
                )
        res.rounds += 1
    # deliver what the broker still holds (its latency is 1 sim second)
    speed.probe()
    t0 = time.perf_counter()
    cluster.run_for(10)
    t1 = time.perf_counter()
    res.runs.append((t0, t1))
    speed.probe()

    stats = rig.sess.broker.stats()
    published = stats["published"]
    consumed = rig.sess.consumer.consumed
    streamed = rig.stream.samples
    out.check(
        "live.published_archived_streamed",
        published == consumed == streamed == len(rig.deliveries.intervals),
        f"published {published}, archived {consumed}, streamed {streamed}, "
        f"deliveries {len(rig.deliveries.intervals)}",
    )
    out.check("live.no_dead_letters", stats["dead_lettered"] == 0,
              f"{stats['dead_lettered']} dead-lettered")
    now = cluster.clock.now()
    last_round = (
        rig.start_time + (now - rig.start_time) // INTERVAL * INTERVAL
    )
    from repro.tsdb.query import window_stats

    for host in hosts:
        newest = max(
            (s.last_ts for s in window_stats(
                rig.stream.tsdb, "stats", tags={"host": host})
             if s.last_ts is not None),
            default=None,
        )
        out.check(
            "live.newest_point_from_last_round",
            newest is not None and last_round <= newest <= now,
            f"{host}: newest {newest}, last round {last_round}",
        )
    quarantined = sum(rig.sess.store.quarantine_counts().values())
    parse_errors = obs.get_registry().get("repro_stream_parse_errors_total")
    bad_lines = quarantined + int(parse_errors.total() if parse_errors else 0)
    bad_reads = sum(1 for f in res.fresh if not f.ok)
    out.ops(len(rig.deliveries.intervals),
            stats["dead_lettered"] + bad_lines)
    out.ops(len(res.fresh), bad_reads)
    out.check("live.reads_ok", bad_reads == 0,
              f"{bad_reads} of {len(res.fresh)} reads failed")
    return res


# -- archive phase -------------------------------------------------------------

@dataclass
class ArchiveResult:
    samples: int = 0
    #: (start, end) of every ETL pass, bulk load and battery query
    etls: List[Interval] = field(default_factory=list)
    jobs_ingested: int = 0
    jobs_attempted: int = 0
    loads: List[Interval] = field(default_factory=list)
    #: points of one whole-store load
    points: int = 0
    bytes_per_point: float = 0.0
    queries: List[Interval] = field(default_factory=list)
    battery_s: float = 0.0
    check_s: float = 0.0
    #: (kind, kwargs, result) of the battery queries to re-check
    checked: List[Tuple[str, dict, object]] = field(default_factory=list)


def battery(rng: random.Random, hosts: Sequence[str],
            events: Dict[str, List[str]]):
    """Endless cold-battery queries: rounds of the TSDB bench's mix.

    Each round takes one sensor type — every ``len(BATTERY_TYPES)``
    rounds visit every type once, in a seeded order — and asks the five
    questions of one portal session about it: an event summary, a
    per-host plot, a fleet summary, a per-host rate panel and a fleet
    rate downsample.
    """
    types = [t for t in BATTERY_TYPES if t in events]
    events = {t: sorted(e) for t, e in events.items()}
    while True:
        order = list(types)
        rng.shuffle(order)
        for t in order:
            host = rng.choice(hosts)
            event = rng.choice(events[t])
            yield ("summary_event", "stats",
                   dict(tags={"type": t, "event": event}))
            yield ("plot_host", "grid",
                   dict(tags={"host": host, "type": t}, group_by=("event",)))
            yield ("summary_fleet", "stats", dict(tags={"type": t}))
            yield ("fleet_rate", "grid",
                   dict(tags={"type": t}, group_by=("host",), rate=True))
            yield ("fleet_downsample", "grid",
                   dict(tags={"type": t, "event": event}, rate=True,
                        downsample=(3600, "avg")))


def _run_query(db, kind: str, kw: dict):
    if kind == "grid":
        return db.query("stats", **kw)
    return db.window_stats("stats", **kw)


def _same_result(a, b) -> bool:
    """Bit-identical query results (NaN equal to NaN)."""
    if hasattr(a, "series"):
        if len(a.series) != len(b.series):
            return False
        return all(
            x.tags == y.tags
            and np.array_equal(x.times, y.times)
            and np.array_equal(x.values.view(np.int64),
                               y.values.view(np.int64))
            for x, y in zip(a.series, b.series)
        )
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        fx, fy = vars(x), vars(y)
        for k in fx:
            u, v = fx[k], fy[k]
            if isinstance(u, float) and isinstance(v, float):
                if np.float64(u).view(np.int64) != np.float64(v).view(np.int64):
                    return False
            elif u != v:
                return False
    return True


class Archive:
    """Nightly ETL, sharded bulk load and cold query battery over the
    raw store the live phase archived, run a slice at a time."""

    def __init__(self, rig: Rig, wl: Workload, seed: int,
                 out: Outcome) -> None:
        from repro.shard import StoreSource

        self.rig, self.out = rig, out
        self.speed = rig.speed
        self.res = ArchiveResult()
        # the live stream parsed every archived sample on its own path:
        # its counts are the reference the bulk load must reproduce
        self.res.samples = rig.stream.samples
        self.points = rig.stream.points
        events: Dict[str, set] = {}
        for series in rig.stream.tsdb.select("stats"):
            events.setdefault(series.tags["type"], set()).add(
                series.tags["event"])
        self.queries = battery(random.Random(f"battery:{seed}"),
                               sorted(rig.sess.cluster.nodes), events)
        self.check_at = set(random.Random(f"check:{seed}").sample(
            range(wl.battery), CHECKED_QUERIES))
        self.finished = {j for j, job in rig.sess.cluster.jobs.items()
                         if job.state.finished}
        # the loads read the raw files: write out what the store buffers
        rig.sess.store.flush()
        self.src = StoreSource(str(rig.sess.store.root))
        self.past_last_point = int(rig.sess.cluster.clock.now()) + 1

    def etl(self) -> None:
        """One ETL pass into a fresh database, as `repro ingest` runs it
        but with the scheduler's job table (see README)."""
        from repro.db import Database
        from repro.pipeline.parallel import parallel_ingest_jobs
        from repro.pipeline.records import JobRecord

        db = Database()
        gc.collect()
        self.speed.probe()
        t0 = time.perf_counter()
        etl = parallel_ingest_jobs(
            self.rig.sess.store, self.rig.sess.cluster.jobs, db)
        t1 = time.perf_counter()
        self.speed.probe()
        self.res.etls.append((t0, t1))
        JobRecord.bind(db)
        rows = set(JobRecord.objects.all().values_list("jobid", flat=True))
        db.close()
        self.res.jobs_ingested += etl.ingested
        self.res.jobs_attempted += etl.ingested + len(etl.errors)
        self.out.ops(etl.ingested + len(etl.errors), len(etl.errors))
        self.out.check("archive.etl_no_errors", not etl.errors,
                       "; ".join(etl.errors[:3]))
        self.out.check(
            "archive.job_rows_are_finished_jobs", rows == self.finished,
            f"{len(rows)} rows vs {len(self.finished)} finished jobs "
            f"({len(rows ^ self.finished)} differ)")

    def _ingest(self, metric: str, what: str) -> Interval:
        """Load the store under ``metric``; returns the (start, end)
        wall times of the load and its flush() barrier."""
        t0 = time.perf_counter()
        rep = self.rig.sharded.ingest(self.src, metric=metric)
        self.rig.sharded.flush()
        t1 = time.perf_counter()
        self.res.points = rep.points
        self.out.check(
            "archive.sharded_points_are_samples_x_events",
            rep.points == self.points and rep.samples == self.res.samples,
            f"{what}: {rep.points} points / {rep.samples} samples, "
            f"the live stream wrote {self.points} / {self.res.samples}")
        return t0, t1

    def load_battery_store(self) -> None:
        """Load the store the battery reads, untimed, and seal it.

        At rest = sealed: bytes_per_point is measured here, while it
        is the only metric, and the battery then reads sealed chunks.
        """
        sharded = self.rig.sharded
        self._ingest("stats", "battery store")
        sharded.seal_heads()
        # sealing drops the duplicate timestamps daemon-mode archives
        # hold, so the store keeps fewer points than were loaded
        self.rest_points = sharded.n_points()
        self.res.bytes_per_point = sharded.storage_bytes() / self.rest_points

    def load(self, i: int) -> None:
        """One timed bulk load of the whole store, under a metric name
        of its own that is pruned again afterwards, so every repeat
        starts from the same shard state: the battery store alone."""
        sharded = self.rig.sharded
        gc.collect()
        # the load runs in this process and both shard workers
        self.speed.probe(all_cpus=True)
        t0, t1 = self._ingest(COPY_METRIC, f"load {i}")
        self.speed.probe(all_cpus=True)
        self.res.loads.append((t0, t1))
        sharded.prune(self.past_last_point, metric=COPY_METRIC)
        left = sharded.n_points()
        self.out.check("archive.load_repeats_start_alike",
                       left == self.rest_points,
                       f"after load {i}: {left} points left, the battery "
                       f"store holds {self.rest_points}")

    def run_battery(self, count: int, budget: float) -> None:
        """At least ``count`` cold queries, and for ``budget`` seconds."""
        sharded = self.rig.sharded
        failed = done = 0
        t0 = time.perf_counter()
        while done < count or time.perf_counter() - t0 < budget:
            name, kind, kw = next(self.queries)
            sharded.drop_read_caches()
            self.speed.probe()
            q0 = time.perf_counter()
            try:
                result = _run_query(sharded, kind, kw)
            except Exception as exc:  # ShardWorkerDied included
                failed += 1
                self.out.problems.append(f"query {name} {kw} raised {exc!r}")
                result = None
            self.res.queries.append((q0, time.perf_counter()))
            if (len(self.res.queries) - 1 in self.check_at
                    and result is not None):
                self.res.checked.append((kind, kw, result))
            done += 1
        self.speed.probe()
        self.res.battery_s += time.perf_counter() - t0
        self.out.ops(done, failed)


def check_battery(rig: Rig, res: ArchiveResult, out: Outcome) -> None:
    """Re-run the sampled battery queries on an in-process store loaded
    from the same raw files; every answer must be bit-identical."""
    from repro.shard import ShardedTSDB, StoreSource

    t0 = time.perf_counter()
    with ShardedTSDB(shards=SHARDS, workers=0) as reference:
        reference.ingest(
            StoreSource(str(rig.sess.store.root)),
            types=sorted({kw["tags"]["type"] for _, kw, _ in res.checked}),
        )
        for i, (kind, kw, got) in enumerate(res.checked):
            out.check("archive.battery_matches_in_process_store",
                      _same_result(got, _run_query(reference, kind, kw)),
                      f"checked query {i} {kind} {kw} differs")
    out.check("archive.checked_queries_ran",
              len(res.checked) == CHECKED_QUERIES,
              f"{len(res.checked)} of {CHECKED_QUERIES} checked queries ran")
    res.check_s = time.perf_counter() - t0


# -- browse phase --------------------------------------------------------------

class PageMix:
    """A seeded, skewed mix over the portal's own representative pages.

    The pages are ``repro.portal.loadgen.default_paths`` for every job
    of the table, with the TSDB views: ``/``, two searches, ``/fleet``,
    one detail page per job and two whole-store ``/tsdb`` views — more
    distinct pages than the page cache holds.  No record says how
    portal users spread over these, so the mix has two numbers, both
    assumptions (README "Page mix"): a request picks one of the five
    routes uniformly, then a page of that route by a Zipf law of
    exponent ``ZIPF_S`` over a seeded order.
    """

    def __init__(self, seed: int, jobids: Sequence[str]) -> None:
        from repro.portal.loadgen import default_paths

        rng = random.Random(f"pages:{seed}")
        self.pages: Dict[str, List[str]] = {}
        for path in default_paths(jobids, with_tsdb=True):
            self.pages.setdefault(route_of(path), []).append(path)
        self.weights: Dict[str, List[float]] = {}
        for route, pages in self.pages.items():
            rng.shuffle(pages)
            self.weights[route] = list(np.cumsum(
                [(rank + 1) ** -ZIPF_S for rank in range(len(pages))]))
        self.routes = sorted(self.pages)
        #: rendered once before the timed browse (see Browse.warm):
        #: every page but the job pages
        self.site_wide = [p for r in self.routes if r != "job"
                          for p in sorted(self.pages[r])]

    def distinct(self) -> int:
        return sum(len(p) for p in self.pages.values())

    def draw(self, rng: random.Random) -> str:
        route = rng.choice(self.routes)
        return rng.choices(self.pages[route],
                           cum_weights=self.weights[route])[0]


@dataclass
class BrowseResult:
    fetches: List[Fetch] = field(default_factory=list)
    #: (start, end) of every slice of the browse, and of the warm-up
    slices: List[Interval] = field(default_factory=list)
    warm: List[Fetch] = field(default_factory=list)
    warm_span: Interval = (0.0, 0.0)
    distinct: int = 0


class Browse:
    """Two closed-loop clients, zero think time, each with its own
    seeded page sequence, run a slice at a time.

    A round's requests go in slices of ``BROWSE_SLICE`` per connection
    with a speed probe between two slices, while both clients wait;
    the whole process runs on one CPU meanwhile (``speed.one_cpu``).
    """

    def __init__(self, rig: Rig, seed: int, out: Outcome) -> None:
        from repro.pipeline.records import JobRecord

        self.rig, self.out = rig, out
        self.speed = rig.speed
        JobRecord.bind(rig.db)
        self.mix = PageMix(seed, sorted(
            JobRecord.objects.all().values_list("jobid", flat=True)))
        self.rngs = [random.Random(f"client:{seed}:{i}")
                     for i in range(CONNECTIONS)]
        self.res = BrowseResult(distinct=self.mix.distinct())

    def warm(self) -> None:
        """Render the site-wide pages once before the timed browse.

        A first render over the whole live TSDB or the whole job table
        takes up to seconds, and those few one-off renders decided
        pages_per_s and page_ms_p99 more than the browse itself did;
        each of these pages is drawn often enough to stay cached, so
        after them the browse measures the cache's steady state.  The
        time counts in setup_s; the live phase's /fleet reads time the
        same render in fleet_page_ms_mean.
        """
        with one_cpu():
            self.speed.probe()
            t0 = time.perf_counter()
            fetches = self.res.warm = self.rig.clients.round(
                self.mix.site_wide)
            t1 = time.perf_counter()
            self.speed.probe()
        self.res.warm_span = (t0, t1)
        bad = [f for f in fetches if not f.ok]
        self.out.ops(len(fetches), len(bad))
        self.out.check("browse.warm_up_2xx", not bad,
                       f"{[(f.path, f.status) for f in bad]}")

    def run(self, count: int, budget: float) -> None:
        """At least ``count`` requests, and for ``budget`` seconds."""
        per_conn = math.ceil(count / CONNECTIONS)
        t_round = time.perf_counter()

        def next_path(i: int, k: int) -> Optional[str]:
            if k >= BROWSE_SLICE:
                return None
            return self.mix.draw(self.rngs[i])

        sent = 0
        with one_cpu():
            while sent < per_conn or time.perf_counter() - t_round < budget:
                self.speed.probe()
                t0 = time.perf_counter()
                per_client = self.rig.clients.loop(next_path)
                t1 = time.perf_counter()
                self.res.slices.append((t0, t1))
                for fetches in per_client:
                    self.res.fetches.extend(fetches)
                sent += BROWSE_SLICE
            self.speed.probe()

    def check(self) -> None:
        fetches = self.res.fetches
        bad = [f for f in fetches if not f.ok]
        self.out.ops(len(fetches), len(bad))
        self.out.check("browse.all_2xx", not bad,
                       f"{len(bad)} of {len(fetches)} failed, e.g. "
                       f"{bad[0].path} -> {bad[0].status} {bad[0].error}"
                       if bad else "")
        for f in fetches:
            if f.ok and f.path.startswith("/job/"):
                jobid = f.path[len("/job/"):]
                self.out.check("browse.job_page_names_its_job",
                               f"Job {jobid}" in f.body,
                               f"{f.path} lacks its id")


# -- the run -------------------------------------------------------------------

def _ms(seconds: Sequence[float]) -> List[float]:
    return [s * 1e3 for s in seconds]


def _counter(name: str) -> float:
    from repro import obs

    m = obs.get_registry().get(name)
    return float(m.total()) if m is not None else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(wl: Workload, seed: int, seconds: float, workdir: Path,
        spans_path: Optional[Path] = None
        ) -> Tuple[Outcome, Dict[str, float], Dict[str, object]]:
    """Set up, run the three phases, check them.

    With ``spans_path`` the run is traced: layer spans are recorded,
    written there, and the metrics are the per-layer ones; otherwise
    they are the end-to-end ones.  Returns the outcome, the metrics and
    run facts worth recording next to them.
    """
    from repro import obs

    obs.reset()
    # the traced run's spans must not contain probes; its metrics are
    # the per-layer ones, in wall time
    speed = Speed(enabled=spans_path is None)
    rig, setup_spans = setup(wl, seed, workdir, speed)
    out = Outcome()
    rec: Optional[SpanRecorder] = None
    facts: Dict[str, object] = {}
    try:
        obs.reset()
        obs.set_clock(rig.sess.cluster.clock.now)
        page_hits0 = rig.server.page_cache.hits
        page_miss0 = rig.server.page_cache.misses
        if spans_path is not None:
            rec = SpanRecorder(f"{wl.name}:{seed}:{time.time_ns()}")
            install_layers(rec)
            rig.deliveries.rec = rec
        budgets = {p: (seconds if wl.primary == p else 0.0) / ROUNDS
                   for p in ("archive", "browse")}
        t0 = time.perf_counter()
        live = live_phase(rig, wl, seconds if wl.primary == "live" else 0.0,
                          seed, out)
        t1 = time.perf_counter()
        # the host this runs on changes speed for tens of seconds at a
        # time: rounds spread every metric's repeats over the whole
        # second half of the run, so its median sees several periods
        archive_work = Archive(rig, wl, seed, out)
        archive_work.load_battery_store()
        browse_work = Browse(rig, seed, out)
        browse_work.warm()
        for r in range(ROUNDS):
            archive_work.etl()
            archive_work.load(r)
            archive_work.run_battery(math.ceil(wl.battery / ROUNDS),
                                     budgets["archive"])
            browse_work.run(math.ceil(wl.pages / ROUNDS), budgets["browse"])
        browse_work.check()
        archive, browse = archive_work.res, browse_work.res
        facts.update(live_wall_s=t1 - t0,
                     after_live_wall_s=time.perf_counter() - t1)
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + rig.worker_peak_kb())
        facts.update(
            rounds=live.rounds, deliveries=len(rig.deliveries.intervals),
            fresh_reads=len(live.fresh), raw_samples=archive.samples,
            battery_queries=len(archive.queries),
            etl_s=[round(b - a, 3) for a, b in archive.etls],
            load_s=[round(b - a, 3) for a, b in archive.loads],
            battery_wall_s=archive.battery_s,
            browse_requests=len(browse.fetches),
            distinct_pages=browse.distinct,
        )
        if rec is None:
            metrics = _end_to_end(speed, setup_spans, peak_kb, rig, live,
                                  archive, browse)
            # the same figures in wall time, for comparison
            facts["wall_time_metrics"] = _end_to_end(
                Speed(enabled=False), setup_spans, peak_kb, rig, live,
                archive, browse)
            facts.update(
                probes=len(speed.times),
                probe_ms_p50=speed.median_probe_s() * 1e3,
                probe_wall_s=speed.wall_s(),
                live_probe_wall_s=speed.wall_s(t0, t1),
                etl_ref_s=[round(speed.scaled(a, b), 3)
                           for a, b in archive.etls],
                load_ref_s=[round(speed.scaled(a, b), 3)
                            for a, b in archive.loads],
                fleet_ref_ms=[round(speed.scaled(f.t0, f.t1) * 1e3, 1)
                              for f in live.fresh if f.path == "/fleet"],
            )
        else:
            rec.unwrap()
            harvest = rig.sharded.harvest_obs()
            facts["harvest_missing"] = harvest.missing
            metrics = _per_layer(rec, rig, live, archive, browse,
                                 page_hits0, page_miss0)
            facts["spans"] = len(rec)
            rec.dump(spans_path)
        # after the metrics: the reference store must not count in them
        check_battery(rig, archive, out)
        facts["check_wall_s"] = archive.check_s
    finally:
        if rec is not None:
            rec.unwrap()
        rig.close()
    return out, metrics, facts


def _end_to_end(speed: Speed, setup_spans, peak_kb, rig, live, archive,
                browse) -> Dict[str, float]:
    """The end-to-end metrics; every time is ``speed``'s reference
    seconds (wall seconds when it is disabled)."""
    def secs(spans: Sequence[Interval]) -> List[float]:
        return [speed.scaled(a, b) for a, b in spans]

    def latencies(fetches: Sequence[Fetch]) -> List[float]:
        # a failed request misses any limit (inf)
        return [speed.scaled(f.t0, f.t1) * 1e3 if f.ok else math.inf
                for f in fetches]

    delivery_ms = _ms(secs(rig.deliveries.intervals))
    query_ms = _ms(secs(archive.queries))
    # the /fleet reads are their own metric, so that a slower fleet
    # report shows in one metric and does not sit at fresh_page_ms_p90
    fresh = latencies([f for f in live.fresh if f.path != "/fleet"])
    fleet = latencies([f for f in live.fresh if f.path == "/fleet"])
    pages = latencies(browse.fetches)
    ok_pages = sum(1 for f in browse.fetches if f.ok)
    return {
        "setup_s": (statistics.median(secs(setup_spans))
                    + speed.scaled(*browse.warm_span)),
        "peak_rss_mb": peak_kb / 1024.0,
        "live_samples_per_s": rig.stream.samples / sum(secs(live.runs)),
        "delivery_ms_p50": percentile(delivery_ms, 50),
        "delivery_ms_p95": percentile(delivery_ms, 95),
        "fresh_page_ms_p50": percentile(fresh, 50),
        "fresh_page_ms_p90": percentile(fresh, 90),
        # the mean: every run reads /fleet at the same sim hours, each
        # a different, fixed amount of work (0.1-0.25 s), so a median
        # of six would jump between those levels from run to run
        "fleet_page_ms_mean": statistics.fmean(fleet),
        "etl_samples_per_s": archive.samples / statistics.median(
            secs(archive.etls)),
        "load_points_per_s": archive.points / statistics.median(
            secs(archive.loads)),
        "query_ms_p50": percentile(query_ms, 50),
        "query_ms_p95": percentile(query_ms, 95),
        "bytes_per_point": archive.bytes_per_point,
        "page_ms_p50": percentile(pages, 50),
        "page_ms_p99": percentile(pages, 99),
        "pages_per_s": ok_pages / sum(secs(browse.slices)),
    }


def _per_layer(rec, rig, live, archive, browse, page_hits0,
               page_miss0) -> Dict[str, float]:
    s = rec.self_s
    bstats = rig.sess.broker.stats()
    puts = rec.calls.get("tsdb.put_many", 0)
    render_total = sum(v for k, v in rec.total_s.items()
                       if k.startswith("portal.render."))
    client_total = sum(
        f.ms for f in live.fresh + browse.warm + browse.fetches) / 1e3
    hits = rig.server.page_cache.hits - page_hits0
    misses = rig.server.page_cache.misses - page_miss0
    rc_hit = _counter("repro_tsdb_cache_hits_total")
    rc_miss = _counter("repro_tsdb_cache_misses_total")
    bc_hit = _counter("repro_tsdb_buffer_cache_hits_total")
    bc_miss = _counter("repro_tsdb_buffer_cache_misses_total")
    arena_hits = _counter("repro_shard_arena_hits_total")
    arena_spills = _counter("repro_shard_arena_spills_total")
    # the battery store, then every timed load
    loaded = archive.points * (1 + len(archive.loads))
    metrics = {
        "cluster.self_s": s.get("cluster", 0.0),
        "daemon.record_s": s.get("daemon.record", 0.0),
        "collector.collect_s": s.get("collector.collect", 0.0),
        "collector.calls": rec.calls.get("collector.collect", 0),
        "broker.publish_s": s.get("broker.publish", 0.0),
        "broker.published": bstats["published"],
        "broker.dead_lettered": bstats["dead_lettered"],
        "broker.redelivered": _counter("repro_broker_redelivered_total"),
        "store.append_s": s.get("store.append", 0.0),
        "store.bytes": rec.counts.get("store.append", 0.0),
        "stream.deliver_self_s": s.get("stream.deliver", 0.0),
        "stream.parse_s": s.get("stream.parse", 0.0),
        "stream.analyze_s": s.get("stream.analyze", 0.0),
        "stream.retain_put_s": s.get("stream.retain_put", 0.0),
        "stream.alert_route_s": s.get("stream.alert_route", 0.0),
        "analytics.observe_s": s.get("analytics.observe", 0.0),
        "tsdb.put_many_s": s.get("tsdb.put_many", 0.0),
        "tsdb.put_many_calls": puts,
        "tsdb.points_per_put": _ratio(rec.counts.get("tsdb.put_many", 0.0),
                                      puts),
        "tsdb.query_s": s.get("tsdb.query", 0.0),
        "tsdb.result_cache_hit_ratio": _ratio(rc_hit, rc_hit + rc_miss),
        "tsdb.buffer_cache_hit_ratio": _ratio(bc_hit, bc_hit + bc_miss),
        "tsdb.chunks_decoded": bc_miss,
        "tsdb.preagg_chunks_skipped": _counter(
            "repro_tsdb_preagg_skips_total"),
        "portal.page_cache_hit_ratio": _ratio(hits, hits + misses),
        "portal.queue_wait_s": max(0.0, client_total - render_total),
        "portal.shed": _counter("repro_portal_shed_total"),
        "portal.deadline": _counter("repro_portal_deadline_total"),
        "db.search_s": s.get("db.search", 0.0),
        "analysis.fleet_report_s": s.get("analysis.fleet_report", 0.0),
        "pipeline.parse_s": s.get("pipeline.parse", 0.0),
        "pipeline.assemble_s": s.get("pipeline.assemble", 0.0),
        "metrics.compute_s": s.get("metrics.compute", 0.0),
        "metrics.flags_s": s.get("metrics.flags", 0.0),
        "db.bulk_create_s": s.get("db.bulk_create", 0.0),
        "db.rows": archive.jobs_ingested,
        "pipeline.jobs_ok_ratio": _ratio(archive.jobs_ingested,
                                         archive.jobs_attempted),
        "shard.ingest_s": s.get("shard.ingest", 0.0),
        "shard.scan_s": s.get("shard.scan", 0.0),
        "shard.window_stats_s": s.get("shard.window_stats", 0.0),
        "shard.select_s": s.get("shard.select", 0.0),
        "shard.rpc_roundtrips": _counter("repro_shard_rpc_roundtrips_total"),
        "shard.rpc_wire_bytes_per_point": _ratio(
            _counter("repro_shard_rpc_wire_bytes_total"), loaded),
        "shard.arena_hit_ratio": _ratio(arena_hits,
                                        arena_hits + arena_spills),
    }
    for route in ROUTES:
        metrics[f"portal.render_s.{route}"] = s.get(
            f"portal.render.{route}", 0.0)
    return metrics
