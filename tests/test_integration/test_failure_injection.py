"""Failure injection across the stack.

The monitor exists to survive exactly these events: node failures in
both transport modes, consumer crashes mid-stream, and jobs dying on
failed nodes.  Each scenario checks both the cluster-side bookkeeping
and the data-side consequences.
"""

import pytest

from repro import monitoring_session
from repro.broker import Broker
from repro.cluster import Cluster, ClusterConfig, JobSpec, JobState, make_app
from repro.core import CentralStore, Collector, CronMode, DaemonMode, StatsConsumer
from repro.pipeline import parallel_ingest_jobs
from repro.db import Database
from repro.pipeline.records import JobRecord
from repro.sim.clock import SECONDS_PER_DAY


def test_cascading_node_failures_cron(tmp_path):
    """Three nodes die on different days; each loses only its own
    unsynced tail, and surviving data still ingests."""
    c = Cluster(ClusterConfig(
        normal_nodes=8, largemem_nodes=0, development_nodes=0,
        tick=300, seed=66,
    ))
    col = Collector(c)
    store = CentralStore(tmp_path / "c")
    cron = CronMode(c, col, store)
    cron.start()
    jobs = [
        c.submit(JobSpec(
            user=f"u{i}",
            app=make_app("namd", runtime_mean=4000.0, fail_prob=0.0),
            nodes=1,
        ))
        for i in range(4)
    ]
    t0 = c.now()
    for day, name in enumerate(("c401-106", "c401-107", "c401-108")):
        c.fail_node(name, when=t0 + day * SECONDS_PER_DAY + 10 * 3600)
    c.run_for(3 * SECONDS_PER_DAY)
    for name in ("c401-106", "c401-107", "c401-108"):
        cron.account_node_failure(name)
    cron.final_sync()

    hosts = set(store.hosts())
    # day-0 casualty never synced anything; later ones synced full days
    assert "c401-106" not in hosts
    assert {"c401-101", "c401-102", "c401-103"} <= hosts
    assert cron.lost_samples > 100
    db = Database()
    res = parallel_ingest_jobs(store, c.jobs, db)
    assert res.ingested == 4  # all jobs ran on surviving nodes
    assert res.errors == []


def test_job_on_failed_node_marked_node_fail(tmp_path):
    sess = monitoring_session(nodes=4, seed=8, tick=300)
    job = sess.cluster.submit(JobSpec(
        user="u", app=make_app("wrf", runtime_mean=20_000.0, fail_prob=0.0),
        nodes=2, requested_runtime=30_000,
    ))
    sess.cluster.run_for(3600)
    sess.cluster.fail_node(job.assigned_nodes[1])
    assert job.state is JobState.FAILED
    assert job.status == "NODE_FAIL"
    # the healthy node's partial data still reached the store
    assert sess.store.sample_count(job.assigned_nodes[0]) > 0


def test_consumer_crash_midstream_recovers_with_acks(tmp_path):
    """The ingest consumer dies after N messages; a replacement resumes
    and, thanks to explicit acks, no sample is lost."""
    c = Cluster(ClusterConfig(
        normal_nodes=3, largemem_nodes=0, development_nodes=0,
        tick=300, seed=12,
    ))
    col = Collector(c)
    broker = Broker(events=c.events, latency=1.0)
    store = CentralStore(tmp_path / "d")

    crash_after = 10

    class FlakyConsumer(StatsConsumer):
        def _on_delivery(self, channel, delivery):
            if self.consumed == crash_after:
                raise RuntimeError("ingest host rebooted")
            super()._on_delivery(channel, delivery)

    flaky = FlakyConsumer(broker, store)
    flaky.start()
    DaemonMode(c, col, broker).start()
    c.submit(JobSpec(
        user="u", app=make_app("namd", runtime_mean=5000.0, fail_prob=0.0),
        nodes=2,
    ))
    c.run_for(2 * 3600)
    # the flaky consumer died; messages queued up at the broker
    assert flaky.consumed == crash_after
    assert broker.queue_depth("tacc_stats_ingest") > 0

    replacement = StatsConsumer(broker, store)
    replacement.start()
    c.run_for(2 * 3600 + 10)
    assert broker.queue_depth("tacc_stats_ingest") == 0
    total = flaky.consumed + replacement.consumed
    assert total == broker.published  # at-least-once: nothing lost


def test_scheduler_keeps_placing_around_dead_nodes():
    c = Cluster(ClusterConfig(
        normal_nodes=4, largemem_nodes=0, development_nodes=0,
        tick=300, seed=3,
    ))
    c.fail_node("c401-101")
    c.fail_node("c401-102")
    jobs = [
        c.submit(JobSpec(
            user=f"u{i}",
            app=make_app("namd", runtime_mean=2000.0, fail_prob=0.0,
                         runtime_sigma=0.05),
            nodes=2,
        ))
        for i in range(3)
    ]
    c.run_for(6 * 3600)
    for j in jobs:
        assert j.state is JobState.COMPLETED
        assert set(j.assigned_nodes) <= {"c401-103", "c401-104"}


def test_ingest_survives_partially_recorded_job(tmp_path):
    """A job whose node died before its second sample is dropped with
    a diagnostic, not a crash."""
    c = Cluster(ClusterConfig(
        normal_nodes=2, largemem_nodes=0, development_nodes=0,
        tick=300, seed=10,
    ))
    col = Collector(c)
    broker = Broker(events=c.events, latency=1.0)
    store = CentralStore(tmp_path / "p")
    StatsConsumer(broker, store).start()
    DaemonMode(c, col, broker).start()
    job = c.submit(JobSpec(
        user="u", app=make_app("namd", runtime_mean=5000.0, fail_prob=0.0),
        nodes=1,
    ))
    c.run_for(120)  # only the prolog sample exists
    c.fail_node(job.assigned_nodes[0])
    c.run_for(3600)
    db = Database()
    res = parallel_ingest_jobs(store, c.jobs, db)
    assert res.ingested == 0
    assert res.dropped_short == 1
