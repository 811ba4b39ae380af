"""repro — a full reproduction of *"Understanding Application and
System Performance Through System-Wide Monitoring"* (TACC Stats,
IPPS 2016).

The package is layered bottom-up; see DESIGN.md for the system map:

* ``repro.sim`` — deterministic clock / RNG / event queue.
* ``repro.hardware`` — synthetic node hardware (counters).
* ``repro.cluster`` — nodes, scheduler, applications, shared
  filesystem.
* ``repro.broker`` — RabbitMQ-style message broker.
* ``repro.core`` — TACC Stats itself: collector, cron mode, daemon
  mode, raw stats files, central store, overhead model.
* ``repro.db`` — Django-style ORM over sqlite3 (PostgreSQL stand-in).
* ``repro.metrics`` — Table I metrics + automatic flags.
* ``repro.pipeline`` — raw data → jobs → metrics → database.
* ``repro.portal`` — search / histograms / job detail views.
* ``repro.tsdb`` — OpenTSDB-style time-series store (§VI-A).
* ``repro.analysis`` — the §V/§VI analyses and population synthesis.
* ``repro.sharednode`` — §VI-C shared-node process tracking.

Quickstart
----------
>>> from repro import monitoring_session
>>> sess = monitoring_session(nodes=4, seed=1)
>>> from repro.cluster import JobSpec, make_app
>>> job = sess.cluster.submit(JobSpec(user="alice",
...     app=make_app("wrf", runtime_mean=1800.0, fail_prob=0.0), nodes=2))
>>> sess.cluster.run_for(2 * 3600)
>>> result = sess.ingest()
>>> result.ingested >= 1
True
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Optional

__version__ = "1.0.0"

from repro.broker import Broker
from repro.cluster import Cluster, ClusterConfig
from repro.core.cron import CronMode
from repro.core import (
    CentralStore,
    Collector,
    CronMode,
    DaemonMode,
    MonitorConfig,
    StatsConsumer,
)
from repro.db import Database
from repro.pipeline import parallel_ingest_jobs
from repro.pipeline.records import JobRecord

__all__ = [
    "__version__",
    "MonitoringSession",
    "monitoring_session",
    "CronSession",
    "cron_session",
    "Cluster",
    "ClusterConfig",
    "Database",
    "JobRecord",
]


@dataclass
class MonitoringSession:
    """Everything wired together: the one-call entry point.

    A cluster with daemon-mode monitoring publishing through a broker
    into a central store, plus a database to ingest into.  For the
    cron-mode variant build the pieces explicitly (see
    ``examples/quickstart.py``).
    """

    cluster: Cluster
    collector: Collector
    broker: Broker
    store: CentralStore
    consumer: StatsConsumer
    daemon: DaemonMode
    db: Database

    def ingest(self):
        """Map + compute + store metrics for all finished jobs."""
        return parallel_ingest_jobs(self.store, self.cluster.jobs, self.db)


@dataclass
class CronSession:
    """The cron-mode counterpart of :class:`MonitoringSession`."""

    cluster: Cluster
    collector: Collector
    store: CentralStore
    cron: CronMode
    db: Database

    def ingest(self, final_sync: bool = True):
        """Flush remaining local logs, then map + compute + store."""
        if final_sync:
            self.cron.final_sync()
        return parallel_ingest_jobs(self.store, self.cluster.jobs, self.db)


def cron_session(
    nodes: int = 8,
    seed: int = 20151001,
    interval: int = 600,
    store_dir: Optional[str] = None,
    **cluster_kwargs,
) -> CronSession:
    """Build a cron-mode monitored cluster (Fig. 1 architecture)."""
    cfg = ClusterConfig(
        normal_nodes=nodes,
        largemem_nodes=cluster_kwargs.pop("largemem_nodes", 0),
        development_nodes=cluster_kwargs.pop("development_nodes", 0),
        seed=seed,
        **cluster_kwargs,
    )
    cluster = Cluster(cfg)
    monitor = MonitorConfig(interval=interval)
    collector = Collector(cluster, monitor=monitor)
    store = CentralStore(store_dir or tempfile.mkdtemp(prefix="tacc_cron_"))
    cron = CronMode(cluster, collector, store, monitor=monitor)
    cron.start()
    return CronSession(
        cluster=cluster, collector=collector, store=store, cron=cron,
        db=Database(),
    )


def monitoring_session(
    nodes: int = 8,
    seed: int = 20151001,
    interval: int = 600,
    store_dir: Optional[str] = None,
    shared_filesystem: bool = False,
    **cluster_kwargs,
) -> MonitoringSession:
    """Build a daemon-mode monitored cluster with sensible defaults."""
    cfg = ClusterConfig(
        normal_nodes=nodes,
        largemem_nodes=cluster_kwargs.pop("largemem_nodes", 0),
        development_nodes=cluster_kwargs.pop("development_nodes", 0),
        seed=seed,
        shared_filesystem=shared_filesystem,
        **cluster_kwargs,
    )
    cluster = Cluster(cfg)
    monitor = MonitorConfig(interval=interval)
    collector = Collector(cluster, monitor=monitor)
    broker = Broker(events=cluster.events, latency=monitor.broker_latency)
    store = CentralStore(store_dir or tempfile.mkdtemp(prefix="tacc_stats_"))
    consumer = StatsConsumer(broker, store)
    consumer.start()
    daemon = DaemonMode(cluster, collector, broker, monitor=monitor)
    daemon.start()
    db = Database()
    return MonitoringSession(
        cluster=cluster,
        collector=collector,
        broker=broker,
        store=store,
        consumer=consumer,
        daemon=daemon,
        db=db,
    )
