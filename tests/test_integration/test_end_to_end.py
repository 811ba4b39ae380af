"""Whole-system integration: both transport modes, same physics."""

import numpy as np
import pytest

from repro import monitoring_session
from repro.broker import Broker
from repro.cluster import Cluster, ClusterConfig, JobSpec, make_app
from repro.core import CentralStore, Collector, CronMode
from repro.db import Database
from repro.pipeline import parallel_ingest_jobs
from repro.pipeline.records import JobRecord


def submit_mix(cluster):
    jobs = []
    jobs.append(cluster.submit(JobSpec(
        user="alice", app=make_app("wrf", runtime_mean=4000.0,
                                   fail_prob=0.0, runtime_sigma=0.02),
        nodes=4,
    )))
    jobs.append(cluster.submit(JobSpec(
        user="bob", app=make_app("vasp", runtime_mean=3000.0,
                                 fail_prob=0.0, runtime_sigma=0.02),
        nodes=2,
    )))
    return jobs


def run_cron(tmp_path, seed=77):
    c = Cluster(ClusterConfig(
        normal_nodes=8, largemem_nodes=0, development_nodes=0,
        tick=300, seed=seed,
    ))
    col = Collector(c)
    store = CentralStore(tmp_path / "cron")
    cron = CronMode(c, col, store)
    cron.start()
    jobs = submit_mix(c)
    c.run_for(30 * 3600)
    cron.final_sync()
    db = Database()
    res = parallel_ingest_jobs(store, c.jobs, db)
    return c, store, db, res, jobs


def run_daemon(tmp_path, seed=77):
    sess = monitoring_session(nodes=8, seed=seed, tick=300,
                              store_dir=str(tmp_path / "daemon"))
    jobs = submit_mix(sess.cluster)
    sess.cluster.run_for(30 * 3600)
    res = sess.ingest()
    return sess.cluster, sess.store, sess.db, res, jobs


def test_both_modes_ingest_all_jobs(tmp_path):
    _, _, _, res_c, _ = run_cron(tmp_path)
    _, _, _, res_d, _ = run_daemon(tmp_path)
    assert res_c.ingested == 2 and res_d.ingested == 2
    assert res_c.errors == [] and res_d.errors == []


def test_modes_agree_on_metrics(tmp_path):
    """Cron vs daemon transport must not change the measured physics."""
    _, _, db_c, _, jobs_c = run_cron(tmp_path)
    JobRecord.bind(db_c)
    cron_rows = {r.executable: r for r in JobRecord.objects.all()}
    _, _, db_d, _, jobs_d = run_daemon(tmp_path)
    JobRecord.bind(db_d)
    daemon_rows = {r.executable: r for r in JobRecord.objects.all()}
    for exe in ("wrf.exe", "vasp_std"):
        a, b = cron_rows[exe], daemon_rows[exe]
        assert a.CPU_Usage == pytest.approx(b.CPU_Usage, abs=0.08)
        assert a.cpi == pytest.approx(b.cpi, rel=0.15)
        assert a.VecPercent == pytest.approx(b.VecPercent, abs=5.0)


def test_modes_differ_on_freshness(tmp_path):
    _, store_c, _, _, _ = run_cron(tmp_path)
    _, store_d, _, _, _ = run_daemon(tmp_path)
    assert store_d.lag_stats()["max"] < 10
    assert store_c.lag_stats()["p50"] > 3600


def test_running_jobs_not_ingested(tmp_path):
    sess = monitoring_session(nodes=4, seed=3, tick=300)
    sess.cluster.submit(JobSpec(
        user="u", app=make_app("wrf", runtime_mean=50_000.0, fail_prob=0.0),
        nodes=2, requested_runtime=100_000,
    ))
    sess.cluster.run_for(2 * 3600)  # job still running
    res = sess.ingest()
    assert res.ingested == 0


def test_metric_determinism_across_identical_runs(tmp_path):
    _, _, db1, _, _ = run_daemon(tmp_path / "a", seed=55)
    JobRecord.bind(db1)
    rows1 = JobRecord.objects.all().order_by("jobid").values_list(
        "jobid", "CPU_Usage", "flops", "MDCReqs"
    )
    _, _, db2, _, _ = run_daemon(tmp_path / "b", seed=55)
    JobRecord.bind(db2)
    rows2 = JobRecord.objects.all().order_by("jobid").values_list(
        "jobid", "CPU_Usage", "flops", "MDCReqs"
    )
    assert rows1 == rows2
