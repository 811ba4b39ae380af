"""Parallel ingest: serial/N-worker equivalence and crash recovery.

The contract under test is the one ``docs/architecture.md`` documents:
the batched, sharded pipeline is a pure optimisation.  For any worker
count and executor, ``parallel_ingest_jobs`` must produce a database
byte-identical to the per-job reference rows
(:func:`tests.reference_etl.reference_ingest`), quarantine the same
corrupt lines, and recover from killed workers and mid-batch crashes
without losing or duplicating jobs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core.collector import Sample
from repro.core.rawfile import RawFileWriter
from repro.core.store import CentralStore
from repro.db import Database
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.metrics.table1 import compute_metrics, compute_metrics_batch
from repro.pipeline import parallel as parallel_mod
from repro.pipeline.accum import accumulate
from repro.pipeline.jobmap import map_jobs
from repro.pipeline.parallel import (
    ShardedCheckpoint,
    assemble_jobs,
    parallel_ingest_jobs,
    parse_blocks,
    shard_hosts,
)
from repro.pipeline.records import JobRecord
from tests.reference_etl import reference_ingest

SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in
                   ("user", "nice", "system", "idle", "iowait",
                    "irq", "softirq")]),
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64)]),
    "lnet": Schema([SchemaEntry("rx_bytes", width=64, unit="B"),
                    SchemaEntry("tx_bytes", width=64, unit="B")]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}

T0 = 1_443_657_600  # 2015-10-01, the paper's Stampede quarter


def build_store(root, hosts=8, samples=24, cpus=4, hosts_per_job=4,
                seed=7) -> CentralStore:
    """A seeded raw store: ``hosts`` files, ``hosts/hosts_per_job`` jobs."""
    store = CentralStore(root)
    rng = np.random.default_rng(seed)
    for h in range(hosts):
        host = f"c{h // 24:03d}-{h % 24:03d}"
        jid = str(2_000_000 + h // hosts_per_job)
        w = RawFileWriter(host, "intel_snb", SCHEMAS, mem_bytes=1 << 35)
        parts = [w.header()]
        base = rng.integers(0, 1 << 30, size=(cpus, 7)).astype(float)
        for i in range(samples):
            base += rng.integers(0, 1 << 20, size=(cpus, 7)).astype(float)
            data = {
                "cpu": {str(c): base[c] for c in range(cpus)},
                "mdc": {"t": rng.integers(0, 1 << 40, size=2).astype(float)},
                "lnet": {"0": rng.integers(0, 1 << 40, size=2).astype(float)},
                "mem": {"0": np.array(
                    [float(rng.integers(1 << 30, 1 << 34))])},
            }
            parts.append(w.record(Sample(
                host=host, timestamp=T0 + 600 * i,
                jobids=[jid], data=data, procs=[])))
        store.append(host, "".join(parts), arrived_at=T0 + 600 * samples)
    store.flush()
    return store


@pytest.fixture
def raw_store(tmp_path) -> CentralStore:
    return build_store(tmp_path / "store")


def dump(db: Database):
    return list(db.conn.iterdump())


# -- serial vs N-worker equivalence -------------------------------------------


def test_parallel_matches_serial_byte_identical(raw_store):
    """1-worker, N-thread and N-process runs equal the per-job oracle."""
    reference = Database()
    ref_result = reference_ingest(raw_store, None, reference)
    assert ref_result.ingested == 2
    ref_dump = dump(reference)

    for workers, executor in ((1, "auto"), (3, "thread"), (2, "process")):
        db = Database()
        result = parallel_ingest_jobs(
            raw_store, None, db, workers=workers, executor=executor)
        assert result.ingested == ref_result.ingested, (workers, executor)
        assert result.flagged == ref_result.flagged, (workers, executor)
        assert dump(db) == ref_dump, (workers, executor)


def test_accumulate_blocks_matches_streaming(raw_store):
    """Columnar accumulation is bitwise equal to per-sample accumulation."""
    streaming, _ = map_jobs(raw_store)
    blocks = parse_blocks(raw_store)
    columnar, _ = assemble_jobs(blocks)
    assert sorted(columnar) == sorted(streaming)
    for jid, jd in columnar.items():
        a = accumulate(streaming[jid])
        b = jd.accumulate()
        assert a.hosts == b.hosts
        assert np.array_equal(a.times, b.times)
        assert sorted(a.deltas) == sorted(b.deltas)
        for key in a.deltas:
            assert np.array_equal(a.deltas[key], b.deltas[key],
                                  equal_nan=True), (jid, key)
        for key in a.gauges:
            assert np.array_equal(a.gauges[key], b.gauges[key],
                                  equal_nan=True), (jid, key)


def test_compute_metrics_batch_matches_per_job(raw_store):
    """Stacked job×device evaluation returns the per-job values exactly."""
    blocks = parse_blocks(raw_store)
    columnar, _ = assemble_jobs(blocks)
    accums = [columnar[jid].accumulate() for jid in sorted(columnar)]
    batched = compute_metrics_batch(accums)
    for accum, row in zip(accums, batched):
        assert row == compute_metrics(accum)


def test_quarantine_merged_under_parallelism(raw_store):
    """Corrupt lines quarantine identically at any worker count."""
    victim = raw_store.hosts()[0]
    with open(raw_store.path_for(victim), "a") as fh:
        fh.write("cpu 0 not-a-number 1 2 3 4 5 6\n")
        fh.write("garbage line with no schema\n")

    serial_store = CentralStore(raw_store.root)
    parse_blocks(serial_store)
    expected = serial_store.quarantine_counts()
    assert expected.get(victim)

    parallel_store = CentralStore(raw_store.root)
    parse_blocks(parallel_store, workers=3, executor="thread")
    assert parallel_store.quarantine_counts() == expected
    assert (parallel_store.root / "quarantine" / f"{victim}.bad").exists()

    # and the damaged store still ingests identically to the oracle
    db_a, db_b = Database(), Database()
    reference_ingest(CentralStore(raw_store.root), None, db_a)
    parallel_ingest_jobs(CentralStore(raw_store.root), None, db_b,
                         workers=3, executor="thread")
    assert dump(db_a) == dump(db_b)


def test_shard_hosts_deterministic_and_complete():
    hosts = [f"h{i}" for i in range(10)]
    shards = shard_hosts(reversed(hosts), 3)
    assert shard_hosts(hosts, 3) == shards  # order-insensitive input
    assert sorted(h for s in shards for h in s) == sorted(hosts)
    assert len(shards) == 3
    assert shard_hosts(hosts, 99) == [[h] for h in sorted(hosts)]


# -- checkpoint durability ----------------------------------------------------


def test_sharded_checkpoint_roundtrip(tmp_path):
    ckpt = ShardedCheckpoint(tmp_path / "ckpt", shards=4)
    ckpt.mark_many(["job-a", "job-b", "job-c"])
    assert "job-a" in ckpt and "missing" not in ckpt
    assert len(ckpt) == 3

    reopened = ShardedCheckpoint(tmp_path / "ckpt", shards=4)
    assert reopened.done() == ["job-a", "job-b", "job-c"]

    shard_files = sorted((tmp_path / "ckpt").glob("checkpoint-shard*.json"))
    assert shard_files  # per-shard files, not one global json

    reopened.clear()
    assert len(ShardedCheckpoint(tmp_path / "ckpt", shards=4)) == 0


def test_checkpoint_resume_after_midbatch_crash(raw_store, tmp_path,
                                                monkeypatch):
    """A crash between batches resumes exactly-once from the checkpoint."""
    db = Database()
    ckpt = ShardedCheckpoint(tmp_path / "ckpt", shards=4)

    real_bulk_create = JobRecord.objects.bulk_create
    calls = {"n": 0}

    def flaky_bulk_create(objs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("simulated crash after first batch")
        return real_bulk_create(objs)

    monkeypatch.setattr(JobRecord.objects, "bulk_create", flaky_bulk_create)
    with pytest.raises(RuntimeError, match="simulated crash"):
        parallel_ingest_jobs(raw_store, None, db, workers=2,
                             executor="thread", batch_size=1,
                             checkpoint=ckpt)
    monkeypatch.setattr(JobRecord.objects, "bulk_create", real_bulk_create)

    # the committed batch is durably checkpointed, the rest is not
    assert len(ckpt) == 1
    JobRecord.bind(db)
    assert JobRecord.objects.count() == 1

    resumed = parallel_ingest_jobs(
        raw_store, None, db, workers=2, executor="thread",
        checkpoint=ShardedCheckpoint(tmp_path / "ckpt", shards=4))
    assert resumed.skipped_existing == 1
    assert resumed.ingested == 1

    # exactly-once: the resumed database equals an uninterrupted run's
    clean = Database()
    parallel_ingest_jobs(raw_store, None, clean)
    assert dump(db) == dump(clean)


# -- killed workers -----------------------------------------------------------


def test_crashed_worker_shard_is_retried_serially(raw_store, monkeypatch):
    """A worker that dies mid-shard costs time, never data."""
    reference = parse_blocks(CentralStore(raw_store.root))

    def exploding_shard(tasks):
        raise RuntimeError("worker OOM-killed mid-shard")

    monkeypatch.setattr(parallel_mod, "_parse_shard", exploding_shard)
    store = CentralStore(raw_store.root)
    blocks = parse_blocks(store, workers=3, executor="thread")
    assert sorted(blocks) == sorted(reference)
    for host, block in blocks.items():
        ref = reference[host]
        assert np.array_equal(block.times, ref.times)
        for tname, groups in block.groups.items():
            for inst, grp in groups.items():
                assert np.array_equal(
                    grp.values, ref.groups[tname][inst].values)


def test_sigkilled_process_worker_is_retried(raw_store, monkeypatch):
    """A real SIGKILL of a pool process degrades to in-parent parsing."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("kill-injection needs fork workers to inherit the patch")

    parent = os.getpid()

    def suicidal_shard(tasks):
        if os.getpid() != parent:  # forked pool worker only
            os.kill(os.getpid(), signal.SIGKILL)
        return [(host, parallel_mod._parse_host(host, path))
                for host, path in tasks]

    monkeypatch.setattr(parallel_mod, "_parse_shard", suicidal_shard)
    reference = parse_blocks(CentralStore(raw_store.root))
    blocks = parse_blocks(CentralStore(raw_store.root),
                          workers=2, executor="process")
    assert sorted(blocks) == sorted(reference)

    db_a, db_b = Database(), Database()
    reference_ingest(CentralStore(raw_store.root), None, db_a)
    monkeypatch.setattr(parallel_mod, "_parse_shard", suicidal_shard)
    parallel_ingest_jobs(CentralStore(raw_store.root), None, db_b,
                         workers=2, executor="process")
    assert dump(db_a) == dump(db_b)
