"""Checkpoint/resume and idempotent re-ingest."""

import json

from repro import monitoring_session
from repro.cluster import JobSpec, make_app
from repro.db import Database
from repro.pipeline import ShardedCheckpoint, parallel_ingest_jobs
from repro.pipeline.records import JobRecord


def _run_session(seed=31):
    sess = monitoring_session(nodes=3, seed=seed, tick=600)
    for i in range(3):
        sess.cluster.submit(JobSpec(
            user=f"u{i}",
            app=make_app("namd", runtime_mean=2500.0, fail_prob=0.0),
            nodes=1,
        ))
    sess.cluster.run_for(3 * 3600)
    return sess


def test_checkpoint_roundtrip(tmp_path):
    cp = ShardedCheckpoint(tmp_path / "ckpt", shards=2)
    assert len(cp) == 0
    cp.mark_many(["2000001", "2000002"])
    assert "2000001" in cp and "2000003" not in cp
    # a second process resuming from the same path sees the same state
    cp2 = ShardedCheckpoint(tmp_path / "ckpt", shards=2)
    assert cp2.done() == ["2000001", "2000002"]
    cp2.clear()
    assert len(ShardedCheckpoint(tmp_path / "ckpt", shards=2)) == 0
    assert not list((tmp_path / "ckpt").glob("*.json"))


def test_corrupt_checkpoint_starts_over_not_crashes(tmp_path):
    root = tmp_path / "ckpt"
    jobids = [str(2_000_000 + i) for i in range(12)]
    ShardedCheckpoint(root, shards=3).mark_many(jobids)
    probe = ShardedCheckpoint(root, shards=3)
    by_shard = {k: [j for j in jobids if probe.shard_of(j) == k]
                for k in range(3)}
    assert all(by_shard.values()), by_shard  # every shard file exists
    path = probe._path(1)
    path.write_text("{ not json !!")
    # only the corrupt shard starts over; the others keep their jobs
    cp = ShardedCheckpoint(root, shards=3)
    assert cp.done() == sorted(by_shard[0] + by_shard[2])
    cp.mark_many(by_shard[1][:1])
    assert json.loads(path.read_text()) == {"done": by_shard[1][:1]}


def test_reingest_same_db_is_exactly_once(tmp_path):
    sess = _run_session()
    first = sess.ingest()
    assert first.ingested >= 3
    second = sess.ingest()
    assert second.ingested == 0
    assert second.skipped_existing == first.ingested
    JobRecord.bind(sess.db)
    jobids = [r.jobid for r in JobRecord.objects.all()]
    assert len(jobids) == len(set(jobids)) == first.ingested


def test_checkpoint_resume_skips_committed_batches(tmp_path):
    sess = _run_session(seed=32)
    cp = ShardedCheckpoint(tmp_path / "ckpt", shards=2)
    first = parallel_ingest_jobs(sess.store, sess.cluster.jobs, sess.db,
                                 checkpoint=cp, batch_size=1)
    assert first.ingested >= 3
    assert len(cp) == first.ingested
    # crash scenario: a new process, a NEW database, but the surviving
    # checkpoint — the checkpointed jobs are not re-done
    resumed = parallel_ingest_jobs(
        sess.store, sess.cluster.jobs, Database(),
        checkpoint=ShardedCheckpoint(tmp_path / "ckpt", shards=2),
    )
    assert resumed.ingested == 0
    assert resumed.skipped_existing == first.ingested


def test_skip_existing_can_be_disabled(tmp_path):
    sess = _run_session(seed=33)
    first = sess.ingest()
    dup = parallel_ingest_jobs(sess.store, sess.cluster.jobs, sess.db,
                               skip_existing=False)
    # the guard is what provides exactly-once; without it rows duplicate
    assert dup.ingested == first.ingested
    JobRecord.bind(sess.db)
    assert len(list(JobRecord.objects.all())) == 2 * first.ingested
