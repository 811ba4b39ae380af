"""The ETL pass: raw files → job table, batched and optionally sharded.

Per-job, the paper's ETL is :func:`~repro.pipeline.jobmap.map_jobs` →
:func:`~repro.pipeline.accum.accumulate` →
:func:`~repro.metrics.table1.compute_metrics` →
:func:`~repro.metrics.flags.evaluate_flags`.  At Comet/Stampede scale
(1984 nodes × 10-minute cadence) that per-line and per-sample Python
work is the bottleneck, not collection overhead, so the one ingest
driver, :func:`parallel_ingest_jobs`, runs the same pass over whole
arrays:

1. **Shard** the per-host raw files round-robin across ``workers``
   shards and parse each shard with
   :class:`~repro.core.rawfile.BlockParser` — one columnar
   :class:`~repro.core.rawfile.HostBlock` per host, with text→float64
   conversion done in bulk.  Shards run on a process or thread pool;
   a shard whose worker dies is re-parsed serially in the parent, so
   a killed worker costs time, never data.
2. **Assemble** jobs from blocks (the jobmap bucket-sort, columnar)
   and reduce each to a :class:`~repro.pipeline.accum.JobAccum` with
   :func:`~repro.pipeline.accum.accumulate_blocks` — whole-array
   NumPy per (host, device, instance) instead of per-sample loops.
3. **Compute** Table I with
   :func:`~repro.metrics.table1.compute_metrics_batch`, stacking
   same-shaped jobs into (jobs, nodes, T-1) arrays.
4. **Insert** rows with ``bulk_create`` batches, checkpointing each
   committed batch in a :class:`ShardedCheckpoint`.

Everything is deterministic: hosts are sharded and merged in sorted
order, jobs are ingested in sorted order, and all arithmetic follows
the exact reduction order of the per-job functions — so a 1-worker and
an N-worker run produce byte-identical databases, and both match rows
built job by job from the per-job functions bit for bit.  Ingest is
idempotent: jobs whose rows already exist (or that a checkpoint lists)
are skipped, so replaying a pass over redelivered or re-synced raw
data has exactly-once effect on the job table.  Per-host quarantine
ledgers are merged into the store regardless of which worker hit the
corruption.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.jobs import Job
from repro.core.rawfile import BlockParser, HostBlock, Schema
from repro.core.store import CentralStore
from repro.db.connection import Database
from repro.metrics.flags import Thresholds, evaluate_flags
from repro.metrics.table1 import compute_metrics_batch
from repro.pipeline.accum import JobAccum, accumulate_blocks
from repro.pipeline.pickles import JobPickleStore
from repro.pipeline.records import JobRecord

__all__ = [
    "IngestResult",
    "record_from",
    "ShardedCheckpoint",
    "JobBlockData",
    "shard_hosts",
    "parse_blocks",
    "assemble_jobs",
    "parallel_ingest_jobs",
]


@dataclass
class IngestResult:
    """What happened during one ingest pass."""

    ingested: int = 0
    dropped_short: int = 0
    #: jobs skipped because they were already ingested (idempotency)
    skipped_existing: int = 0
    errors: List[str] = field(default_factory=list)
    flagged: Dict[str, List[str]] = field(default_factory=dict)


def record_from(
    jobid: str,
    metrics: Mapping[str, float],
    job: Optional[Job] = None,
    flags: Optional[List[str]] = None,
) -> JobRecord:
    """Build one JobRecord from computed metrics and job metadata."""
    kwargs: Dict[str, object] = {"jobid": jobid, "flags": flags or []}
    if job is not None:
        kwargs.update(
            user=job.user,
            account=job.spec.account,
            executable=job.executable,
            job_name=job.spec.name,
            queue=job.queue,
            status=job.status,
            nodes=job.nodes,
            wayness=job.wayness,
            submit_time=job.submit_time,
            start_time=job.start_time or 0,
            end_time=job.end_time or 0,
            run_time=job.run_time() or 0,
            queue_wait=job.queue_wait() or 0,
            node_hours=job.node_hours() or 0.0,
        )
    else:
        kwargs["user"] = "?"
    kwargs.update(metrics)
    return JobRecord(**kwargs)


def shard_hosts(hosts: Iterable[str], shards: int) -> List[List[str]]:
    """Deterministic round-robin split of sorted hosts into shards."""
    shards = max(1, int(shards))
    out: List[List[str]] = [[] for _ in range(shards)]
    for i, host in enumerate(sorted(hosts)):
        out[i % shards].append(host)
    return [s for s in out if s]


def _parse_host(host: str, path: str) -> Optional[HostBlock]:
    """Parse one host's raw file into a block (worker unit of work)."""
    if not os.path.exists(path):
        return None
    return BlockParser(on_error="quarantine").parse_path(path)


def _parse_shard(tasks: List[Tuple[str, str]]) -> List[Tuple[str, Optional[HostBlock]]]:
    """Worker entry point: parse every host file of one shard."""
    return [(host, _parse_host(host, path)) for host, path in tasks]


def _resolve_executor(executor: str, workers: int) -> str:
    if executor not in ("auto", "serial", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    if workers <= 1:
        return "serial"
    if executor == "auto":
        return "process" if (os.cpu_count() or 1) > 1 else "thread"
    return executor


def parse_blocks(
    store: CentralStore,
    workers: int = 1,
    executor: str = "auto",
    hosts: Optional[Iterable[str]] = None,
) -> Dict[str, HostBlock]:
    """Parse every host file of the store into columnar blocks.

    With ``workers > 1`` the sorted host list is round-robin sharded
    and the shards parsed on a pool (``executor="process"`` or
    ``"thread"``; ``"auto"`` picks by core count).  A shard whose
    worker fails — including a worker killed outright — is retried
    serially in the parent, so the result never depends on worker
    fate.  Quarantined lines from every worker are merged into the
    store's per-host ledgers, exactly as in the serial path.
    """
    store.flush()
    host_list = sorted(hosts) if hosts is not None else store.hosts()
    tasks = [(h, str(store.path_for(h))) for h in host_list]
    mode = _resolve_executor(executor, workers)
    results: Dict[str, Optional[HostBlock]] = {}
    if mode == "serial":
        for host, path in tasks:
            results[host] = _parse_host(host, path)
    else:
        by_host = dict(tasks)
        shards = [
            [(h, by_host[h]) for h in shard]
            for shard in shard_hosts(by_host, workers)
        ]
        pool_cls = (
            ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
        )
        failed: List[List[Tuple[str, str]]] = []
        try:
            with pool_cls(max_workers=workers) as pool:
                futures = [pool.submit(_parse_shard, s) for s in shards]
                for shard, fut in zip(shards, futures):
                    try:
                        for host, block in fut.result():
                            results[host] = block
                    except Exception:
                        # worker died mid-shard (chaos kill, OOM, ...):
                        # the shard is re-parsed in-process below
                        failed.append(shard)
        except Exception:
            done = set(results)
            failed = [
                [t for t in s if t[0] not in done]
                for s in shards
                if any(t[0] not in done for t in s)
            ]
        for shard in failed:
            for host, path in shard:
                results[host] = _parse_host(host, path)
    blocks: Dict[str, HostBlock] = {}
    for host in host_list:  # sorted: deterministic quarantine merge order
        block = results.get(host)
        if block is None:
            continue
        blocks[host] = block
        if block.errors:
            store.record_parse_errors(host, block.errors)
    return blocks


@dataclass
class JobBlockData:
    """One job's slice of the parsed blocks (columnar JobData)."""

    jobid: str
    job: Optional[Job] = None
    #: host → (block, record indices belonging to this job)
    host_rows: Dict[str, Tuple[HostBlock, np.ndarray]] = field(
        default_factory=dict
    )
    schemas: Dict[str, Schema] = field(default_factory=dict)
    arch: Optional[str] = None

    @property
    def n_hosts(self) -> int:
        return len(self.host_rows)

    def min_samples_per_host(self) -> int:
        if not self.host_rows:
            return 0
        return min(len(rows) for _, rows in self.host_rows.values())

    def accumulate(self) -> JobAccum:
        return accumulate_blocks(
            self.jobid, self.host_rows, self.schemas, self.arch
        )


def assemble_jobs(
    blocks: Mapping[str, HostBlock],
    jobs: Optional[Mapping[str, Job]] = None,
    require_samples: int = 2,
) -> Tuple[Dict[str, JobBlockData], Dict[str, int]]:
    """Bucket block records by job id (columnar ``map_jobs``)."""
    out: Dict[str, JobBlockData] = {}
    for host in sorted(blocks):
        block = blocks[host]
        for jid, rows in block.job_rows().items():
            jd = out.get(jid)
            if jd is None:
                jd = out[jid] = JobBlockData(jobid=jid)
            jd.host_rows[host] = (block, rows)
            if not jd.schemas:
                jd.schemas = dict(block.schemas)
                jd.arch = block.arch
            elif len(block.schemas) > len(jd.schemas):
                jd.schemas.update(block.schemas)
    dropped: Dict[str, int] = {}
    for jid, jd in list(out.items()):
        if jobs is not None:
            jd.job = jobs.get(jid)
        n = jd.min_samples_per_host()
        if n < require_samples:
            dropped[jid] = n
            del out[jid]
    return out, dropped


class ShardedCheckpoint:
    """Durable ingest checkpoint split across shard files.

    Jobids are assigned to ``shards`` files by a stable hash
    (``crc32``), and each committed batch updates only the shard files
    it touches — atomically, via write-temp + rename.  The merged
    view (membership, :meth:`done`) is the union of all shards, so a
    resumed pass — serial or parallel, any worker count — skips
    exactly the jobs that were durably committed.  A corrupt shard
    file starts that shard over: idempotent ingest makes the re-work
    safe, just slower.
    """

    def __init__(self, root, shards: int = 8) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = max(1, int(shards))
        self._done: List[set] = [set() for _ in range(self.shards)]
        for i in range(self.shards):
            path = self._path(i)
            if path.exists():
                try:
                    payload = json.loads(path.read_text())
                    self._done[i] = set(payload.get("done", []))
                except (ValueError, OSError):
                    self._done[i] = set()

    def _path(self, shard: int) -> Path:
        return self.root / f"checkpoint-shard{shard:02d}.json"

    def shard_of(self, jobid: str) -> int:
        return zlib.crc32(jobid.encode()) % self.shards

    def __contains__(self, jobid: str) -> bool:
        return jobid in self._done[self.shard_of(jobid)]

    def __len__(self) -> int:
        return sum(len(s) for s in self._done)

    def done(self) -> List[str]:
        out: set = set()
        for s in self._done:
            out |= s
        return sorted(out)

    def mark_many(self, jobids: Iterable[str]) -> None:
        """Record a committed batch, flushing each touched shard."""
        touched: set = set()
        for jid in jobids:
            i = self.shard_of(jid)
            self._done[i].add(jid)
            touched.add(i)
        for i in sorted(touched):
            path = self._path(i)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps({"done": sorted(self._done[i])}))
            os.replace(tmp, path)

    def clear(self) -> None:
        for i in range(self.shards):
            self._done[i] = set()
            self._path(i).unlink(missing_ok=True)


def parallel_ingest_jobs(
    store: CentralStore,
    jobs: Optional[Mapping[str, Job]] = None,
    db: Optional[Database] = None,
    thresholds: Optional[Thresholds] = None,
    create_table: bool = True,
    pickle_store: Optional[JobPickleStore] = None,
    checkpoint: Optional[ShardedCheckpoint] = None,
    skip_existing: bool = True,
    batch_size: int = 200,
    workers: int = 1,
    executor: str = "auto",
) -> IngestResult:
    """Full ETL pass: store → blocks → metrics → database rows.

    Only jobs that have *finished* are ingested (running jobs lack an
    epilog sample and would bias the averages).  When ``pickle_store``
    is given, each job's accumulation is also materialised as a job
    pickle so detail views and re-analyses skip the raw parse.  Output
    is byte-identical for any ``workers`` / ``executor`` combination.

    Recovery semantics: with ``skip_existing`` (default) a job whose
    row is already in the database is not re-inserted, so replaying the
    pass has exactly-once effect.  Rows are committed every
    ``batch_size`` jobs; with a ``checkpoint`` each committed batch is
    also recorded durably, and a later pass with the same checkpoint
    skips everything already committed.
    """
    if db is None:
        db = Database()
    stage_seconds = obs.histogram(
        "repro_ingest_stage_seconds",
        "wall-clock seconds spent in each ingest stage",
    )
    JobRecord.bind(db)
    if create_table:
        JobRecord.create_table()
    with obs.span("ingest.parse", workers=workers):
        t0 = time.perf_counter()
        blocks = parse_blocks(store, workers=workers, executor=executor)
        stage_seconds.observe(time.perf_counter() - t0, stage="parse")
    t0 = time.perf_counter()
    jobdata, dropped = assemble_jobs(blocks, jobs)
    stage_seconds.observe(time.perf_counter() - t0, stage="assemble")
    result = IngestResult(dropped_short=len(dropped))
    already: set = set()
    if skip_existing:
        try:
            already = set(
                JobRecord.objects.all().values_list("jobid", flat=True)
            )
        except Exception:
            already = set()  # table absent (create_table=False, first run)

    pending: List[Tuple[str, Optional[Job], JobAccum]] = []
    t0 = time.perf_counter()
    for jid in sorted(jobdata):
        if jid in already or (checkpoint is not None and jid in checkpoint):
            result.skipped_existing += 1
            obs.counter(
                "repro_ingest_jobs_skipped_total",
                "jobs skipped because already ingested (idempotency)",
            ).inc()
            continue
        jd = jobdata[jid]
        job = jd.job
        if job is not None and not job.state.finished:
            continue
        try:
            accum = jd.accumulate()
        except ValueError as exc:
            result.errors.append(f"{jid}: {exc}")
            obs.counter(
                "repro_ingest_errors_total",
                "jobs that failed accumulation or metric computation",
            ).inc()
            continue
        obs.counter(
            "repro_ingest_jobs_total",
            "jobs processed through accumulation and metrics",
        ).inc()
        pending.append((jid, job, accum))
    stage_seconds.observe(time.perf_counter() - t0, stage="accumulate")

    t0 = time.perf_counter()
    metric_rows = compute_metrics_batch([a for _, _, a in pending])
    stage_seconds.observe(time.perf_counter() - t0, stage="metrics")

    records: List[JobRecord] = []

    def commit_batch() -> None:
        if not records:
            return
        t0 = time.perf_counter()
        JobRecord.objects.bulk_create(records)
        db.commit()
        stage_seconds.observe(time.perf_counter() - t0, stage="insert")
        result.ingested += len(records)
        obs.counter(
            "repro_ingest_rows_committed_total",
            "job rows committed to the database",
        ).inc(len(records))
        if checkpoint is not None:
            checkpoint.mark_many(r.jobid for r in records)
        records.clear()

    with obs.span("ingest.run", workers=workers) as run_span:
        for (jid, job, accum), metrics in zip(pending, metric_rows):
            if pickle_store is not None:
                pickle_store.save(accum)
            meta = {
                "queue": job.queue if job else "normal",
                "nodes": job.nodes if job else accum.n_hosts,
            }
            raised = evaluate_flags(metrics, accum, meta, thresholds)
            flag_names = [f.name for f in raised]
            if flag_names:
                result.flagged[jid] = flag_names
            records.append(record_from(jid, metrics, job, flag_names))
            if batch_size and len(records) >= batch_size:
                commit_batch()
        commit_batch()
        run_span.set(
            ingested=result.ingested,
            skipped=result.skipped_existing,
            errors=len(result.errors),
        )
    return result
