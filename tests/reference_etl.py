"""Reference ETL: job rows built one job at a time (the test oracle).

The paper's ETL per job is ``map_jobs`` → ``accumulate`` →
``compute_metrics`` → ``evaluate_flags`` → one :class:`JobRecord`.
:func:`reference_ingest` runs exactly that, in sorted jobid order, so
``parallel_ingest_jobs`` must reproduce its database byte for byte
(``iterdump``) and its ``flagged`` map at any worker count.
"""

from __future__ import annotations

from repro.metrics.flags import evaluate_flags
from repro.metrics.table1 import compute_metrics
from repro.pipeline.accum import accumulate
from repro.pipeline.jobmap import map_jobs
from repro.pipeline.parallel import IngestResult, record_from
from repro.pipeline.records import JobRecord


def reference_ingest(store, jobs, db, thresholds=None) -> IngestResult:
    """Ingest every finished job of ``store`` into ``db``, job by job."""
    JobRecord.bind(db)
    JobRecord.create_table()
    jobdata, dropped = map_jobs(store, jobs)
    result = IngestResult(dropped_short=len(dropped))
    records = []
    for jid in sorted(jobdata):
        jd = jobdata[jid]
        job = jd.job
        if job is not None and not job.state.finished:
            continue
        try:
            accum = accumulate(jd)
            metrics = compute_metrics(accum)
        except ValueError as exc:
            result.errors.append(f"{jid}: {exc}")
            continue
        meta = {
            "queue": job.queue if job else "normal",
            "nodes": job.nodes if job else jd.n_hosts,
        }
        flags = [f.name for f in evaluate_flags(metrics, accum, meta,
                                                thresholds)]
        if flags:
            result.flagged[jid] = flags
        records.append(record_from(jid, metrics, job, flags))
    JobRecord.objects.bulk_create(records)
    db.commit()
    result.ingested = len(records)
    return result
